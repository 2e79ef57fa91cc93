"""A serving process imports only the serving stack (DESIGN §14).

Each case starts a fresh interpreter, imports one serving entry point,
and drives a durable ``PhaseService`` with an HTTP port through every
request kind and the gateway's pages. The experiment-only modules left
in ``sys.modules`` afterwards must be none: a module that serving
merely deferred to its first request would show up here.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Modules no serving process may load: the simulator, the analysis,
#: offline and baseline stacks, every workload module but the trace
#: records, every harness module but the CLI, the batch pool, and the
#: oracle predictors with the Figure 8 evaluation.
EXPERIMENT_ONLY = re.compile(
    r"repro\.(simulator|analysis|offline|baselines)(\.|$)"
    r"|repro\.workloads\.(?!trace$)"
    r"|repro\.harness\.(?!cli$)"
    r"|repro\.core\.pool$"
    r"|repro\.prediction\.(change_eval|perfect)$"
)

#: A cluster worker is a service, not a cluster front end.
CLUSTER_FRONT = re.compile(
    r"repro\.cluster\.(dispatcher|supervisor|migration)$"
)

SERVE = r"""
import importlib
import json
import sys
import tempfile
from urllib.request import urlopen

importlib.import_module(sys.argv[1])

from repro.service import PhaseServiceClient, start_in_thread

with tempfile.TemporaryDirectory() as data_dir:
    handle = start_in_thread(port=0, http_port=0, data_dir=data_dir)
    try:
        with PhaseServiceClient(port=handle.port) as client:
            session = client.open_session(
                "guard", interval_instructions=1000
            )
            reports = client.observe(
                session, [4096 + 4 * (i % 96) for i in range(600)],
                [40] * 600, cpi=1.2,
            )
            client.predict(session)
            snapshot = client.snapshot(session)
            restored = client.open_session("restored", snapshot=snapshot)
            client.stats()
            client.close_session(restored)
            client.close_session(session)
        base = f"http://{handle.service.http_host}:{handle.service.http_port}"
        pages = {}
        for path in ("/metrics", "/v1/diagnostics", "/v1/sessions", "/"):
            with urlopen(base + path, timeout=10) as answer:
                pages[path] = answer.status
    finally:
        handle.stop()
print(json.dumps({
    "reports": len(reports),
    "pages": pages,
    "modules": sorted(sys.modules),
}))
"""


def _serve_from(entry: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", SERVE, entry],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry, excluded", [
    ("repro.harness.cli", [EXPERIMENT_ONLY]),
    ("repro.cluster.worker", [EXPERIMENT_ONLY, CLUSTER_FRONT]),
])
def test_serving_loads_no_experiment_module(entry, excluded):
    served = _serve_from(entry)
    assert served["reports"] > 0
    assert set(served["pages"].values()) == {200}, served["pages"]
    assert entry in served["modules"]
    loaded = [
        name for name in served["modules"]
        if any(pattern.match(name) for pattern in excluded)
    ]
    assert loaded == []
