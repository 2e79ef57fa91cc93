"""Package inits that re-export lazily (DESIGN §14) keep their public
names: each resolves to the object its defining module holds, shows in
``dir()``, and binds under ``from X import *``, and an unknown name is
still an ``AttributeError``.

The checks run in a fresh interpreter, where no lazily re-exported name
has been looked up yet; this test process imported them all long ago.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

CHECK = r"""
import importlib
import json
import sys

#: Public names without a ``__module__``, and the module defining each.
CONSTANTS = {
    "BENCHMARK_NAMES": "repro.workloads.spec2000",
    "DEFAULT_SHARDS": "repro.cluster.routing",
    "EXPERIMENT_NAMES": "repro.harness.experiment",
    "TRANSITION_PHASE_ID": "repro.core.config",
    "__version__": "repro",
}

name = sys.argv[1]
package = importlib.import_module(name)
public = list(package.__all__)
listed = set(dir(package))
star = {}
exec(f"from {name} import *", star)
not_canonical = []
for attr in public:
    value = getattr(package, attr)
    source = CONSTANTS.get(attr) or value.__module__
    if getattr(importlib.import_module(source), attr) is not value:
        not_canonical.append(attr)
try:
    package.no_such_name
    unknown = None
except AttributeError as error:
    unknown = str(error)
print(json.dumps({
    "not_in_dir": sorted(set(public) - listed),
    "not_star_bound": sorted(
        attr for attr in public
        if star.get(attr, star) is not getattr(package, attr)
    ),
    "not_canonical": not_canonical,
    "unknown": unknown,
    "hasattr_unknown": hasattr(package, "no_such_name"),
}))
"""


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.workloads", "repro.harness",
    "repro.cluster",
])
def test_public_names_resolve_as_eager_imports_did(package):
    result = subprocess.run(
        [sys.executable, "-c", CHECK, package],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "not_in_dir": [],
        "not_star_bound": [],
        "not_canonical": [],
        "unknown": f"module {package!r} has no attribute 'no_such_name'",
        "hasattr_unknown": False,
    }
