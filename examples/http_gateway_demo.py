"""Operate the phase service over its HTTP gateway.

Starts a :class:`repro.service.PhaseService` with the HTTP operations
gateway enabled (``http_port=0``), then drives everything a monitoring
stack would touch — with nothing but ``urllib``:

1. probe ``/healthz`` and ``/readyz``,
2. open a session and stream a synthetic two-phase workload through
   ``POST /v1/sessions/{id}/observe-batch``, printing the interval
   reports that come back in the JSON response,
3. read ``/v1/diagnostics`` (phase occupancy, predictor accuracy, live
   sessions, backpressure),
4. scrape ``/metrics`` and re-parse it with
   :func:`repro.telemetry.parse_prometheus_text`,
5. subscribe to ``/v1/events`` and show the live SSE interval events,
6. ``POST /v1/drain`` and watch ``/readyz`` flip to 503 before the
   service exits.

While the demo runs, the live dashboard is being served at the printed
URL — open it in a browser to watch the same numbers move.

Run:  python examples/http_gateway_demo.py
"""

import json
import socket
import time
import urllib.error
import urllib.request

import numpy as np

from repro.service import start_in_thread
from repro.telemetry import parse_prometheus_text

INTERVAL = 20_000
BATCH = 400
PHASE_A, PHASE_B = 0x400000, 0x900000


def call(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def sse_events(host, port, limit, timeout=10.0):
    """A minimal SSE reader: yields up to ``limit`` event payloads."""
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.sendall(
            b"GET /v1/events?types=interval HTTP/1.1\r\n"
            b"Host: gateway\r\nAccept: text/event-stream\r\n\r\n"
        )
        buffer, seen = b"", 0
        deadline = time.time() + timeout
        while seen < limit and time.time() < deadline:
            chunk = sock.recv(4096)
            if not chunk:
                break
            buffer += chunk
            while b"\n\n" in buffer:
                frame, buffer = buffer.split(b"\n\n", 1)
                for line in frame.splitlines():
                    if line.startswith(b"data: "):
                        yield json.loads(line[6:])
                        seen += 1
                        if seen >= limit:
                            return
    finally:
        sock.close()


def main():
    rng = np.random.default_rng(11)
    handle = start_in_thread(max_sessions=8, http_port=0)
    service = handle.service
    base = f"http://{service.http_host}:{service.http_port}"
    print(f"gateway + dashboard at {base}/")

    status, health = call(base, "GET", "/healthz")
    print(f"healthz -> {status} {health['status']}, "
          f"v{health['version']} pid {health['pid']}")
    status, _ = call(base, "GET", "/readyz")
    print(f"readyz  -> {status}")

    status, opened = call(base, "POST", "/v1/sessions", {
        "session": "http-demo", "interval_instructions": INTERVAL,
    })
    print(f"open    -> {status} {opened}")

    for index in range(24):
        phase_base = PHASE_A if (index // 6) % 2 == 0 else PHASE_B
        pcs = (phase_base + rng.integers(0, 48, size=BATCH) * 4).tolist()
        counts = rng.integers(20, 80, size=BATCH).tolist()
        _, result = call(
            base, "POST", "/v1/sessions/http-demo/observe-batch",
            {"pcs": pcs, "counts": counts, "cpi": 1.0},
        )
        for report in result["reports"]:
            print(f"  interval {report['interval_index']:3d}: "
                  f"phase {report['phase_id']}"
                  + (" [transition]" if report["is_transition"] else "")
                  + (f" -> predicts {report['predicted_next_phase']}"
                     if report["predicted_next_phase"] is not None
                     else ""))

    _, diag = call(base, "GET", "/v1/diagnostics")
    print(f"diagnostics: occupancy={diag['phase_occupancy']} "
          f"accuracy={diag['prediction']['accuracy']} "
          f"live={diag['registry']['live']} "
          f"queue_depth={diag['ingest_queue_depth']}")

    with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
        samples = parse_prometheus_text(response.read().decode())
    observes = samples[
        'repro_http_requests_total'
        '{method="POST",route="/v1/sessions/{id}/observe-batch"}'
    ]
    print(f"metrics: {len(samples)} series; "
          f"{int(observes)} observe-batch requests counted")

    print("subscribing to /v1/events while streaming more branches…")
    import threading

    def stream_more():
        for index in range(12):
            phase_base = PHASE_A if (index // 6) % 2 else PHASE_B
            pcs = (phase_base
                   + rng.integers(0, 48, size=BATCH) * 4).tolist()
            counts = rng.integers(20, 80, size=BATCH).tolist()
            call(base, "POST", "/v1/sessions/http-demo/observe-batch",
                 {"pcs": pcs, "counts": counts})

    feeder = threading.Thread(target=stream_more, daemon=True)
    feeder.start()
    for event in sse_events(service.http_host, service.http_port, 3):
        print(f"  SSE: interval {event['interval_index']} "
              f"phase {event['phase_id']} (seq {event['seq']})")
    feeder.join()

    status, _ = call(base, "POST", "/v1/drain", {"grace": 0.5})
    print(f"drain   -> {status}")
    status, body = call(base, "GET", "/readyz")
    print(f"readyz  -> {status} {body}  (draining)")
    handle.stop()
    print("service drained and stopped")


if __name__ == "__main__":
    main()
