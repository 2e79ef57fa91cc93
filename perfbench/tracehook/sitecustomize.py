"""Start-up hook of the benchmark's traced server processes.

Python imports ``sitecustomize`` from its path at start-up; the traced
run puts this directory on the server's ``PYTHONPATH`` so the span
wrappers are in place before ``serve`` (or a cluster worker it spawns)
imports anything. Without ``PERFBENCH_TRACE_DIR`` this does nothing.
"""

import pbtrace

pbtrace.install_from_env()
