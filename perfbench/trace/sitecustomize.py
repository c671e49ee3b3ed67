"""Start-up hook of traced benchmark runs.

Python imports ``sitecustomize`` from ``sys.path`` while it starts.  The
benchmark puts this directory on ``PYTHONPATH`` only for the program
processes of a traced run (and the processes they spawn inherit it), so the
layer tracer is installed in each of them before ``repro`` is imported.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
