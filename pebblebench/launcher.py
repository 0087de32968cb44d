"""Start ``repro-pebble`` in this process, optionally with layer spans.

    python3 pebblebench/launcher.py [--trace] serve --port 0 ...

Everything after the optional ``--trace`` is handed to the ``repro-pebble``
command line unchanged.  With ``--trace`` the service entry points
(``JobQueue.submit``, the result store, the worker-pool backend) record
spans in this process; pool workers forked from it record nothing.  After
the command returns, the spans are printed as JSON on one line starting
with ``PEBBLEBENCH-TRACE``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    argv = sys.argv[1:]
    tracer = None
    if argv[:1] == ["--trace"]:
        from pebblebench.tracing import Tracer, install_server

        tracer = Tracer()
        install_server(tracer)
        os.register_at_fork(after_in_child=tracer.detach)
        argv = argv[1:]
    sys.stdout.reconfigure(line_buffering=True)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    if tracer is not None:
        print("PEBBLEBENCH-TRACE " + json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
