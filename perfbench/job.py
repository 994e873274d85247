"""Run one hopfalg CLI job in this process, as ``hopfalg ARGV...`` would.

    python3 perfbench/job.py [--trace FILE] -- ARGV...
    python3 perfbench/job.py --setup SCHEMA:DEGREE ...

The engine is imported from ``src/`` next to this directory.  With
``--trace`` the tracer wraps the engine before ``cli.main`` runs and writes
its spans to FILE at exit.  ``--setup`` builds and validates one schema
context per argument through the CLI's own ``build_context`` and exits.
"""

import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from hopfalg import cli

    if argv[:1] == ["--setup"]:
        for spec in argv[1:]:
            schema, _, degree = spec.rpartition(":")
            cli.build_context(SimpleNamespace(schema=schema, max_degree=int(degree)))
        return 0
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_file is None:
        return cli.main(argv)

    from perfbench.trace import Tracer, install

    tracer = Tracer(job=os.path.basename(trace_file))
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
