"""Run one ``skewdyck`` CLI command, optionally under the benchmark tracer.

Usage::

    python bench/cli_entry.py [--trace-out PATH --job ID] <skewdyck arguments>

Without ``--trace-out`` this behaves like ``python -m skewdyck.cli``.  With
it, the tracer is installed before the command runs, every span is tagged
with job ``ID``, and the spans are written to ``PATH`` when the command ends.
"""

import sys


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, job, argv = argv[1], int(argv[3]), argv[4:]
    from skewdyck import cli

    if trace_out is None:
        return cli.main(argv)
    from tracer import Tracer

    tracer = Tracer(job).install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
