"""Run ``relaqm`` like ``python -m relaqm``, with the tracer installed.

Usage: ``python3 perfbench/traced_cli.py SPANS.jsonl ARGS...``.  The spans
of the one command go to SPANS.jsonl; stdout and the exit code are those of
the command.
"""

import sys

from tracer import Tracer

import relaqm.cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = relaqm.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            tracer.write(fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
