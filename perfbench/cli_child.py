"""Run ``cohomkit.cli`` as ``python -m cohomkit.cli`` would, with the layer
tracer installed, and print the span summary on stderr after the report.

Usage: python perfbench/cli_child.py <cohomkit arguments...>
"""

import json
import runpy
import sys

import spans


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    sys.argv = ["cohomkit.cli", *sys.argv[1:]]
    code = 0
    try:
        runpy.run_module("cohomkit.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print(spans.TRACE_MARK + json.dumps(tracer.summarize()), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
