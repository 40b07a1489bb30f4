"""Run the superext CLI under the benchmark's tracer.

    python3 perfbench/traced_cli.py SPANS_JSON CLI_ARGS...

Exits with the CLI's exit code and writes the recorded spans to SPANS_JSON.
The parent benchmark process sets PYTHONPATH so that `superext` imports.
"""

import json
import sys
from pathlib import Path

import tracing
from superext import cli


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer("")
    with tracing.installed(tracer, tracing.TARGETS + (tracing.CLI_TARGET,)):
        code = cli.main(argv)
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
