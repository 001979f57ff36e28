"""One cold exchangelab CLI command with spans on.

    python perfbench/cold_traced.py SPANS.json COMMAND --scenario ... --out ...

Installs the tracer, runs ``exchangelab.cli.main`` on the remaining
arguments and writes the spans as JSON when the command ends.  The traced
run of ``cli-cold`` sends its requests through this file instead of
``python -m exchangelab.cli``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    trace = tracer.Tracer()
    tracer.install(trace)
    import exchangelab.cli as cli

    try:
        return cli.main(argv)
    finally:
        Path(spans_file).write_text(json.dumps(trace.spans))


if __name__ == "__main__":
    sys.exit(main())
