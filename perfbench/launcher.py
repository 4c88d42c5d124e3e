"""Start the program's CLI, optionally with the benchmark's span wrappers.

    python3 perfbench/launcher.py [--trace] serve --port 0 --engine fast

Traced and untraced servers both start here, so the process layout is
identical; ``--trace`` installs the wrappers first and prints the spans
as one ``PERFBENCH-SPANS <json>`` line when the CLI returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    argv = sys.argv[1:]
    recorder = None
    if argv[:1] == ["--trace"]:
        import tracer

        argv = argv[1:]
        recorder = tracer.Recorder()
        tracer.install(recorder)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    if recorder is not None:
        sys.stdout.write("PERFBENCH-SPANS " + json.dumps(recorder.dump()) + "\n")
        sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
