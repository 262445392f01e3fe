"""Run ``repro serve`` with layer spans recorded (the traced server).

Usage: ``python3 servebench/launcher.py SPANS_JSON serve [ARGS...]``,
with the checkout's ``src`` on ``PYTHONPATH``.  The layer functions are
wrapped before the server starts (see ``spans.py``); the spans stay in
memory and are written to ``SPANS_JSON`` once SIGTERM has drained it.
"""

import sys

from spans import Recorder, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
