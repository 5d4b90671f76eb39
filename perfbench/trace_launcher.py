"""Run ``repro serve`` with span-recording wrappers installed.

    python perfbench/trace_launcher.py SPANS_OUT serve [serve options...]

The wrappers (see ``tracing.install``) time each layer's public calls from
outside the program; the spans are written to ``SPANS_OUT`` as JSON when
the server exits (SIGTERM drains it).  Sharded workers are separate
processes and are not wrapped; their ``REPRO_PERF`` timers cover them.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    import repro.cli
    from tracing import SpanRecorder, install

    out, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
