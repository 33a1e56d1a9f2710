"""One measured process of the benchmark: a fresh interpreter running one workload.

Usage (the benchmark's parent process builds this command line):

    python3 perfbench/child.py MARK TRACE cli   <pfrlab CLI arguments...>
    python3 perfbench/child.py MARK TRACE codec <m> <D> <symbols> <seed hex>

MARK is a JSON file the child writes on exit.  It holds ``setup_t``, the
CLOCK_MONOTONIC time at which set-up ended (``load_config`` returned, or the
codec model was built), plus the codec's per-symbol latencies and digest.
TRACE is ``-`` for an untraced run, or the ``.npz`` path the span trace is
written to.  The exit code is the CLI's, or the codec's (0, or 5 on a
round-trip mismatch).
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXIT_WRONG_PACKAGE = 90


def main(argv) -> int:
    mark_path, trace_path, kind, *rest = argv
    sys.path.insert(0, str(SRC))
    import pfrlab
    if SRC not in Path(pfrlab.__file__).resolve().parents:
        print(f"imported pfrlab from {pfrlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return EXIT_WRONG_PACKAGE

    tracer = None
    if trace_path != "-":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    mark = {}
    if kind == "cli":
        from pfrlab import cli
        load = cli.load_config

        def load_and_mark(*args, **kwargs):
            cfg = load(*args, **kwargs)
            mark.setdefault("setup_t", time.monotonic())
            return cfg

        cli.load_config = load_and_mark
        code = cli.main(rest)
    else:
        import codec
        m, distortion, symbols, seed = rest
        code = codec.run(int(m), float(distortion), int(symbols), seed, mark)

    if tracer is not None:
        tracer.dump(trace_path)
    with open(mark_path, "w") as fh:
        json.dump(mark, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
