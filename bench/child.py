"""Run one `ionlattice` CLI verb in this fresh process and record timings.

    python bench/child.py TIMING_JSON [--trace SPANS_JSON] -- VERB ARGS...

Writes TIMING_JSON with the CLOCK_MONOTONIC instant (time.perf_counter
on Linux) at which `import ionlattice.cli` finished, for the parent to
subtract its launch instant from, and the time spent inside
`ionlattice.cli.main`. With --trace the public names of the library
are wrapped first (see tracer.py) and the spans and counts go to
SPANS_JSON. Exits with the CLI's own exit code.
"""

import json
import sys
import time


def main():
    args = sys.argv[1:]
    split = args.index("--")
    timing_path, opts, argv = args[0], args[1:split], args[split + 1:]
    trace_path = opts[1] if opts[:1] == ["--trace"] else None

    import ionlattice.cli as cli
    imported_at = time.perf_counter()

    tracer = None
    if trace_path is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    solve_s = time.perf_counter() - start

    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"imported_at": imported_at, "solve_s": solve_s}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
