"""One benchmark process: set up a workload, then time repetitions of it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE --t0 T0 \
        [--min-reps M] [--size full|small]

``run.py`` starts this script; each process runs only one workload, so its
peak resident memory is that workload's.  T0 is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
runs from process start to the end of set-up.  MODE is

- ``probe``: set up, then exit;
- ``time``: repetitions without tracing;
- ``trace``: set-up inside a traced root span, then pairs of repetitions on
  the same input, one untraced and one traced, in alternating order.  Both
  sides of a pair run back to back, so the host's speed, which drifts by
  tens of percent over minutes, is nearly the same for both and their
  difference measures the tracing overhead.

Repetitions (or pairs) run while the next one should end within S seconds,
and at least M run.  A repetition that raises is recorded with its cause and
the loop goes on.  The result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a process that has run this long starts no further repetition, so that
# a whole benchmark run stays well inside its time limit
HARD_LIMIT_S = 100.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("probe", "time", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--min-reps", type=int, default=1)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import exhom
    import workloads

    wl = workloads.get(args.workload, args.size)
    tracer = setup_root = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        with tracer, tracer.span("root.setup") as setup_root:
            wl.setup(exhom, args.seed)
    else:
        wl.setup(exhom, args.seed)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    reps, rep_roots = [], []

    def repetition(j, traced):
        rep = {"j": j, "traced": traced}
        t = time.perf_counter()
        try:
            if traced:
                with tracer, tracer.span("root.rep") as idx:
                    rep_roots.append(idx)
                    out = wl.run(j)
            else:
                out = wl.run(j)
            rep["wall_s"] = time.perf_counter() - t
            rep["out"] = out
            rep["cause"] = wl.check(out)
        except Exception as exc:  # a failed repetition is a result to report
            rep["cause"] = f"{type(exc).__name__}: {exc}"
        if traced:
            rep["residual_max"] = tracer.counts[rep_roots[-1]]["grid.solve.residual_max"]
        reps.append(rep)
        return rep.get("wall_s", 0.0)

    # a step is one repetition, or an (untraced, traced) pair on one input
    orders = [(False, True), (True, False)] if tracer else [(False,)]
    steps = []
    start = time.perf_counter()
    j = 0
    while True:
        # start another step only if it should end within the budget
        elapsed = time.perf_counter() - start
        typical = sorted(steps)[len(steps) // 2] if steps else 0.0
        if j >= args.min_reps and elapsed + typical > args.seconds or elapsed > HARD_LIMIT_S:
            break
        steps.append(sum(repetition(j, traced) for traced in orders[j % len(orders)]))
        j += 1
    result["reps"] = reps
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        result["layers"] = tracer.layer_metrics(setup_root, rep_roots)
        result["absent"] = tracer.absent
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
