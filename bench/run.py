"""exhom benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run it from the repository root; it needs ``BENCHMARK.json`` and ``src/exhom``
there and exits with code 2 without a result when either is missing.  The
workloads, metrics and layers are described in ``bench/README.md``.

``--trace 0`` starts three short processes that only set up, then one process
that sets up and times repetitions for S seconds; it reports the end-to-end
metrics.  ``--trace 1`` starts one process that alternates untraced and
traced repetitions on the same inputs for S seconds, and reports the
per-layer metrics.  Either way every
repetition's output is checked and scored against an independent oracle
afterwards, outside the timings.  The next-to-last line of standard output
is a JSON record with the environment, each repetition's outputs and any
failure causes; the last line is the result::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": ..., "unit": "s"}, ...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# every worker runs with single-threaded BLAS, one process at a time
os.environ.update(BLAS_THREADS)

import workloads  # noqa: E402  (after the thread setting, which numpy reads on import)

N_PROBES = 3  # set-up-only processes per timed run; setup_s is their median with the timed process
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed repetition)."""


def spawn(workload, seed, mode, seconds, min_reps, size, deadline):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--min-reps", str(min_reps), "--size", size]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "source_sha256": _source_hash(),
    }


def _commit():
    """HEAD of a git checkout at ROOT, read from its files; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "exhom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def score(wl, seed, reps, trace):
    """Check every repetition against the oracle; return the failure count."""
    sys.path.insert(0, str(SRC))
    import exhom

    distance = wl.oracle(exhom, seed)
    failed = 0
    for rep in reps:
        if rep["cause"] is None:
            rep["error"] = distance(rep["out"])
            if not rep["error"] <= wl.ceiling:
                rep["cause"] = f"distance {rep['error']:.6g} to the oracle exceeds {wl.ceiling:g}"
            elif trace and rep.get("residual_max", 0.0) > wl.rel_tol:
                rep["cause"] = f"true relative residual {rep['residual_max']:.3g} exceeds rel_tol {wl.rel_tol:g}"
        failed += rep["cause"] is not None
    return failed


def abs_err(reps):
    """Mean over input groups (box placements) of the median error in each group."""
    groups = {}
    for rep in reps:
        if rep["cause"] is None:
            groups.setdefault(rep["out"]["group"], []).append(rep["error"])
    return statistics.fmean(statistics.median(v) for v in groups.values()) if groups else None


def end_to_end(wl, args, deadline):
    setups = [spawn(wl.name, args.seed, "probe", 0.0, 0, args.size, deadline)["setup_s"] for _ in range(N_PROBES)]
    timed = spawn(wl.name, args.seed, "time", args.seconds, wl.min_reps, args.size, deadline)
    setups.append(timed["setup_s"])
    reps = timed["reps"]
    failed = score(wl, args.seed, reps, trace=False)
    walls = [r["wall_s"] for r in reps if r["cause"] is None]
    values = {
        "wall_s": statistics.median(walls) if walls else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
        "abs_err": abs_err(reps),
        "ok_frac": (len(reps) - failed) / len(reps),
    }
    return values, reps, failed, {"setup_samples_s": setups}


def per_layer(wl, args, deadline):
    traced = spawn(wl.name, args.seed, "trace", args.seconds, 1, args.size, deadline)
    reps = traced["reps"]
    failed = score(wl, args.seed, reps, trace=True)
    values = dict(traced["layers"])
    walls = {}
    for rep in reps:
        if rep["cause"] is None:
            walls.setdefault(rep["j"], {})[rep["traced"]] = rep["wall_s"]
    diffs = [w[True] - w[False] for w in walls.values() if len(w) == 2]
    values["trace.overhead_s"] = statistics.median(diffs) if diffs else None
    extra = {"absent": traced["absent"], "spans_file": traced["spans_file"]}
    if traced["absent"]:
        print(f"traced functions not found: {', '.join(traced['absent'])}", file=sys.stderr)
    return values, reps, failed, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", dest="size", action="store_const", const="small", default="full",
                    help="small problem sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "exhom" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"bench: no exhom sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    try:
        wl = workloads.get(args.workload, args.size)
    except KeyError as exc:
        print(f"bench: {exc.args[0]}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())

    try:
        if args.trace:
            values, reps, failed, extra = per_layer(wl, args, deadline)
        else:
            values, reps, failed, extra = end_to_end(wl, args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a layer the workload never reaches reports 0 (no calls, no time)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    correct = failed == 0 and all(v["value"] is not None and math.isfinite(v["value"]) for v in metrics.values())
    record = {"workload": wl.name, "seed": args.seed, "size": args.size, "seconds": args.seconds,
              "trace": args.trace, "params": wl.params(), "env": environment(), "reps": reps, **extra}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
