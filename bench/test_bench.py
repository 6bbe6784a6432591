"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest bench -q

They run every workload through ``run.py --small`` in both modes (about a
minute in total) and are not part of the package's own test suite.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import exhom  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = ("tensor-ladder", "tensor-naive", "hmm-patches", "lattice-box")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "abs_err": "1", "ok_frac": "ratio"}
PER_LAYER = {
    "coeffs.eval.calls": "count", "coeffs.eval.points": "count", "coeffs.eval.self_s": "s",
    "coeffs.catalog.self_s": "s", "averaging.build_filter.self_s": "s",
    "grid.assemble.calls": "count", "grid.assemble.dofs": "count", "grid.assemble.self_s": "s",
    "grid.assemble.distinct_ratio": "ratio",
    "grid.solve.calls": "count", "grid.solve.self_s": "s", "grid.krylov.iters": "count",
    "grid.krylov.restarts": "count", "grid.solve.residual_max": "ratio", "grid.solve.failed": "count",
    "grid.gradient.self_s": "s",
    "corrector.ladder.self_s": "s", "corrector.combine.calls": "count", "corrector.combine.self_s": "s",
    "averaging.bundle.self_s": "s", "averaging.weights.points": "count", "averaging.weights.self_s": "s",
    "averaging.tensor.self_s": "s",
    "lattice.corrector.calls": "count", "lattice.corrector.self_s": "s", "lattice.krylov.iters": "count",
    "lattice.krylov.self_s": "s", "lattice.hom.self_s": "s",
    "hmm.local_tensor.calls": "count", "hmm.local_tensor.self_s": "s",
    "hmm.numerical_corrector.self_s": "s", "hmm.coarse_solve.self_s": "s", "hmm.patch.dofs": "count",
    "trace.overhead_s": "s", "trace.unattributed_s": "s", "trace.check_s": "s", "trace.root_s": "s",
}
# layers each workload must reach (a positive call or point count)
REACHED = {
    "tensor-ladder": ("coeffs.eval.calls", "grid.assemble.calls", "grid.solve.calls",
                      "corrector.combine.calls", "averaging.weights.points"),
    "tensor-naive": ("coeffs.eval.calls", "grid.assemble.calls", "grid.solve.calls", "averaging.weights.points"),
    "hmm-patches": ("coeffs.eval.calls", "grid.assemble.calls", "hmm.local_tensor.calls", "hmm.patch.dofs"),
    "lattice-box": ("lattice.corrector.calls", "lattice.krylov.iters", "corrector.combine.calls"),
}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5",
                             "--trace", str(trace), "--small")
            assert proc.returncode == 0, proc.stderr
            record_line, result_line = proc.stdout.strip().splitlines()[-2:]
            cache[name, trace] = json.loads(record_line)["record"], json.loads(result_line)
        return cache[name, trace]

    return get


def test_benchmark_json_declares_the_named_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_has_every_metric_with_its_unit(results, name, trace):
    record, result = results(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    # outputs and environment are recorded for later comparison
    assert all("out" in rep and "error" in rep for rep in record["reps"])
    assert {"nproc", "python", "numpy", "scipy", "blas_threads", "commit", "source_sha256"} <= set(record["env"])


@pytest.mark.parametrize("name", NAMES)
def test_self_times_and_unattributed_add_up_to_the_root(results, name):
    _, result = results(name, 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    parts = sum(v for k, v in m.items() if k.endswith(".self_s"))
    parts += m["trace.unattributed_s"] + m["trace.check_s"]
    assert parts == pytest.approx(m["trace.root_s"], rel=1e-9)
    assert all(m[k] > 0 for k in REACHED[name])


def test_end_to_end_values_are_positive(results):
    _, result = results("tensor-ladder", 0)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["ok_frac"] == 1.0 and m["abs_err"] > 0 and m["wall_s"] > 0 and m["setup_s"] > 0


def test_residual_stays_within_tolerance(results):
    _, result = results("tensor-naive", 1)
    assert 0 < result["metrics"]["grid.solve.residual_max"]["value"] <= 1e-8


def test_tracer_rebinds_imported_names_and_restores_them():
    original = exhom.grid.assemble
    assert exhom.corrector.assemble is original and exhom.hmm.assemble is original
    with Tracer() as tracer:
        for module in (exhom, exhom.grid, exhom.corrector, exhom.hmm, exhom.reference):
            assert module.assemble is not original
        with tracer.span("root.rep"):
            exhom.assemble(exhom.StructuredGrid.square(1, 4), exhom.constant(1.0), 1.0, xi=(1.0, 0.0))
    assert exhom.grid.assemble is original and exhom.corrector.assemble is original
    assert tracer.root_totals(0)["grid.assemble.calls"] == 1


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(exhom.corrector, "corrector_ladder")
    with Tracer() as tracer:
        pass
    assert "exhom.corrector:corrector_ladder" in tracer.absent


def test_seed_places_inputs_reproducibly():
    a, b = workloads.get("tensor-ladder", "small"), workloads.get("tensor-ladder", "small")
    a.setup(exhom, 0)
    assert a.center(0) == (0.0, 0.0) and a.center(5) == (1.5, 1.0)
    a.setup(exhom, 7)
    b.setup(exhom, 7)
    centers = [a.center(j) for j in range(8)]
    assert centers == [b.center(j) for j in range(8)] and len(set(centers)) == 8
    # every run visits each placement once per cycle of four
    assert {(x % 1, y % 1) for x, y in centers[:4]} == set(workloads.PLACEMENTS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "tensor-ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
