"""Tests of the benchmark's own checks, its tracer, and a toy-sized run of
each workload.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rmep.alternating import AlternatingConfig, solve_one  # noqa: E402
from rmep.cli import main as rmep_main  # noqa: E402
from rmep.model import dehomogenize, random_planted_problem  # noqa: E402
from rmep.tsvd import solve_complete  # noqa: E402


def _rewrite(path, edit):
    """Apply edit(rows) to a CSV artifact's data rows, keeping its header."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


# --- Sturm-Liouville -------------------------------------------------------


@pytest.fixture(scope="module")
def sl_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("sl")
    assert rmep_main(["ode-sl", "--n1", "18", "--n2", "18", "--out", str(out), "--no-timestamp"]) == 0
    return out


@pytest.fixture
def sl_copy(sl_output, tmp_path):
    dest = tmp_path / "sl"
    shutil.copytree(sl_output, dest)
    return dest


def test_sl_check_accepts_program_output(sl_output):
    assert checks.check_sl_output(sl_output) == []


def test_sl_check_rejects_shifted_eigenvalue(sl_copy):
    def shift(rows):
        col = rows[0].index("re_lambda")
        rows[3][col] = repr(float(rows[3][col]) + 1e-6)

    _rewrite(sl_copy / "sl_eigenvalues.csv", shift)
    assert any("from the closed form" in p for p in checks.check_sl_output(sl_copy))


def test_sl_check_rejects_repeated_tuple(sl_copy):
    def repeat(rows):
        rows[2][1:] = rows[1][1:]

    _rewrite(sl_copy / "sl_eigenvalues.csv", repeat)
    assert any("written twice" in p for p in checks.check_sl_output(sl_copy))


def test_sl_check_rejects_wrong_eigenfunction(sl_copy):
    rows = checks.read_csv(sl_copy / "sl_eigenvalues.csv")
    freq = [checks.sl_closed_form(complex(float(r["re_lambda"])), complex(float(r["re_mu"])))[0] for r in rows]
    other = next(j for j in range(1, len(rows)) if freq[j] != freq[0]) + 1
    shutil.copy(sl_copy / f"sl_u1_{other:02d}.csv", sl_copy / "sl_u1_01.csv")
    assert any("u1 correlates" in p for p in checks.check_sl_output(sl_copy))


# --- planted random problems ------------------------------------------------


@pytest.fixture(scope="module")
def bench_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    argv = ["bench-random", "--m", "20", "--n", "5", "--k", "2", "--sigmas", workloads.PlantedSweep.SIGMAS,
            "--trials", "4", "--seed", "11", "--out", str(out), "--no-timestamp"]
    assert rmep_main(argv) == 0
    return checks.read_csv(out / "bench.csv")


def test_planted_checks_accept_program_output(bench_rows):
    assert checks.check_planted_round(bench_rows) == []
    assert checks.check_planted_trend([bench_rows]) == []


def test_planted_round_check_rejects_inexact_noiseless_row(bench_rows):
    bad = [dict(r) for r in bench_rows]
    bad[0]["mean_max_rel_err_lambda2"] = "1e-7"
    assert checks.check_planted_round(bad)
    bad = [dict(r) for r in bench_rows]
    bad[0]["mean_unmatched"] = "0.5"
    assert checks.check_planted_round(bad)


def test_planted_trend_check_rejects_falling_error_and_range(bench_rows):
    bad = [dict(r) for r in bench_rows]
    col = "mean_mean_rel_err_lambda1"
    bad[2][col], bad[3][col] = bad[3][col], bad[2][col]
    assert any("falls" in p for p in checks.check_planted_trend([bad]))
    bad = [dict(r) for r in bench_rows]
    bad[3][col] = "0.03"
    assert any("outside" in p for p in checks.check_planted_trend([bad]))


def test_spectrum_check_against_numpy_reference():
    problem, reference = random_planted_problem([20, 20], [5, 5], 0.0, 5)
    planted = checks.planted_reference_spectrum([(b.a, *b.b) for b in reference.blocks])
    computed = np.array([dehomogenize(t.value) for t in solve_complete(problem) if t.residual is not None])
    assert checks.compare_spectra(planted, computed) == []
    shifted = computed.copy()
    shifted[7, 1] *= 1 + 1e-6
    assert any("lambda2" in p for p in checks.compare_spectra(planted, shifted))
    assert checks.compare_spectra(planted, computed[1:])


# --- alternating descent -----------------------------------------------------


@pytest.fixture(scope="module")
def descent():
    problem = workloads.gate4_problems((1,))[1]
    tup, pset, trace = solve_one(problem, AlternatingConfig())
    args = dict(
        blocks=[(b.a, b.b) for b in problem.blocks],
        gamma=tup.value.gamma,
        alphas=tup.value.alphas,
        vectors=tup.vectors,
        objectives=list(trace.objectives),
        status=trace.status,
        final_kkt=trace.final_kkt,
        perturbed=[(b.a, b.b) for b in pset.blocks],
        perturbed_cost=pset.cost,
    )
    return args


def test_descent_check_accepts_program_output(descent):
    assert checks.check_descent(**descent) == []


def test_descent_check_rejects_rising_trace(descent):
    th = list(descent["objectives"])
    th[3] = th[2] * (1 + 1e-9) + 1e-9
    assert any("rises" in p for p in checks.check_descent(**{**descent, "objectives": th}))


def test_descent_check_rejects_wrong_cost(descent):
    cost = descent["perturbed_cost"] * (1 + 1e-8)
    assert any("perturbation cost" in p for p in checks.check_descent(**{**descent, "perturbed_cost": cost}))
    th = descent["objectives"][:-1] + [descent["objectives"][-1] * (1 - 1e-8)]
    assert any("last objective" in p for p in checks.check_descent(**{**descent, "objectives": th}))


def test_descent_check_rejects_inexact_perturbation(descent):
    (a, bs), rest = descent["perturbed"][0], descent["perturbed"][1:]
    nudged = [(a + 1e-9, bs)] + rest
    found = checks.check_descent(**{**descent, "perturbed": nudged})
    assert any("relative residual" in p for p in found)


def test_descent_check_rejects_unconverged_status(descent):
    found = checks.check_descent(**{**descent, "status": "stagnated", "final_kkt": 1e-3})
    assert any("status" in p for p in found) and any("KKT" in p for p in found)


# --- tracer ------------------------------------------------------------------


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a, as pool threads do
        ["c", 8.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 6.0, 3.0, 3.0, 1.0])


def test_absent_target_is_reported_not_fatal():
    tracer = tracing.Tracer()
    tracer.install([("rmep.mep", "no_such_function", "mep.missing"), ("rmep.mep", "gep", "mep.gep")])
    try:
        import rmep.mep

        assert rmep.mep.gep is not rmep.linalg.gep
    finally:
        tracer.uninstall()
    assert tracer.absent == ["rmep.mep.no_such_function"]
    assert rmep.mep.gep is rmep.linalg.gep
    assert set(tracing.layer_metrics([], 1)) == set(tracing.LAYER_METRICS)


# --- toy-sized end-to-end runs -------------------------------------------------


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sl-n24", "planted-sweep", "alternating-mix"])
def test_toy_run(workload, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--toy"]
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, child.stderr
    spec = _bench_spec()
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert workload in {w["name"] for w in spec["workloads"]}


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "planted-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert child.returncode != 0
    assert child.stdout == ""
