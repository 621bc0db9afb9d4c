"""The benchmark's workloads.

Constructing a workload is its set-up: it warms the code paths the workload
uses on a toy input (the first LAPACK calls, the CLI's lazy imports) and
makes the inputs from the seed.  `run_round(index)` then runs one round of
operations, times only the calls into rmep, and checks their outputs
outside the timed calls.  Every round of a workload attempts the same
operations.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import rmep.alternating
import rmep.cli
import rmep.model
import rmep.tsvd


def _timed_cli(argv):
    """rmep's CLI in this process, its stdout discarded: (exit code 0, seconds)."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ok = rmep.cli.main(argv) == 0
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return ok, time.perf_counter() - start


class Workload:
    name = ""
    min_rounds = 1

    @staticmethod
    def round_seconds(rounds) -> float:
        """The workload's round_s: the median round."""
        return statistics.median(r["seconds"] for r in rounds)

    def final_checks(self) -> list[str]:
        """Checks over the whole run, made after the timed rounds."""
        return []


class SturmLiouville(Workload):
    """`rmep ode-sl` at n1 = n2 = 24: discretize, a complete solve of the
    576x576 lifted pencil, and the eigenvalue table and grids.

    At n = 30, the paper's size, one solve takes 23 to 37 s on 2 cores, so a
    run could time one solve only and would report the machine's speed in
    that window; at n = 24 a run takes the median of five or more 7 s
    solves made of the same stages."""

    name = "sl-n24"
    min_rounds = 5

    def __init__(self, seed: int, out: Path, toy: bool = False):
        self.n = 18 if toy else 24
        self.seed = seed
        self.out = out / "ode-sl"
        _timed_cli(self._argv(12, out / "warmup"))

    def _argv(self, n, out):
        return ["ode-sl", "--n1", str(n), "--n2", str(n), "--seed", str(self.seed), "--out", str(out), "--no-timestamp"]

    def run_round(self, index: int) -> dict:
        ok, seconds = _timed_cli(self._argv(self.n, self.out))
        return {
            "attempted": 1,
            "failed": 0 if ok else 1,
            "seconds": seconds,
            "problems": checks.check_sl_output(self.out) if ok else [],
        }


class PlantedSweep(Workload):
    """`rmep bench-random --m 20 --n 5 --k 2` over gate 3's noise levels.
    One round is one CLI run of `trials` trials per sigma; every trial is
    one operation."""

    name = "planted-sweep"
    SIGMAS = "0,0.01,0.05,0.1,0.2"
    SPOT_CHECKS = 3

    def __init__(self, seed: int, out: Path, toy: bool = False):
        self.trials = 2 if toy else 10
        self.seed = seed
        self.out = out / "bench-random"
        self.sigmas = [float(s) for s in self.SIGMAS.split(",")]
        self.rows = []
        _timed_cli(["bench-random", "--m", "20", "--n", "5", "--k", "2", "--sigmas", "0", "--trials", "1",
                    "--seed", str(seed), "--out", str(out / "warmup"), "--no-timestamp"])

    def round_seed(self, index: int) -> int:
        return self.seed * 100_000 + index

    def run_round(self, index: int) -> dict:
        ok, seconds = _timed_cli(["bench-random", "--m", "20", "--n", "5", "--k", "2", "--sigmas", self.SIGMAS,
                                  "--trials", str(self.trials), "--seed", str(self.round_seed(index)),
                                  "--out", str(self.out), "--no-timestamp"])
        attempted = self.trials * len(self.sigmas)
        problems = []
        if ok:
            rows = checks.read_csv(self.out / "bench.csv")
            self.rows.append(rows)
            problems = checks.check_planted_round(rows)
        return {"attempted": attempted, "failed": 0 if ok else attempted, "seconds": seconds, "problems": problems}

    def _trial_seeds(self, index: int):
        """The SeedSequence children bench-random gives round `index`'s trials."""
        return np.random.SeedSequence(self.round_seed(index)).spawn(self.trials)

    def final_checks(self) -> list[str]:
        """Gate 3's trend over every round, and a numpy-only recomputation of
        the planted spectra of round 0's first sigma = 0 trials."""
        problems = checks.check_planted_trend(self.rows)
        for child in self._trial_seeds(0)[: self.SPOT_CHECKS]:
            problem, reference = rmep.model.random_planted_problem([20, 20], [5, 5], 0.0, child)
            planted = checks.planted_reference_spectrum([(b.a, *b.b) for b in reference.blocks])
            computed = [rmep.model.dehomogenize(t.value) for t in rmep.tsvd.solve_complete(problem) if t.residual is not None]
            problems += checks.compare_spectra(planted, computed)
        return problems

    def serial_reference(self, index: int) -> float:
        """Seconds per trial when round `index`'s trials run one after another."""
        children = self._trial_seeds(index)
        start = time.perf_counter()
        for sigma in self.sigmas:
            for child in children:
                rmep.cli._bench_trial(20, 5, 2, sigma, child)
        return (time.perf_counter() - start) / (len(self.sigmas) * len(children))


# Acceptance gate 4's problem stream: seed, then one size per problem.
GATE4_SEED = 20240601
GATE4_SIZES = (
    [(20, 15)] * 30 + [(40, 32)] * 25 + [(60, 50)] * 15 + [(90, 80)] * 15
    + [(130, 120)] * 8 + [(170, 160)] * 5 + [(200, 190)] * 2
)


def _crandn(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def gate4_problems(positions):
    """{position: problem} for gate 4's seeded complex Gaussian k = 2 problems."""
    rng = np.random.default_rng(GATE4_SEED)
    out = {}
    for index, (m, n) in enumerate(GATE4_SIZES):
        sub = np.random.default_rng(rng.integers(2**63))
        if index in positions:
            blocks = []
            for _ in range(2):
                a = _crandn(sub, m, n)
                bs = tuple(_crandn(sub, m, n) for _ in range(2))
                blocks.append(rmep.model.EquationBlock(a=a, b=bs))
            out[index] = rmep.model.RmepProblem(blocks=tuple(blocks))
    return out


class AlternatingMix(Workload):
    """`solve_one` on a fixed set of gate 4's problems from 20x15 to
    200x190: 20 up to 60x50, where pencil rebuilds and the KKT check weigh
    as much as the SVDs, and one each of 90x80, 130x120 and 200x190, where
    full SVDs dominate.  One round is one pass over the set (about 11 s on 2
    cores), and round_s sums each problem's median time over the passes, so
    that a burst of machine noise during one pass does not move it.

    The set does not depend on the seed: sweep counts of same-sized random
    problems range over an order of magnitude (26 to 221 at 20x15), so a
    drawn set would time the draw.  The seed fixes the order of each pass.
    """

    name = "alternating-mix"
    POSITIONS = tuple(range(0, 10)) + tuple(range(30, 36)) + tuple(range(55, 59)) + (73, 88, 99)
    TOY_POSITIONS = (0, 30, 84)
    min_rounds = 3

    def __init__(self, seed: int, out: Path, toy: bool = False):
        positions = self.TOY_POSITIONS if toy else self.POSITIONS
        problems = gate4_problems(positions)
        order = np.random.default_rng(seed).permutation(len(positions))
        self.problems = [problems[positions[i]] for i in order]
        # The first multithreaded BLAS calls at a new size are slow; warm both ends.
        for p in (problems[min(positions)], problems[max(positions)]):
            rmep.alternating.solve_one(p, rmep.alternating.AlternatingConfig(max_iters=5))

    def run_round(self, index: int) -> dict:
        op_seconds = []
        failed = 0
        problems = []
        for p in self.problems:
            start = time.perf_counter()
            try:
                tup, pset, trace = rmep.alternating.solve_one(p, rmep.alternating.AlternatingConfig())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            finally:
                op_seconds.append(time.perf_counter() - start)
            found = checks.check_descent(
                [(b.a, b.b) for b in p.blocks], tup.value.gamma, tup.value.alphas, tup.vectors,
                trace.objectives, trace.status, trace.final_kkt, [(b.a, b.b) for b in pset.blocks], pset.cost,
            )
            problems += [f"{p.shapes[0]}: {msg}" for msg in found]
        return {"attempted": len(self.problems), "failed": failed, "seconds": sum(op_seconds),
                "op_seconds": op_seconds, "problems": problems}

    @staticmethod
    def round_seconds(rounds) -> float:
        return sum(statistics.median(times) for times in zip(*(r["op_seconds"] for r in rounds)))


WORKLOADS = {w.name: w for w in (SturmLiouville, PlantedSweep, AlternatingMix)}
