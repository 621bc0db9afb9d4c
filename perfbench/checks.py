"""Correctness checks on what the benchmarked program wrote or returned.

Every check is computed apart from rmep, with numpy and the csv module only,
and returns a list of problems: an empty list means the output passed.  The
tolerances are those of the acceptance gates the workloads come from.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)

SL_ABS_TOL = 1e-8  # gate 1: absolute error against the closed forms
SL_CORRELATION_TOL = 1e-8  # 1 - |<u, sin>| / (|u| |sin|)
PLANTED_EXACT_TOL = 1e-10  # gate 2: mean of per-trial max relative errors at sigma = 0
PLANTED_SIGMA = 0.1
PLANTED_RANGE = (1e-3, 2e-2)  # gate 3: mean relative error at sigma = 0.1
SPECTRUM_RTOL = 1e-8  # numpy reference against solve_complete at sigma = 0
DESCENT_SLACK = 1e2 * EPS  # gate 4: allowed rise theta_{j+1} - theta_j per (1 + theta_j)
KKT_MAX = 1e-4  # gate 4
COST_RTOL = 1e-10
EXACT_RTOL = 1e-12  # residual of the perturbed problem at the returned tuple


def read_csv(path) -> list[dict]:
    """Rows of a CSV artifact as dicts, skipping '#' header lines."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    if not rows:
        return []
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


# --- Sturm-Liouville -------------------------------------------------------


def sl_closed_form(lam: complex, mu: complex):
    """Nearest (i, j) with lambda = (i^2+j^2) pi^2/2 and mu = (j^2-i^2) pi^2/2,
    and the larger absolute error of the two coordinates."""
    pi2 = math.pi**2
    i = max(1, round(math.sqrt(max((lam.real - mu.real) / pi2, 0.0))))
    j = max(1, round(math.sqrt(max((lam.real + mu.real) / pi2, 0.0))))
    err = max(abs(lam - (i * i + j * j) * pi2 / 2), abs(mu - (j * j - i * i) * pi2 / 2))
    return i, j, err


def sine_correlation(t, u, freq: int) -> float:
    """|<sin(freq pi t), u>| / (|sin| |u|): 1 when u is a scaled, phased sine."""
    s = np.sin(freq * np.pi * np.asarray(t, dtype=float))
    u = np.asarray(u, dtype=np.complex128)
    return float(abs(np.vdot(s, u)) / (np.linalg.norm(s) * np.linalg.norm(u)))


def _read_grid(path):
    rows = read_csv(path)
    t = np.array([float(r["t"]) for r in rows])
    u = np.array([complex(float(r["re_u"]), float(r["im_u"])) for r in rows])
    return t, u


def check_sl_output(out_dir) -> list[str]:
    """`rmep ode-sl` artifacts: every written tuple is a distinct closed-form
    eigenvalue, and each of its grids is sin(i pi s) or sin(j pi t)."""
    out_dir = Path(out_dir)
    rows = read_csv(out_dir / "sl_eigenvalues.csv")
    if not rows:
        return ["sl_eigenvalues.csv holds no tuples"]
    problems = []
    seen = set()
    for row in rows:
        j = int(row["j"])
        lam = complex(float(row["re_lambda"]), float(row["im_lambda"]))
        mu = complex(float(row["re_mu"]), float(row["im_mu"]))
        i1, i2, err = sl_closed_form(lam, mu)
        if not err <= SL_ABS_TOL:
            problems.append(f"tuple {j}: lambda={lam}, mu={mu} is {err:.3e} from the closed form ({i1}, {i2})")
        if (i1, i2) in seen:
            problems.append(f"tuple {j}: closed form ({i1}, {i2}) written twice")
        seen.add((i1, i2))
        for eq, freq in ((1, i1), (2, i2)):
            t, u = _read_grid(out_dir / f"sl_u{eq}_{j:02d}.csv")
            corr = sine_correlation(t, u, freq)
            if not corr >= 1.0 - SL_CORRELATION_TOL:
                problems.append(f"tuple {j}: u{eq} correlates {corr:.12f} with sin({freq} pi t)")
    return problems


# --- planted random problems ------------------------------------------------


def check_planted_round(rows: list[dict]) -> list[str]:
    """One `rmep bench-random` bench.csv: the sigma = 0 row recovers the
    planted spectrum exactly and leaves no tuple unmatched."""
    zero = [r for r in rows if float(r["sigma"]) == 0.0]
    if len(zero) != 1:
        return [f"bench.csv has {len(zero)} sigma = 0 rows"]
    row = zero[0]
    problems = []
    for name in [h for h in row if h.startswith("mean_max_rel_err_lambda")]:
        if not float(row[name]) <= PLANTED_EXACT_TOL:
            problems.append(f"sigma = 0: {name} = {row[name]} > {PLANTED_EXACT_TOL:.0e}")
    if float(row["mean_unmatched"]) != 0.0:
        problems.append(f"sigma = 0: mean_unmatched = {row['mean_unmatched']}")
    return problems


def check_planted_trend(rounds: list[list[dict]]) -> list[str]:
    """Mean relative errors over all rounds (equal trials per round) do not
    decrease as sigma grows and lie in gate 3's range at sigma = 0.1."""
    if not rounds:
        return ["no bench.csv rounds to check"]
    columns = [h for h in rounds[0][0] if h.startswith("mean_mean_rel_err_lambda")]
    sigmas = sorted({float(r["sigma"]) for rows in rounds for r in rows})
    problems = []
    for col in columns:
        means = [float(np.mean([float(r[col]) for rows in rounds for r in rows if float(r["sigma"]) == s])) for s in sigmas]
        for s0, s1, a, b in zip(sigmas, sigmas[1:], means, means[1:]):
            if not a <= b:
                problems.append(f"{col} falls from {a:.3e} at sigma={s0} to {b:.3e} at sigma={s1}")
        if PLANTED_SIGMA in sigmas:
            mid = means[sigmas.index(PLANTED_SIGMA)]
            lo, hi = PLANTED_RANGE
            if not lo <= mid <= hi:
                problems.append(f"{col} = {mid:.3e} at sigma={PLANTED_SIGMA}, outside [{lo:.0e}, {hi:.0e}]")
    return problems


def planted_reference_spectrum(blocks):
    """The eigenvalues of a square two-parameter problem, from numpy alone.

    blocks = ((A1, B11, B12), (A2, B21, B22)) for A_i x = lambda B_i1 x + mu B_i2 x.
    With the operator determinants

        D0 = B11 (x) B22 - B12 (x) B21,
        D1 = A1 (x) B22 - B12 (x) A2,
        D2 = B11 (x) A2 - A1 (x) B21,

    the lambdas are the eigenvalues of D0^-1 D1 and the mus those of D0^-1 D2.
    Returns (lambdas, mus), each unordered.
    """
    (a1, b11, b12), (a2, b21, b22) = blocks
    d0 = np.kron(b11, b22) - np.kron(b12, b21)
    d1 = np.kron(a1, b22) - np.kron(b12, a2)
    d2 = np.kron(b11, a2) - np.kron(a1, b21)
    return np.linalg.eigvals(np.linalg.solve(d0, d1)), np.linalg.eigvals(np.linalg.solve(d0, d2))


def _multiset_rel_err(ref, got) -> float:
    """Largest relative error |a-b|/(|a|+|b|) after greedy closest pairing."""
    ref = np.asarray(ref, dtype=np.complex128)
    got = np.asarray(got, dtype=np.complex128)
    scale = np.abs(ref)[:, None] + np.abs(got)[None, :]
    cost = np.abs(ref[:, None] - got[None, :]) / np.where(scale == 0, 1.0, scale)
    used_r = np.zeros(ref.size, bool)
    used_g = np.zeros(got.size, bool)
    worst = 0.0
    for flat in np.argsort(cost, axis=None):
        i, j = divmod(int(flat), got.size)
        if used_r[i] or used_g[j]:
            continue
        used_r[i] = used_g[j] = True
        worst = max(worst, float(cost[i, j]))
    return worst


def compare_spectra(reference, computed) -> list[str]:
    """reference = (lambdas, mus) from `planted_reference_spectrum`; computed
    is an (N, 2) array of (lambda, mu) rows.  Each coordinate must agree as a
    multiset to SPECTRUM_RTOL."""
    computed = np.asarray(computed, dtype=np.complex128).reshape(-1, 2)
    problems = []
    for s, ref in enumerate(reference):
        if ref.size != computed.shape[0]:
            problems.append(f"lambda{s + 1}: {computed.shape[0]} computed values against {ref.size} planted")
            continue
        err = _multiset_rel_err(ref, computed[:, s])
        if not err <= SPECTRUM_RTOL:
            problems.append(f"lambda{s + 1}: relative error {err:.3e} against the numpy spectrum")
    return problems


# --- alternating descent -----------------------------------------------------


def check_descent(blocks, gamma, alphas, vectors, objectives, status, final_kkt, perturbed, perturbed_cost) -> list[str]:
    """One `solve_one` result against the properties the method guarantees.

    blocks and perturbed are sequences of (A_i, (B_i1, ..., B_ik)); the
    returned state is (gamma, alphas, vectors).  The trace must not rise
    beyond gate 4's slack, must end tol-met with KKT <= 1e-4, and the defect
    sum_i |gamma A_i x_i - sum_s alpha_s B_is x_i|^2 must equal the last
    objective, the reported perturbation cost and the recomputed Frobenius
    distance of the perturbed problem, which the tuple solves exactly.
    """
    problems = []
    th = [float(t) for t in objectives]
    rises = [j for j in range(1, len(th)) if th[j] > th[j - 1] + DESCENT_SLACK * (1.0 + th[j - 1])]
    if rises:
        problems.append(f"objective rises at sweep {rises[0] + 1}: {th[rises[0] - 1]!r} -> {th[rises[0]]!r}")
    if status != "tol-met":
        problems.append(f"status {status}")
    if not final_kkt <= KKT_MAX:
        problems.append(f"final KKT {final_kkt:.3e} > {KKT_MAX:.0e}")
    alphas = np.asarray(alphas, dtype=np.complex128)
    defect = 0.0
    distance = 0.0
    worst_exact = 0.0
    lambdas = alphas / gamma if gamma > 0 else None
    for (a, bs), (pa, pbs), x in zip(blocks, perturbed, vectors):
        f = gamma * (a @ x) - sum(al * (b @ x) for al, b in zip(alphas, bs))
        defect += float(np.vdot(f, f).real)
        distance += float(np.linalg.norm(pa - a) ** 2) + sum(float(np.linalg.norm(pb - b) ** 2) for pb, b in zip(pbs, bs))
        if lambdas is not None:
            r = pa @ x - sum(l * (pb @ x) for l, pb in zip(lambdas, pbs))
            scale = np.linalg.norm(pa) + sum(abs(l) * np.linalg.norm(pb) for l, pb in zip(lambdas, pbs))
            worst_exact = max(worst_exact, float(np.linalg.norm(r) / scale))
    for label, value in (("last objective", th[-1]), ("perturbation cost", perturbed_cost), ("perturbation distance", distance)):
        if not abs(value - defect) <= COST_RTOL * max(abs(defect), np.finfo(float).tiny):
            problems.append(f"{label} {value!r} differs from the recomputed defect {defect!r}")
    if lambdas is None:
        problems.append(f"gamma = {gamma!r}: no finite tuple to check against the perturbed problem")
    elif not worst_exact <= EXACT_RTOL:
        problems.append(f"perturbed problem leaves a relative residual {worst_exact:.3e} at the tuple")
    return problems
