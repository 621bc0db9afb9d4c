"""Batch command-line front end.

Subcommands
-----------
solve-one      one approximate eigen-tuple of a problem file (alternating
               scheme); writes trace.csv and eigen_tuple.json.
solve-complete all N approximate eigen-tuples via the truncated-SVD
               reduction; writes complete_set.csv.
bench-random   seeded sweep over noise levels of planted random problems;
               writes bench.csv with matched relative-error statistics.
ode-sl         built-in coupled Sturm-Liouville system; writes an eigenvalue
               table and eigenfunction grids.
ode-mathieu    built-in elliptic-membrane (Mathieu) system; additionally
               writes eigenfrequencies and (x, y, psi) mode grids.

A JSON file passed with --config supplies defaults for any option of the
subcommand, each key spelled as its flag (max-iters) or with underscores
(max_iters); an unknown key is a configuration error.  Explicit flags win.
With --no-timestamp, artifacts are byte-identical across runs for a fixed
seed.  RMEP_BACKEND_THREADS caps the linear-algebra backend's
thread count (it must be set before the backend is first loaded, which this
module guarantees by importing the numerical stack lazily).

Exit codes: 0 success, 2 configuration error, 3 capacity exceeded,
4 irregular multiparameter problem.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_IRREGULAR = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_thread_cap():
    cap = os.environ.get("RMEP_BACKEND_THREADS")
    if not cap:
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmep", description="Rectangular multiparameter eigenvalue solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON file with defaults for any option")
        p.add_argument("--seed", type=int, help="random seed (required for bench-random)")
        p.add_argument("--out", type=Path, help="output directory (default: current directory)")
        p.add_argument("--no-timestamp", action="store_true", help="suppress the timestamp header in artifacts")

    p = sub.add_parser("solve-one", help="one approximate eigen-tuple (alternating scheme)")
    p.add_argument("input", type=Path, help="problem file (.json or binary)")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--rel-tol", type=float)
    p.add_argument("--restarts", type=int)
    common(p)

    p = sub.add_parser("solve-complete", help="complete set of approximate eigen-tuples")
    p.add_argument("input", type=Path, help="problem file (.json or binary)")
    common(p)

    p = sub.add_parser("bench-random", help="noise sweep over planted random problems")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sigmas", type=str, help="comma-separated noise levels")
    p.add_argument("--trials", type=int)
    common(p)

    p = sub.add_parser("ode-sl", help="built-in Sturm-Liouville system")
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--oversampling", type=int)
    p.add_argument("--top", type=int)
    common(p)

    p = sub.add_parser("ode-mathieu", help="built-in elliptic-membrane Mathieu system")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--oversampling", type=int)
    p.add_argument("--top", type=int)
    common(p)
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    from .errors import ValidationError

    options = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: invalid JSON or UTF-8
            raise ValidationError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        known = set(vars(args)) - {"command", "config"}
        for key, value in loaded.items():
            name = key.replace("-", "_")
            if name not in known:
                raise ValidationError(f"config file key {key!r} is not an option of {args.command}")
            options[name] = value
    for key, value in vars(args).items():
        if key != "config" and value is not None and value is not False:
            options[key] = value
    options.setdefault("out", Path("."))
    options["out"] = Path(options["out"])
    return options


@contextmanager
def _artifact(path: Path, no_timestamp: bool):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        if not no_timestamp:
            f.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        yield f


def _load_problem(path: Path):
    from . import serialization
    from .errors import ValidationError

    if not path.exists():
        raise ValidationError(f"input file {path} does not exist")
    if path.suffix.lower() == ".json":
        return serialization.load_json(path)
    return serialization.load_binary(path)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _convert(value, kind, option: str):
    """kind(value), or a ValidationError naming the option it came from."""
    from .errors import ValidationError

    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        expected = "an integer" if kind is int else "a number"
        raise ValidationError(f"--{option} expects {expected}, got {value!r}") from exc


def _option(opt: dict, key: str, kind, default):
    """The option `key` (or its default) as `kind`."""
    return _convert(opt.get(key, default), kind, key.replace("_", "-"))


def _cmd_solve_one(opt: dict) -> int:
    from .alternating import AlternatingConfig, solve_one, write_trace_csv
    from .model import dehomogenize

    problem = _load_problem(Path(opt["input"]))
    cfg = AlternatingConfig(
        max_iters=_option(opt, "max_iters", int, 1000),
        rel_tol=_option(opt, "rel_tol", float, 1e-6),
        restarts=_option(opt, "restarts", int, 0),
        seed=_option(opt, "seed", int, 0),
    )
    tup, pset, trace = solve_one(problem, cfg)
    out = opt["out"]
    stamp = bool(opt.get("no_timestamp"))
    with _artifact(out / "trace.csv", stamp) as f:
        write_trace_csv(trace, f)
    doc = {
        "gamma": tup.value.gamma,
        "alphas": [[a.real, a.imag] for a in tup.value.alphas],
        "lambdas": None,
        "theta": trace.objectives[-1],
        "kkt": trace.final_kkt,
        "status": trace.status,
        "likely_infimum": trace.likely_infimum,
        "iterations": trace.iterations,
        "perturbation_cost": pset.cost,
        "vectors": [[[z.real, z.imag] for z in x] for x in tup.vectors],
    }
    if not trace.likely_infimum:
        lam = dehomogenize(tup.value)
        doc["lambdas"] = [[l.real, l.imag] for l in lam]
        doc["rho"] = tup.residual
    (out / "eigen_tuple.json").parent.mkdir(parents=True, exist_ok=True)
    (out / "eigen_tuple.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(f"solve-one: status={trace.status} theta={trace.objectives[-1]:.6e} kkt={trace.final_kkt:.3e}")
    return EXIT_OK


def _cmd_solve_complete(opt: dict) -> int:
    from .tsvd import solve_complete, write_complete_csv

    problem = _load_problem(Path(opt["input"]))
    tuples = solve_complete(problem, seed=_option(opt, "seed", int, 0))
    with _artifact(opt["out"] / "complete_set.csv", bool(opt.get("no_timestamp"))) as f:
        write_complete_csv(problem, tuples, f)
    finite = sum(1 for t in tuples if t.residual is not None)
    best = next((t.residual for t in tuples if t.residual is not None), float("nan"))
    print(f"solve-complete: {len(tuples)} tuples ({finite} finite), best rho = {best:.3e}")
    return EXIT_OK


def _relative_error(a: complex, b: complex) -> float:
    s = abs(a) + abs(b)
    return 0.0 if s == 0 else abs(a - b) / s


def _greedy_match(ref, computed):
    """Pairs minimizing the summed per-component relative error, greedily."""
    import numpy as np

    nref, ncomp = len(ref), len(computed)
    k = ref.shape[1]
    cost = np.zeros((nref, ncomp))
    for s in range(k):
        aa = np.abs(ref[:, s][:, None] - computed[:, s][None, :])
        ss = np.abs(ref[:, s])[:, None] + np.abs(computed[:, s])[None, :]
        with np.errstate(invalid="ignore"):
            cost += np.where(ss == 0, 0.0, aa / ss)
    order = np.argsort(cost, axis=None)
    used_r = np.zeros(nref, bool)
    used_c = np.zeros(ncomp, bool)
    pairs = []
    for flat in order:
        i, j = divmod(int(flat), ncomp)
        if used_r[i] or used_c[j]:
            continue
        used_r[i] = used_c[j] = True
        pairs.append((i, j))
        if len(pairs) == min(nref, ncomp):
            break
    return pairs


def _bench_trial(m: int, n: int, k: int, sigma: float, child_seed) -> dict:
    import numpy as np

    from . import mep
    from .model import HomogeneousEigenvalue, dehomogenize, random_planted_problem
    from .tsvd import solve_complete

    problem, reference = random_planted_problem([m] * k, [n] * k, sigma, child_seed)
    solver_seed = int(child_seed.generate_state(1)[0])
    # The reference needs only values, so no vectors are computed for it.
    coords = mep.solve_from_determinants(mep.operator_determinants(reference), seed=solver_seed)
    ref_vals = [dehomogenize(v) for v in map(HomogeneousEigenvalue.from_vector, coords) if v.is_finite()]
    comp_vals = [dehomogenize(t.value) for t in solve_complete(problem, seed=solver_seed) if t.value.is_finite()]
    ref_vals = np.array(ref_vals).reshape(-1, k)
    comp_vals = np.array(comp_vals).reshape(-1, k)
    pairs = _greedy_match(ref_vals, comp_vals)
    errs = np.array([[_relative_error(ref_vals[i, s], comp_vals[j, s]) for s in range(k)] for i, j in pairs])
    total = n**k
    return {
        "max": errs.max(axis=0),
        "min": errs.min(axis=0),
        "mean": errs.mean(axis=0),
        "unmatched": total - len(pairs),
    }


def _cmd_bench_random(opt: dict) -> int:
    import numpy as np

    from .errors import ValidationError

    if "seed" not in opt:
        raise ValidationError("bench-random requires a seed (--seed or config)")
    m = _option(opt, "m", int, 20)
    n = _option(opt, "n", int, 5)
    k = _option(opt, "k", int, 2)
    trials = _option(opt, "trials", int, 10)
    sigmas_opt = opt.get("sigmas", "0,0.01,0.05,0.1,0.2")
    if isinstance(sigmas_opt, str):
        sigmas_opt = [s for s in sigmas_opt.split(",") if s.strip() != ""]
    sigmas = [_convert(s, float, "sigmas") for s in sigmas_opt]
    if not sigmas:
        raise ValidationError("bench-random needs at least one noise level in --sigmas")
    if trials < 1:
        raise ValidationError(f"bench-random needs --trials >= 1, got {trials}")
    seed = _option(opt, "seed", int, None)
    rows = []
    for sigma in sigmas:
        children = np.random.SeedSequence(seed).spawn(trials)
        # Serial: the per-trial work is Python holding the interpreter lock.
        stats = [_bench_trial(m, n, k, sigma, c) for c in children]
        row = {"sigma": sigma, "trials": trials}
        for s in range(k):
            row[f"mean_max_rel_err_lambda{s + 1}"] = float(np.mean([st["max"][s] for st in stats]))
            row[f"mean_min_rel_err_lambda{s + 1}"] = float(np.mean([st["min"][s] for st in stats]))
            row[f"mean_mean_rel_err_lambda{s + 1}"] = float(np.mean([st["mean"][s] for st in stats]))
        row["mean_unmatched"] = float(np.mean([st["unmatched"] for st in stats]))
        rows.append(row)
        print(f"bench-random: sigma={sigma} mean-of-mean={row['mean_mean_rel_err_lambda1']:.4e}")
    with _artifact(opt["out"] / "bench.csv", bool(opt.get("no_timestamp"))) as f:
        writer = csv.writer(f)
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([row["trials"] if h == "trials" else _fmt(row[h]) if isinstance(row[h], float) else row[h] for h in header])
    return EXIT_OK


def _write_function_grid(path: Path, stamp: bool, t, u):
    with _artifact(path, stamp) as f:
        writer = csv.writer(f)
        writer.writerow(["t", "re_u", "im_u"])
        for ti, ui in zip(t, u):
            writer.writerow([_fmt(float(ti)), _fmt(ui.real), _fmt(ui.imag)])


def _cmd_ode(opt: dict, mathieu: bool) -> int:
    import numpy as np

    from .errors import ValidationError
    from .model import dehomogenize, normalized_residual
    from .spectral import (
        builtin_mathieu,
        builtin_sturm_liouville,
        continuous_residual,
        discretize,
        elliptic_mode_grid,
        mathieu_geometry,
        sample_eigenfunction,
    )
    from .tsvd import solve_complete

    n1 = _option(opt, "n1", int, 30)
    n2 = _option(opt, "n2", int, 30)
    oversampling = _option(opt, "oversampling", int, 4)
    top = _option(opt, "top", int, 8 if mathieu else 10)
    if top < 1:
        raise ValidationError(f"ode-{'mathieu' if mathieu else 'sl'} needs --top >= 1, got {top}")
    if mathieu:
        alpha = _option(opt, "alpha", float, 4.0)
        beta = _option(opt, "beta", float, 1.0)
        spec = builtin_mathieu(alpha, beta, n1=n1, n2=n2, oversampling=oversampling)
        h, _ = mathieu_geometry(alpha, beta)
    else:
        spec = builtin_sturm_liouville(n1=n1, n2=n2, oversampling=oversampling)
    disc = discretize(spec)
    tuples = solve_complete(disc.problem, seed=_option(opt, "seed", int, 0))
    finite = [t for t in tuples if t.residual is not None][:top]
    out = opt["out"]
    stamp = bool(opt.get("no_timestamp"))
    name = "mathieu" if mathieu else "sl"
    with _artifact(out / f"{name}_eigenvalues.csv", stamp) as f:
        writer = csv.writer(f)
        header = ["j", "re_lambda", "im_lambda", "re_mu", "im_mu", "gamma", "rho", "rho_1", "rho_2",
                  "varsigma_1", "varsigma_2", "varsigma"]
        if mathieu:
            header += ["re_omega", "im_omega"]
        writer.writerow(header)
        for j, tup in enumerate(finite, start=1):
            lam, mu = dehomogenize(tup.value)
            per_block, rho = normalized_residual(disc.problem, tup)
            s1, s2, s_total = continuous_residual(spec, disc.bases, tup)
            row = [j, _fmt(lam.real), _fmt(lam.imag), _fmt(mu.real), _fmt(mu.imag),
                   _fmt(tup.value.gamma), _fmt(rho), _fmt(per_block[0]), _fmt(per_block[1]),
                   _fmt(s1), _fmt(s2), _fmt(s_total)]
            if mathieu:
                omega = 2.0 * np.sqrt(complex(mu)) / h
                row += [_fmt(omega.real), _fmt(omega.imag)]
            writer.writerow(row)
    for j, tup in enumerate(finite, start=1):
        t1, u1 = sample_eigenfunction(disc.bases[0], tup.vectors[0])
        t2, u2 = sample_eigenfunction(disc.bases[1], tup.vectors[1])
        _write_function_grid(out / f"{name}_u1_{j:02d}.csv", stamp, t1, u1)
        _write_function_grid(out / f"{name}_u2_{j:02d}.csv", stamp, t2, u2)
        if mathieu:
            x, y, psi = elliptic_mode_grid(alpha, beta, disc.bases, tup)
            with _artifact(out / f"{name}_mode_{j:02d}.csv", stamp) as f:
                writer = csv.writer(f)
                writer.writerow(["x", "y", "psi_re", "psi_im"])
                for xi, yi, pi in zip(x, y, psi):
                    writer.writerow([_fmt(float(xi)), _fmt(float(yi)), _fmt(pi.real), _fmt(pi.imag)])
    best = finite[0] if finite else None
    if best is not None:
        lam, mu = dehomogenize(best.value)
        print(f"ode-{name}: best tuple lambda={lam.real:.6f} mu={mu.real:.6f} rho={best.residual:.3e}")
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    opt = _merge_options(args)
    command = args.command
    if command == "solve-one":
        return _cmd_solve_one(opt)
    if command == "solve-complete":
        return _cmd_solve_complete(opt)
    if command == "bench-random":
        return _cmd_bench_random(opt)
    if command == "ode-sl":
        return _cmd_ode(opt, mathieu=False)
    if command == "ode-mathieu":
        return _cmd_ode(opt, mathieu=True)
    raise AssertionError(f"unhandled command {command}")


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    from .errors import CapacityError, IrregularMepError, ValidationError

    try:
        return run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except IrregularMepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IRREGULAR


if __name__ == "__main__":
    sys.exit(main())
