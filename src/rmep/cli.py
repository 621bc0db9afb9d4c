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

`_build_parser` declares every option with its type and default, once.  A
JSON file passed with --config supplies defaults for any option of the
subcommand, each key spelled as its flag (max-iters) or with underscores
(max_iters).  Each value is checked against the option's declaration (an
unknown key or a value of the wrong type is a configuration error) and
installed as the subcommand's default before the command line is parsed
again, so explicit flags win.  The seed must be >= 0, and the output
directory is made before any solve.  Every CSV artifact is written by
`_write_csv`, which formats floats with `.17g` (they parse back bitwise);
with --no-timestamp, artifacts are byte-identical across runs for a fixed
seed.  The solvers are called through their modules (`tsvd.solve_complete`,
not a name bound at import), so a tracer that swaps module attributes sees
every call.

Exit codes: 0 success, 2 configuration error, 3 capacity exceeded,
4 irregular multiparameter problem, 5 LAPACK failure (an SVD or QZ that
did not converge).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import alternating, mep, serialization, spectral, tsvd
from .errors import BackendError, CapacityError, DomainError, IrregularMepError, ValidationError
from .model import dehomogenize, pencil_coefficients, random_planted_problem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_IRREGULAR = 4
EXIT_BACKEND = 5


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="rmep", description="Rectangular multiparameter eigenvalue solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, seed=0):
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, help="JSON file with defaults for any option")
        p.add_argument("--seed", type=int, default=seed,
                       help="random seed, >= 0" + (", required" if seed is None else ""))
        p.add_argument("--out", type=Path, default=".", help="output directory")
        p.add_argument("--no-timestamp", action="store_true", help="suppress the timestamp header in artifacts")
        return p

    solve_one = alternating.AlternatingConfig
    p = command("solve-one", _cmd_solve_one, "one approximate eigen-tuple (alternating scheme)", seed=solve_one.seed)
    p.add_argument("input", type=Path, help="problem file (.json or binary)")
    p.add_argument("--max-iters", type=int, default=solve_one.max_iters, help="sweep budget")
    p.add_argument("--rel-tol", type=float, default=solve_one.rel_tol, help="relative objective-change tolerance")
    p.add_argument("--restarts", type=int, default=solve_one.restarts, help="extra runs from random guesses")

    p = command("solve-complete", _cmd_solve_complete, "complete set of approximate eigen-tuples")
    p.add_argument("input", type=Path, help="problem file (.json or binary)")

    p = command("bench-random", _cmd_bench_random, "noise sweep over planted random problems", seed=None)
    p.add_argument("--m", type=int, default=20, help="rows of every block")
    p.add_argument("--n", type=int, default=5, help="columns of every block")
    p.add_argument("--k", type=int, default=2, help="number of parameters")
    p.add_argument("--sigmas", type=str, default="0,0.01,0.05,0.1,0.2", help="comma-separated noise levels")
    p.add_argument("--trials", type=int, default=10, help="planted problems per noise level")

    for name, help, top in [("ode-sl", "built-in Sturm-Liouville system", 10),
                            ("ode-mathieu", "built-in elliptic-membrane Mathieu system", 8)]:
        p = command(name, _cmd_ode, help)
        if name == "ode-mathieu":
            p.add_argument("--alpha", type=float, default=4.0, help="semi-axis of the ellipse along x")
            p.add_argument("--beta", type=float, default=1.0, help="semi-axis of the ellipse along y")
        p.add_argument("--n1", type=int, default=30, help="basis size of the first equation")
        p.add_argument("--n2", type=int, default=30, help="basis size of the second equation")
        p.add_argument("--oversampling", type=int, default=4, help="collocation oversampling factor")
        p.add_argument("--top", type=int, default=top, help="finite tuples written, by ascending rho")
    return parser, sub.choices


def _convert(value, kind, flag: str):
    """kind(value) for a JSON value, or a ValidationError naming the flag.

    A bool or a string is no number, and an integer option takes only an
    int, so a config file's 1.9, "2", "4" or true is rejected rather than
    coerced."""
    accepts, expected = {int: (int, "an integer"), float: ((int, float), "a number"), Path: (str, "a path"),
                         str: (str, "a list of numbers or a comma-separated string")}[kind]
    if isinstance(value, bool) or not isinstance(value, accepts):
        raise ValidationError(f"{flag} expects {expected}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an integer too large for a float
        raise ValidationError(f"{flag} expects {expected}, got {value!r}") from exc


def _config_defaults(path: Path, command: argparse.ArgumentParser, name: str) -> dict:
    """The config file's values by option destination, each checked against
    the option's declaration in `command` and converted as its flag would be.
    --sigmas, the one string option, also takes a list of numbers."""
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: invalid JSON or UTF-8
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValidationError("config file must hold a JSON object")
    options = {a.dest: a for a in command._actions if a.option_strings and a.dest not in ("help", "config")}
    defaults = {}
    for key, value in loaded.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValidationError(f"config file key {key!r} is not an option of {name}")
        flag = action.option_strings[0]
        if action.type is None:  # the store_true switch --no-timestamp
            if not isinstance(value, bool):
                raise ValidationError(f"{flag} expects true or false, got {value!r}")
        elif action.type is str and isinstance(value, list):
            value = [_convert(v, float, flag) for v in value]
        else:
            value = _convert(value, action.type, flag)
        defaults[action.dest] = value
    return defaults


def _output_dir(out: Path) -> Path:
    """`out`, made with its parents if missing; commands call this once,
    after their options are checked and before they solve."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(f"--out {out} cannot be used as the output directory: {exc}") from exc
    return out


def _write_csv(path: Path, no_timestamp: bool, header, rows) -> None:
    """Every CSV artifact: a timestamp comment unless no_timestamp, the
    header, then the rows, each float written as .17g so that it parses
    back bitwise (infinity as inf)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        if not no_timestamp:
            f.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row] for row in rows)


def _tuple_table(complete, stop=None) -> tuple[list, list]:
    """complete_set.csv's header and rows for the first `stop` tuples of a
    `tsvd.CompleteSet` (all by default), from its arrays: j, re/im of each
    lambda_s, gamma, rho, rho_1..rho_k.  An infinite tuple (gamma at or below
    the threshold) shows its raw alphas and rho = inf.  rho and rho_i are the
    stored residuals, so the rho column is the order of the rows."""
    k = complete.problem.k
    header = ["j", *(f"{part}_lambda{s}" for s in range(1, k + 1) for part in ("re", "im")), "gamma", "rho",
              *(f"rho_{i}" for i in range(1, k + 1))]
    # The finite tuples come first, so their values head the alphas.
    values = np.concatenate((complete.lambdas, complete.rows[complete.finite.sum():, 1:]))[:stop]
    rho = np.column_stack((complete.total, complete.rho))[:stop]
    rows = [[j, *(part for v in vals for part in (v.real, v.imag)), gamma, *r]
            for j, (vals, gamma, r) in enumerate(zip(values, complete.rows[:stop, 0].real, rho), start=1)]
    return header, rows


def _load_problem(path: Path):
    if not path.exists():
        raise ValidationError(f"input file {path} does not exist")
    if path.suffix.lower() == ".json":
        return serialization.load_json(path)
    return serialization.load_binary(path)


def _parse_float(text: str, option: str) -> float:
    """float(text), or a ValidationError naming the option it came from."""
    try:
        return float(text)
    except ValueError as exc:
        raise ValidationError(f"--{option} expects a number, got {text!r}") from exc


def _cmd_solve_one(args: argparse.Namespace) -> int:
    cfg = alternating.AlternatingConfig(max_iters=args.max_iters, rel_tol=args.rel_tol, restarts=args.restarts,
                                        seed=args.seed)
    problem = _load_problem(args.input)
    out = _output_dir(args.out)
    tup, pset, trace = alternating.solve_one(problem, cfg)
    _write_csv(out / "trace.csv", args.no_timestamp, ["iter", "theta1", "eps_kkt"],
               [[j, theta, kkt] for j, (theta, kkt) in enumerate(zip(trace.objectives, trace.kkt), start=1)])
    doc = {
        "gamma": tup.value.gamma,
        "alphas": [[a.real, a.imag] for a in tup.value.alphas],
        "lambdas": None,
        "theta": trace.objectives[-1],
        "kkt": trace.final_kkt,
        "status": trace.status,
        "likely_infimum": trace.likely_infimum,
        "iterations": trace.iterations,
        "extrapolations": trace.extrapolations,
        "perturbation_cost": pset.cost,
        "vectors": [[[z.real, z.imag] for z in x] for x in tup.vectors],
    }
    if not trace.likely_infimum:
        lam = dehomogenize(tup.value)
        doc["lambdas"] = [[l.real, l.imag] for l in lam]
        doc["rho"] = tup.residual
    (out / "eigen_tuple.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(f"solve-one: status={trace.status} theta={trace.objectives[-1]:.6e} kkt={trace.final_kkt:.3e}")
    return EXIT_OK


def _cmd_solve_complete(args: argparse.Namespace) -> int:
    problem = _load_problem(args.input)
    out = _output_dir(args.out)
    complete = tsvd.solve_complete(problem, seed=args.seed)
    _write_csv(out / "complete_set.csv", args.no_timestamp, *_tuple_table(complete))
    finite = int(complete.finite.sum())
    best = complete.total[0] if finite else float("nan")
    print(f"solve-complete: {len(complete)} tuples ({finite} finite), best rho = {best:.3e}")
    return EXIT_OK


def _relative_errors(a, b):
    """|a - b| / (|a| + |b|) elementwise, and 0 where a = b = 0.  The moduli
    come from hypot, as abs() of one complex does; numpy's vectorized complex
    abs can differ in the last bit."""
    d = a - b
    scale = np.hypot(a.real, a.imag) + np.hypot(b.real, b.imag)
    return np.hypot(d.real, d.imag) / np.where(scale == 0, 1.0, scale)


def _greedy_match(ref, computed):
    """Pairs minimizing the summed per-component relative error, greedily,
    as the index arrays (into ref, into computed)."""
    nref, ncomp = len(ref), len(computed)
    cost = sum(_relative_errors(ref[:, None, s], computed[None, :, s]) for s in range(ref.shape[1]))
    used_r = np.zeros(nref, bool)
    used_c = np.zeros(ncomp, bool)
    pairs = []
    for flat in np.argsort(cost, axis=None):
        i, j = divmod(int(flat), ncomp)
        if used_r[i] or used_c[j]:
            continue
        used_r[i] = used_c[j] = True
        pairs.append((i, j))
        if len(pairs) == min(nref, ncomp):
            break
    return np.array(pairs, dtype=int).reshape(-1, 2).T


def _bench_trial(m: int, n: int, k: int, sigma: float, child_seed) -> dict:
    problem, reference = random_planted_problem([m] * k, [n] * k, sigma, child_seed)
    solver_seed = int(child_seed.generate_state(1)[0])
    # The reference needs only values, so no vectors are computed for it.
    finite, c = pencil_coefficients(mep.solve_from_determinants(mep.operator_determinants(reference), seed=solver_seed))
    ref_vals = -c[finite, 1:]
    comp_vals = tsvd.solve_complete(problem, seed=solver_seed).lambdas
    ref_idx, comp_idx = _greedy_match(ref_vals, comp_vals)
    errs = _relative_errors(ref_vals[ref_idx], comp_vals[comp_idx])
    total = n**k
    return {
        "max": errs.max(axis=0),
        "min": errs.min(axis=0),
        "mean": errs.mean(axis=0),
        "unmatched": total - len(ref_idx),
    }


def _cmd_bench_random(args: argparse.Namespace) -> int:
    sigmas = args.sigmas
    if isinstance(sigmas, str):  # not a config file's list of numbers
        sigmas = [_parse_float(s, "sigmas") for s in sigmas.split(",") if s.strip() != ""]
    if not sigmas:
        raise ValidationError("bench-random needs at least one noise level in --sigmas")
    for sigma in sigmas:
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ValidationError(f"--sigmas must be finite and nonnegative, got {sigma}")
    if args.trials < 1:
        raise ValidationError(f"bench-random needs --trials >= 1, got {args.trials}")
    out = _output_dir(args.out)
    m, n, k, trials = args.m, args.n, args.k, args.trials
    rows = []
    for sigma in sigmas:
        children = np.random.SeedSequence(args.seed).spawn(trials)
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
    _write_csv(out / "bench.csv", args.no_timestamp, list(rows[0]), [list(row.values()) for row in rows])
    return EXIT_OK


def _cmd_ode(args: argparse.Namespace) -> int:
    mathieu = args.command == "ode-mathieu"
    if args.top < 1:
        raise ValidationError(f"{args.command} needs --top >= 1, got {args.top}")
    if mathieu:
        try:
            h, _ = spectral.mathieu_geometry(args.alpha, args.beta)
        except DomainError as exc:  # a bad geometry is a bad option, not a solver fault
            raise ValidationError(str(exc)) from exc
        spec = spectral.builtin_mathieu(args.alpha, args.beta, n1=args.n1, n2=args.n2, oversampling=args.oversampling)
    else:
        spec = spectral.builtin_sturm_liouville(n1=args.n1, n2=args.n2, oversampling=args.oversampling)
    out = _output_dir(args.out)
    disc = spectral.discretize(spec)
    complete = tsvd.solve_complete(disc.problem, seed=args.seed)
    # The finite tuples come first; only the written ones get vectors.
    finite = complete[: min(args.top, int(complete.finite.sum()))]
    name = "mathieu" if mathieu else "sl"
    # complete_set.csv's columns for (lambda, mu), then the continuous defects.
    header, rows = _tuple_table(complete, len(finite))
    header[1:5] = ["re_lambda", "im_lambda", "re_mu", "im_mu"]
    header += ["varsigma_1", "varsigma_2", "varsigma"]
    for row, defects in zip(rows, spectral.continuous_residuals(spec, disc.bases, finite)):
        row += defects
    if mathieu:
        header += ["re_omega", "im_omega"]
        for row, tup in zip(rows, finite):
            omega = 2.0 * np.sqrt(complex(dehomogenize(tup.value)[1])) / h
            row += [omega.real, omega.imag]
    _write_csv(out / f"{name}_eigenvalues.csv", args.no_timestamp, header, rows)
    for j, tup in enumerate(finite, start=1):
        for i, (basis, x) in enumerate(zip(disc.bases, tup.vectors), start=1):
            t, u = spectral.sample_eigenfunction(basis, x)
            _write_csv(out / f"{name}_u{i}_{j:02d}.csv", args.no_timestamp, ["t", "re_u", "im_u"],
                       zip(t, u.real, u.imag))
        if mathieu:
            x, y, psi = spectral.elliptic_mode_grid(args.alpha, args.beta, disc.bases, tup)
            _write_csv(out / f"{name}_mode_{j:02d}.csv", args.no_timestamp, ["x", "y", "psi_re", "psi_im"],
                       zip(x, y, psi.real, psi.imag))
    if finite:
        lam, mu = dehomogenize(finite[0].value)
        print(f"ode-{name}: best tuple lambda={lam.real:.6f} mu={mu.real:.6f} rho={finite[0].residual:.3e}")
    return EXIT_OK


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            command = commands[args.command]
            command.set_defaults(**_config_defaults(args.config, command, args.command))
            args = parser.parse_args(argv)
        if args.seed is None:
            raise ValidationError(f"{args.command} requires a seed (--seed or config)")
        if args.seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except IrregularMepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IRREGULAR
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
