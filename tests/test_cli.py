import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmep.alternating
import rmep.cli
import rmep.errors
import rmep.linalg
import rmep.mep
import rmep.spectral
import rmep.tsvd
from rmep.cli import _build_parser, _relative_errors, main
from rmep.model import EquationBlock, MepProblem, RmepProblem, dehomogenize, random_planted_problem
from rmep.serialization import save_binary, save_json, to_json_dict

from conftest import shared_b_problem

COMMANDS = _build_parser()[1]
# Every option a config file may set, as (subcommand, argparse action).
OPTIONS = [(name, a) for name, command in COMMANDS.items() for a in command._actions
           if a.option_strings and a.dest not in ("help", "config")]
OPTION_IDS = [f"{name}{a.option_strings[0]}" for name, a in OPTIONS]


def read_csv(path):
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(line for line in f if not line.startswith("#"))]
    header, data = rows[0], rows[1:]
    return header, data


def spy(monkeypatch, module, name):
    """Wrap module.name; the returned list collects the wrapper's results."""
    results = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


def bits(values):
    """Exact bit patterns of floats (or of the strings that spell them)."""
    return [float(v).hex() for v in values]


def tuple_fields(tup, k):
    """The float fields of one tuple's complete_set.csv row after j: re/im of
    each lambda_s (of each raw alpha_s when infinite), gamma, rho and
    rho_1..rho_k (inf when infinite)."""
    if tup.residual is None:
        return [x for a in tup.value.alphas for x in (a.real, a.imag)] + [tup.value.gamma] + [np.inf] * (k + 1)
    lambdas = [x for lam in dehomogenize(tup.value) for x in (lam.real, lam.imag)]
    return lambdas + [tup.value.gamma, tup.residual, *tup.block_residuals]


def test_solve_one_artifacts(tmp_path, monkeypatch):
    p, _ = random_planted_problem([8, 8], [3, 3], 0.0, seed=1)
    inp = tmp_path / "problem.json"
    save_json(p, inp)
    runs = spy(monkeypatch, rmep.alternating, "solve_one")
    # a tight KKT tolerance runs on to the roundoff floor of a consistent problem
    rc = main(["solve-one", str(inp), "--kkt-tol", "1e-10", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    header, data = read_csv(tmp_path / "trace.csv")
    assert header == ["iter", "theta1", "eps_kkt"]
    assert float(data[-1][1]) <= 1e-12  # consistent problem: final theta tiny
    # every float field parses back to the trace bitwise
    ((_, _, trace),) = runs
    assert [r[0] for r in data] == [str(j) for j in range(1, trace.iterations + 1)]
    assert bits(r[1] for r in data) == bits(trace.objectives)
    assert bits(r[2] for r in data) == bits(trace.kkt)
    doc = json.loads((tmp_path / "eigen_tuple.json").read_text())
    assert doc["status"] in ("tol-met", "budget-exhausted")
    assert doc["lambdas"] is not None


def test_trace_csv(tmp_path, monkeypatch):
    p = RmepProblem(blocks=(EquationBlock(a=[[2.0], [0.0]], b=([[1.0], [0.0]],)),))
    save_json(p, tmp_path / "p.json")
    runs = spy(monkeypatch, rmep.alternating, "solve_one")
    assert main(["solve-one", str(tmp_path / "p.json"), "--out", str(tmp_path), "--no-timestamp"]) == 0
    ((_, _, trace),) = runs
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,theta1,eps_kkt"
    assert len(lines) == 1 + trace.iterations


def test_solve_complete_binary_input(tmp_path):
    p, _ = random_planted_problem([10, 10], [3, 3], 0.0, seed=2)
    inp = tmp_path / "problem.bin"
    save_binary(p, inp)
    rc = main(["solve-complete", str(inp), "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    header, data = read_csv(tmp_path / "complete_set.csv")
    assert len(data) == 9
    assert float(data[0][header.index("rho")]) <= 1e-10


@pytest.mark.parametrize("save, name", [(save_json, "sl.json"), (save_binary, "sl.bin")])
def test_solve_complete_on_saved_real_problem_matches_in_memory(tmp_path, save, name):
    # The saved problem loads back real, so the file gives the same artifact.
    p = rmep.spectral.discretize(rmep.spectral.builtin_sturm_liouville(n1=6, n2=6)).problem
    save(p, tmp_path / name)
    assert main(["solve-complete", str(tmp_path / name), "--out", str(tmp_path), "--no-timestamp"]) == 0
    _, data = read_csv(tmp_path / "complete_set.csv")
    tuples = rmep.tsvd.solve_complete(p, seed=0)
    assert [r[0] for r in data] == [str(j) for j in range(1, len(tuples) + 1)]
    for row, t in zip(data, tuples, strict=True):
        assert bits(row[1:]) == bits(tuple_fields(t, p.k))


def solve_complete_csv(tmp_path, problem):
    """complete_set.csv's header and rows for `problem` saved as JSON."""
    save_json(problem, tmp_path / "p.json")
    assert main(["solve-complete", str(tmp_path / "p.json"), "--out", str(tmp_path), "--no-timestamp"]) == 0
    return read_csv(tmp_path / "complete_set.csv")


def test_complete_csv_export(tmp_path):
    p, _ = random_planted_problem([10, 10], [2, 2], 0.0, seed=15)
    solve_complete_csv(tmp_path, p)
    lines = (tmp_path / "complete_set.csv").read_text().strip().splitlines()
    assert lines[0] == "j,re_lambda1,im_lambda1,re_lambda2,im_lambda2,gamma,rho,rho_1,rho_2"
    assert len(lines) == 1 + 4


def test_complete_csv_rho_is_the_stored_sort_key(tmp_path, monkeypatch):
    p, _ = random_planted_problem([14, 14, 14], [3, 2, 2], 0.05, seed=18)
    solves = spy(monkeypatch, rmep.tsvd, "solve_complete")
    header, data = solve_complete_csv(tmp_path, p)
    (tuples,) = solves
    rho_col = header.index("rho")
    rhos = [float(r[rho_col]) for r in data]
    assert rhos == sorted(rhos)
    for row, t in zip(data, tuples, strict=True):
        assert float(row[rho_col]) == t.residual == sum(t.block_residuals)
        assert [float(v) for v in row[rho_col + 1:]] == list(t.block_residuals)


def test_complete_csv_infinite_rows_carry_raw_alphas(tmp_path, monkeypatch):
    solves = spy(monkeypatch, rmep.tsvd, "solve_complete")
    _, rows = solve_complete_csv(tmp_path, shared_b_problem())
    (tuples,) = solves
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    for row, t in zip(rows[2:], tuples[2:]):
        alphas = [complex(float(row[1 + 2 * s]), float(row[2 + 2 * s])) for s in range(2)]
        assert alphas == list(t.value.alphas)
        assert float(row[5]) == t.value.gamma
        assert row[6:] == ["inf", "inf", "inf"]
    for row in rows[:2]:
        assert all(np.isfinite(float(v)) for v in row[5:])


def test_bench_random_noiseless(tmp_path):
    rc = main([
        "bench-random", "--m", "12", "--n", "3", "--k", "2", "--sigmas", "0",
        "--trials", "4", "--seed", "7", "--out", str(tmp_path), "--no-timestamp",
    ])
    assert rc == 0
    header, data = read_csv(tmp_path / "bench.csv")
    col = header.index("mean_mean_rel_err_lambda1")
    assert float(data[0][col]) <= 1e-10
    assert float(data[0][header.index("mean_unmatched")]) == 0.0


def test_relative_errors_match_the_scalar_rule_bitwise():
    # the per-pair rule bench.csv was written with: abs() of each complex scalar
    rng = np.random.default_rng(9)
    a = (rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))) * 10.0 ** rng.uniform(-8, 8, (200, 2))
    b = a * (1 + 1e-3 * rng.standard_normal((200, 2)))
    a[:5], b[:5] = 0.0, 0.0
    b[5:10] = 0.0
    scalar = [[0.0 if abs(x) + abs(y) == 0 else abs(x - y) / (abs(x) + abs(y)) for x, y in zip(ra, rb)]
              for ra, rb in zip(a, b)]
    assert np.array_equal(_relative_errors(a, b), np.array(scalar))


def test_bench_random_requires_seed(tmp_path):
    rc = main(["bench-random", "--m", "8", "--n", "2", "--trials", "1", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sigmas", ","], "noise level"),
        (["--trials", "-1"], "trials"),
        (["--trials", "0"], "trials"),
        (["--sigmas", "nan"], "sigma"),
        (["--sigmas", "inf"], "sigma"),
        (["--sigmas", "0,abc"], "--sigmas expects a number, got 'abc'"),
        (["--m", "5", "--n", "5"], "planted problems need m_i > n_i >= 1, got m_i = 5, n_i = 5"),
        (["--n", "-1"], "planted problems need m_i > n_i >= 1, got m_i = 8, n_i = -1"),
        (["--k", "0"], "--k must be >= 1, got 0"),
    ],
    ids=["empty-sigmas", "negative-trials", "zero-trials", "nan-sigma", "inf-sigma", "text-sigma", "square-blocks",
         "negative-n", "zero-k"],
)
def test_bench_random_rejects_bad_input(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    argv = ["bench-random", "--m", "8", "--n", "2", "--seed", "1", "--out", str(out)]
    assert main(argv + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigmas", [[0, 0.1, float("nan")], [0, -0.1]], ids=["late-nan", "late-negative"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bench_random_checks_every_sigma_before_the_first_trial(tmp_path, capsys, monkeypatch, sigmas, source):
    trials = spy(monkeypatch, rmep.cli, "_bench_trial")
    draws = spy(monkeypatch, rmep.cli, "planted_parts")
    solves = spy(monkeypatch, rmep.mep, "solve_from_determinants")
    argv = ["bench-random", "--m", "8", "--n", "2", "--trials", "2", "--seed", "1", "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--sigmas", ",".join(map(str, sigmas))]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"sigmas": sigmas}))  # nan as the JSON literal NaN
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert f"--sigmas must be finite and nonnegative, got {sigmas[-1]}" in capsys.readouterr().err
    assert trials == draws == solves == [] and not (tmp_path / "out").exists()


def test_bench_random_solves_each_reference_once_for_every_sigma(tmp_path, monkeypatch):
    m, n, k, sigmas, seed = 8, 2, 2, [0.0, 0.1, 0.2], 5
    trials = spy(monkeypatch, rmep.cli, "_bench_trial")
    draws = spy(monkeypatch, rmep.cli, "planted_parts")
    solves = spy(monkeypatch, rmep.mep, "solve_from_determinants")
    values = spy(monkeypatch, rmep.tsvd, "complete_rows")
    completes = spy(monkeypatch, rmep.tsvd, "solve_complete")
    argv = ["bench-random", "--m", str(m), "--n", str(n), "--k", str(k), "--sigmas", "0,0.1,0.2", "--trials", "3",
            "--seed", str(seed), "--out", str(tmp_path), "--no-timestamp"]
    assert main(argv) == 0
    # 3 draws and 3 reference solves; each of the 9 trials solves its noisy
    # problem for its values alone, and ranks none of them.
    assert len(draws) == 3 and len(trials) == len(values) == 9 and len(solves) == 3 + 9 and completes == []
    monkeypatch.undo()
    # The rows of independent trials, each drawing and solving its own
    # reference, as perfbench's serial reference calls them.
    children = np.random.SeedSequence(seed).spawn(3)
    rows = []
    for sigma in sigmas:
        stats = [rmep.cli._bench_trial(m, n, k, sigma, child) for child in children]
        row = [sigma, 3]
        for s in range(k):
            row += [float(np.mean([st[key][s] for st in stats])) for key in ("max", "min", "mean")]
        rows.append(row + [float(np.mean([st["unmatched"] for st in stats]))])
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["sigma", "trials", *(f"mean_{key}_rel_err_lambda{s}" for s in range(1, k + 1)
                                          for key in ("max", "min", "mean")), "mean_unmatched"])
    writer.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row] for row in rows)
    assert (tmp_path / "bench.csv").read_bytes() == expected.getvalue().encode()


def test_missing_input_is_config_error(tmp_path):
    rc = main(["solve-complete", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("kkt_tol", ["nan", "inf"])
def test_solve_one_rejects_non_finite_kkt_tol(tmp_path, capsys, kkt_tol):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    out = tmp_path / "out"
    assert main(["solve-one", str(inp), "--kkt-tol", kkt_tol, "--out", str(out)]) == 2
    assert "kkt_tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [(["--max-iters", "0"], "max_iters must be >= 1, got 0"),
                                            (["--restarts", "-1"], "restarts must be >= 0, got -1")],
                         ids=["max-iters", "restarts"])
def test_solve_one_rejects_bad_budget(tmp_path, capsys, flags, message):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    out = tmp_path / "out"
    assert main(["solve-one", str(inp), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solvers_are_looked_up_through_their_modules(tmp_path, monkeypatch):
    # A tracer that swaps these module attributes must see the CLI's calls,
    # so the CLI must not bind the functions at import time.
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(rmep.tsvd, "solve_complete")
    spy(rmep.spectral, "discretize")
    spy(rmep.alternating, "solve_one")
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    out = str(tmp_path / "out")
    assert main(["solve-complete", str(inp), "--out", out]) == 0
    assert main(["ode-sl", "--n1", "6", "--n2", "6", "--top", "1", "--out", out]) == 0
    assert main(["solve-one", str(inp), "--max-iters", "5", "--out", out]) == 0
    assert calls == ["solve_complete", "discretize", "solve_complete", "solve_one"]


def test_capacity_error_exit_code(tmp_path):
    # k = 5 is too many parameters for the determinant expansion; the loaded
    # problem's shapes decide it before --out is made.
    rng = np.random.default_rng(0)
    from rmep.model import EquationBlock, RmepProblem

    blocks = tuple(
        EquationBlock(
            a=rng.standard_normal((2, 1)),
            b=tuple(rng.standard_normal((2, 1)) for _ in range(5)),
        )
        for _ in range(5)
    )
    p = RmepProblem(blocks=blocks)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    rc = main(["solve-complete", str(inp), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve-complete", "p.json"], "the complete-set solve of 25 tuples"),
    (["ode-sl", "--n1", "6", "--n2", "6"], "the complete-set solve of 36 tuples"),
    (["ode-mathieu", "--n1", "6", "--n2", "6"], "the complete-set solve of 36 tuples"),
    (["bench-random", "--seed", "1"], "the complete-set solve of 25 tuples"),
    (["bench-random", "--seed", "1", "--m", "200"], "the planted draw"),
], ids=["solve-complete", "ode-sl", "ode-mathieu", "bench-random-solve", "bench-random-draw"])
def test_capacity_is_decided_from_the_shapes_before_out(tmp_path, capsys, monkeypatch, argv, message):
    # A 64 kB budget is below each solve's estimate (70 to 145 kB) and the
    # 200-row planted draw's (576 kB), but above the default draw's (58 kB).
    monkeypatch.setattr(rmep.errors, "MEMORY_BUDGET", 2**16)
    p, _ = random_planted_problem([12, 12], [5, 5], 0.01, seed=4)
    save_json(p, tmp_path / "p.json")
    calls = [spy(monkeypatch, rmep.spectral, "discretize"), spy(monkeypatch, rmep.tsvd, "truncate_blocks"),
             spy(monkeypatch, rmep.cli, "_planted_trial")]
    argv = [str(tmp_path / a) if a == "p.json" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message} needs about ")
    assert calls == [[], [], []]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["bench-random", "--seed", "1", "--k", "5", "--m", "3", "--n", "2", "--trials", "1"], "supports k <= 4"),
    (["ode-sl", "--n1", "200", "--n2", "200"], "the complete-set solve of 40000 tuples"),
], ids=["bench-random-k5", "ode-sl-n200"])
def test_over_capacity_commands_make_no_out(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_singular_pencil_exit_code(tmp_path, capsys):
    # Every pencil of the zero problem is singular.
    zero = np.zeros((2, 2))
    save_json(MepProblem(blocks=tuple(EquationBlock(a=zero, b=(zero, zero)) for _ in range(2))), tmp_path / "p.json")
    assert main(["solve-complete", str(tmp_path / "p.json"), "--out", str(tmp_path), "--no-timestamp"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the pencil is singular")
    assert not (tmp_path / "complete_set.csv").exists()


def test_deterministic_artifacts(tmp_path):
    args = [
        "bench-random", "--m", "10", "--n", "3", "--k", "2", "--sigmas", "0,0.1",
        "--trials", "3", "--seed", "11", "--no-timestamp",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "bench.csv").read_bytes() == (out2 / "bench.csv").read_bytes()


def test_timestamp_header_toggle(tmp_path):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=3)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    assert main(["solve-complete", str(inp), "--out", str(tmp_path / "ts")]) == 0
    first = (tmp_path / "ts" / "complete_set.csv").read_text().splitlines()[0]
    assert first.startswith("# generated ")


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 10, "n": 3, "k": 2, "sigmas": "0", "trials": 2, "seed": 5}))
    rc = main(["bench-random", "--config", str(cfg), "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    header, data = read_csv(tmp_path / "bench.csv")
    assert data[0][header.index("trials")] == "2"


@pytest.mark.parametrize(
    "command, config, message",
    [
        (["bench-random"], {"seed": "x"}, "--seed expects an integer, got 'x'"),
        (["bench-random", "--seed", "1"], {"trials": "many"}, "--trials expects an integer"),
        (["ode-mathieu"], {"alpha": "wide"}, "--alpha expects a number"),
        (["ode-sl"], {"n1": [12]}, "--n1 expects an integer"),
        # JSON values are not coerced: no float or bool for an integer, no bool for a number
        (["bench-random", "--seed", "1"], {"trials": 1.9}, "--trials expects an integer, got 1.9"),
        (["bench-random"], {"seed": True}, "--seed expects an integer, got True"),
        (["bench-random", "--seed", "1"], {"trials": "2"}, "--trials expects an integer, got '2'"),
        (["solve-one", "INPUT"], {"max_iters": 2.9}, "--max-iters expects an integer, got 2.9"),
        (["ode-mathieu"], {"alpha": True}, "--alpha expects a number, got True"),
        (["bench-random", "--seed", "1"], {"sigmas": [0.0, False]}, "--sigmas expects a number, got False"),
        (["bench-random", "--seed", "1"], {"no-timestamp": "yes"}, "--no-timestamp expects true or false, got 'yes'"),
        # a number option takes no string either; only --sigmas parses its own
        (["ode-mathieu"], {"alpha": "4"}, "--alpha expects a number, got '4'"),
        (["bench-random", "--seed", "1"], {"sigmas": ["0.1"]}, "--sigmas expects a number, got '0.1'"),
        # an integer too large for a float
        (["ode-mathieu"], {"alpha": 10**400}, "--alpha expects a number, got 1000"),
    ],
    ids=["bench-seed", "bench-trials", "mathieu-alpha", "sl-n1", "trials-float", "seed-bool", "trials-string",
         "max-iters-float", "alpha-bool", "sigmas-bool", "no-timestamp-string", "alpha-string", "sigmas-list-string",
         "alpha-overflow"],
)
def test_config_values_of_wrong_type_are_config_errors(tmp_path, capsys, command, config, message):
    if "INPUT" in command:
        p, _ = random_planted_problem([8, 8], [3, 3], 0.05, seed=1)
        save_json(p, tmp_path / "problem.json")
        command = [str(tmp_path / "problem.json") if c == "INPUT" else c for c in command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("content, message", [(None, "cannot read {cfg}: "),
                                              ("[1, 2]", "config file must hold a JSON object")],
                         ids=["directory", "list"])
def test_unusable_config_file_is_config_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_text(content)
    assert main(["ode-sl", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: " + message.format(cfg=cfg))
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key", ["max-iters", "max_iters"])
def test_config_keys_match_flag_or_dest_spelling(tmp_path, key):
    p, _ = random_planted_problem([8, 8], [3, 3], 0.05, seed=1)
    inp = tmp_path / "problem.json"
    save_json(p, inp)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    assert main(["solve-one", str(inp), "--config", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
    doc = json.loads((tmp_path / "eigen_tuple.json").read_text())
    assert doc["iterations"] == 1 and doc["extrapolations"] == 0


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "max-iter": 1}))
    assert main(["bench-random", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "'max-iter' is not an option of bench-random" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# A JSON value each declared option type takes from a config file, with the
# value the command then sees, and one it rejects, with the message's tail.
GOOD_VALUES = {int: (3, 3), float: (0.5, 0.5), Path: ("there", Path("there")), str: ([0, 0.1], [0.0, 0.1]),
               None: (True, True)}
BAD_VALUES = {int: ("3", "expects an integer, got '3'"), float: ("0.5", "expects a number, got '0.5'"),
              Path: (5, "expects a path, got 5"),
              str: (True, "expects a list of numbers or a comma-separated string, got True"),
              None: ("yes", "expects true or false, got 'yes'")}


def run_with_config(tmp_path, monkeypatch, name, config):
    """main on subcommand `name` with `config` as its --config file and the
    command itself replaced by a recorder; returns (exit code, namespaces)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    calls = []
    monkeypatch.setattr(rmep.cli, COMMANDS[name].get_default("run").__name__, lambda args: calls.append(args) or 0)
    argv = [name] + (["p.json"] if name.startswith("solve") else []) + ["--config", str(cfg)]
    return main(argv), calls


@pytest.mark.parametrize("spelling", ["flag", "dest"])
@pytest.mark.parametrize("name, action", OPTIONS, ids=OPTION_IDS)
def test_every_option_is_accepted_from_a_config_file(tmp_path, monkeypatch, name, action, spelling):
    value, expected = GOOD_VALUES[action.type]
    key = action.option_strings[0][2:] if spelling == "flag" else action.dest
    rc, calls = run_with_config(tmp_path, monkeypatch, name, {"seed": 1, key: value})
    assert rc == 0
    assert getattr(calls[0], action.dest) == expected


@pytest.mark.parametrize("name, action", OPTIONS, ids=OPTION_IDS)
def test_every_option_rejects_a_config_value_of_the_wrong_type(tmp_path, capsys, monkeypatch, name, action):
    value, message = BAD_VALUES[action.type]
    rc, calls = run_with_config(tmp_path, monkeypatch, name, {action.dest: value})
    assert rc == 2 and calls == []
    assert f"{action.option_strings[0]} {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name, action", OPTIONS, ids=OPTION_IDS)
def test_help_shows_every_default(name, action):
    assert f"{action.help} (default: {action.default})" in " ".join(COMMANDS[name].format_help().split())


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_negative_seed_is_config_error(tmp_path, capsys, command, source):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    save_json(p, tmp_path / "p.json")
    argv = [command] + ([str(tmp_path / "p.json")] if command.startswith("solve") else [])
    argv += ["--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out", [("solve-one", "file"), ("solve-complete", "file"), ("bench-random", "file/x"),
                                          ("ode-sl", "file"), ("ode-mathieu", "file/x")])
def test_unusable_out_fails_before_the_solve(tmp_path, capsys, monkeypatch, command, out):
    (tmp_path / "file").write_text("")
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    save_json(p, tmp_path / "p.json")
    solves = [spy(monkeypatch, rmep.tsvd, "solve_complete"), spy(monkeypatch, rmep.alternating, "solve_one")]
    argv = [command] + ([str(tmp_path / "p.json")] if command.startswith("solve") else [])
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / out)]) == 2
    assert f"error: --out {tmp_path / out} cannot be used as the output directory" in capsys.readouterr().err
    assert solves == [[], []]


def _valid_json_doc():
    p, _ = random_planted_problem([6, 6], [2, 2], 0.0, seed=3)
    return to_json_dict(p)


def _scalar_json_doc_with_bool_rows():
    from rmep.model import EquationBlock, RmepProblem

    doc = to_json_dict(RmepProblem(blocks=(EquationBlock(a=[[2.0]], b=([[1.0]],)),)))
    doc["blocks"][0]["rows"] = True
    return doc


@pytest.mark.parametrize(
    "name, content",
    [
        ("p.json", b"{not json"),
        ("p.json", b"[1, 2, 3]"),
        ("p.json", json.dumps({k: v for k, v in _valid_json_doc().items() if k != "blocks"}).encode()),
        ("p.json", json.dumps({**_valid_json_doc(), "k": "x"}).encode()),
        ("p.json", json.dumps({**_valid_json_doc(), "k": 2.7}).encode()),
        ("p.json", json.dumps(_scalar_json_doc_with_bool_rows()).encode()),
        ("p.json", json.dumps({**_valid_json_doc(), "version": True}).encode()),
        ("p.bin", b"RMEP-PROBLEM-v1\x00"),
    ],
    ids=["invalid-json", "top-level-list", "missing-blocks", "k-not-integer", "k-non-integral", "rows-bool",
         "version-bool", "binary-cut-after-magic"],
)
def test_malformed_problem_file_is_config_error(tmp_path, capsys, name, content):
    inp = tmp_path / name
    inp.write_bytes(content)
    assert main(["solve-complete", str(inp), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["solve-one", "solve-complete"])
@pytest.mark.parametrize("name", ["d.json", "d.bin"])
def test_unreadable_input_is_config_error(tmp_path, capsys, command, name):
    inp = tmp_path / name
    inp.mkdir()
    assert main([command, str(inp), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {inp}")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["solve-one", "solve-complete"])
def test_config_out_of_wrong_type_is_config_error(tmp_path, capsys, command):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=3)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": 5}))
    assert main([command, str(inp), "--config", str(cfg)]) == 2
    assert "--out expects a path, got 5" in capsys.readouterr().err


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 10, "n": 3, "k": 2, "sigmas": "0", "trials": 2, "seed": 5}))
    rc = main([
        "bench-random", "--config", str(cfg), "--trials", "3",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert rc == 0
    header, data = read_csv(tmp_path / "bench.csv")
    assert data[0][header.index("trials")] == "3"


def test_ode_sl_small(tmp_path, monkeypatch):
    solves = spy(monkeypatch, rmep.tsvd, "solve_complete")
    defects = spy(monkeypatch, rmep.spectral, "continuous_residuals")
    rc = main(["ode-sl", "--n1", "12", "--n2", "12", "--top", "4", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    header, data = read_csv(tmp_path / "sl_eigenvalues.csv")
    lam_col = header.index("re_lambda")
    lams = sorted(float(r[lam_col]) for r in data)
    assert abs(lams[0] - np.pi**2) <= 1e-4
    assert (tmp_path / "sl_u1_01.csv").exists()
    assert (tmp_path / "sl_u2_04.csv").exists()
    # eigenfunction grids carry the (t, re, im) layout
    h, grid = read_csv(tmp_path / "sl_u1_01.csv")
    assert h == ["t", "re_u", "im_u"]
    assert len(grid) == 201
    # rho is the stored sort key: nondecreasing and the sum of the stored rho_i
    (tuples,) = solves
    rho = header.index("rho")
    assert [float(r[rho]) for r in data] == sorted(float(r[rho]) for r in data)
    for row, t in zip(data, tuples):
        assert float(row[rho]) == t.residual == sum(t.block_residuals)
        assert [float(row[rho + 1]), float(row[rho + 2])] == list(t.block_residuals)
    # every float field parses back bitwise to its tuple and continuous defects
    assert header[-3:] == ["varsigma_1", "varsigma_2", "varsigma"]
    for row, t, d in zip(data, tuples[:4], defects[0], strict=True):
        assert bits(row[1:]) == bits(tuple_fields(t, 2) + list(d))


def spy_rows(monkeypatch):
    """Record the row count of every `mep.tuples_from_pencils` call and the
    shape of every pencil stack its SVDs see."""
    calls, svds = [], []
    tuples_from_pencils, svd = rmep.mep.tuples_from_pencils, rmep.mep.svd
    monkeypatch.setattr(rmep.mep, "tuples_from_pencils", lambda p, c: calls.append(len(c)) or tuples_from_pencils(p, c))
    monkeypatch.setattr(rmep.mep, "svd", lambda a: svds.append(a.shape) or svd(a))
    return calls, svds


@pytest.mark.parametrize("argv", [
    ["bench-random", "--m", "8", "--n", "2", "--k", "2", "--sigmas", "0,0.1", "--trials", "2", "--seed", "3"],
    ["solve-complete", "p.json"],
])
def test_commands_that_read_no_vectors_compute_none(tmp_path, monkeypatch, argv):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.05, seed=4)
    save_json(p, tmp_path / "p.json")
    calls, svds = spy_rows(monkeypatch)
    argv = [str(tmp_path / a) if a == "p.json" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out"), "--no-timestamp"]) == 0
    assert calls == [] and svds == []


def test_ode_sl_computes_vectors_for_the_written_rows_only(tmp_path, monkeypatch):
    calls, svds = spy_rows(monkeypatch)
    assert main(["ode-sl", "--n1", "8", "--n2", "7", "--top", "3", "--out", str(tmp_path), "--no-timestamp"]) == 0
    header, data = read_csv(tmp_path / "sl_eigenvalues.csv")
    assert len(data) == 3
    # One batched call, one SVD per block, each over the three written tuples.
    assert calls == [3]
    assert [shape[0] for shape in svds] == [3, 3] and [shape[2] for shape in svds] == [8, 7]


@pytest.mark.parametrize("argv", [["ode-sl", "--n1", "4", "--n2", "4"],
                                  ["ode-mathieu", "--alpha", "4", "--beta", "1", "--n1", "8", "--n2", "8"]])
def test_ode_top_beyond_the_set_writes_the_finite_rows(tmp_path, monkeypatch, argv):
    solves = spy(monkeypatch, rmep.tsvd, "solve_complete")
    assert main(argv + ["--top", "100", "--out", str(tmp_path), "--no-timestamp"]) == 0
    (complete,) = solves
    name = argv[0].split("-")[1]
    _, data = read_csv(tmp_path / f"{name}_eigenvalues.csv")
    assert len(data) == complete.finite.sum() <= len(complete) < 100
    assert all(np.isfinite(float(r[6])) for r in data)
    assert (tmp_path / f"{name}_u1_{len(data):02d}.csv").exists()
    assert not (tmp_path / f"{name}_u1_{len(data) + 1:02d}.csv").exists()


def run_with_failing_svd(tmp_path, capsys, monkeypatch, command, fails=lambda compute_uv: True):
    """main on `command` with a saved planted problem (two 8x2 blocks) while
    np.linalg.svd raises LinAlgError on the calls where fails(compute_uv);
    returns (exit code, stderr lines)."""
    svd = np.linalg.svd

    def failing_svd(a, *args, compute_uv=True, **kwargs):
        if fails(compute_uv):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    save_json(p, tmp_path / "p.json")
    rc = main([command, str(tmp_path / "p.json"), "--out", str(tmp_path), "--no-timestamp"])
    return rc, capsys.readouterr().err.splitlines()


def test_backend_error_exit_code(tmp_path, capsys, monkeypatch):
    # The values-only SVDs fail to converge; the first, of block 1's (A, B_1, B_2)
    # stack, is the spectral norms' that the ranking divides by.
    rc, err = run_with_failing_svd(tmp_path, capsys, monkeypatch, "solve-complete", lambda compute_uv: not compute_uv)
    assert rc == 5
    assert len(err) == 1 and err[0].startswith("error: SVD did not converge for shape (3, 8, 2)")
    assert not (tmp_path / "complete_set.csv").exists()


def test_failed_svd_fallback_in_solve_one_exits_5(tmp_path, capsys, monkeypatch):
    # The vector kernel's last resort, the SVD, fails to converge; the
    # values-only SVDs of the spectral norms do not.
    monkeypatch.setattr(rmep.linalg, "_shifted_inverse_iteration", lambda *args: None)
    rc, err = run_with_failing_svd(tmp_path, capsys, monkeypatch, "solve-one", lambda compute_uv: compute_uv)
    assert rc == 5
    assert len(err) == 1 and err[0].startswith("error: SVD did not converge for shape (8, 2)")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command, artifact", [("solve-one", "trace.csv"), ("solve-complete", "complete_set.csv")])
def test_every_failed_svd_exits_5(tmp_path, capsys, monkeypatch, command, artifact):
    # Every SVD fails to converge, the spectral norms' included.
    rc, err = run_with_failing_svd(tmp_path, capsys, monkeypatch, command)
    assert rc == 5
    assert len(err) == 1 and err[0].startswith("error: SVD did not converge for shape (")
    assert not (tmp_path / artifact).exists()


def test_ode_mathieu_small(tmp_path):
    rc = main([
        "ode-mathieu", "--alpha", "4", "--beta", "1", "--n1", "12", "--n2", "12",
        "--top", "2", "--out", str(tmp_path), "--no-timestamp",
    ])
    assert rc == 0
    header, data = read_csv(tmp_path / "mathieu_eigenvalues.csv")
    om = header.index("re_omega")
    for row in data:
        assert float(row[om]) > 0.0
    assert (tmp_path / "mathieu_mode_01.csv").exists()
    h, grid = read_csv(tmp_path / "mathieu_mode_01.csv")
    assert h == ["x", "y", "psi_re", "psi_im"]


@pytest.mark.parametrize("command, top", [("ode-sl", "-1"), ("ode-sl", "0"), ("ode-mathieu", "-2")])
def test_ode_rejects_top_below_one(tmp_path, capsys, command, top):
    rc = main([command, "--n1", "8", "--n2", "8", "--top", top, "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 2
    assert f"--top must be >= 1, got {top}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def sl_closed_form_error(lam, mu):
    """Nearest (i, j) with lambda = (i^2 + j^2) pi^2 / 2 and
    mu = (j^2 - i^2) pi^2 / 2, and the larger absolute error of the two."""
    pi2 = np.pi**2
    i = max(1, round(np.sqrt(max((lam.real - mu.real) / pi2, 0.0))))
    j = max(1, round(np.sqrt(max((lam.real + mu.real) / pi2, 0.0))))
    return (i, j), max(abs(lam - (i * i + j * j) * pi2 / 2), abs(mu - (j * j - i * i) * pi2 / 2))


@pytest.mark.slow
def test_ode_sl_table_values_at_n30(tmp_path, sl_solution_n30):
    # At n = 30 the 36 tuples with i, j <= 6 all have rho near 1e-15, so which
    # ten of them are written is rounding noise.  Every written row must be a
    # distinct closed-form tuple, and the two leading eigenvalues 9.8696 and
    # 24.6740 must be among the resolved tuples of the same seed-0 solve.
    rc = main(["ode-sl", "--n1", "30", "--n2", "30", "--top", "10", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    header, data = read_csv(tmp_path / "sl_eigenvalues.csv")
    assert len(data) == 10
    forms = set()
    for r in data:
        lam, mu = (complex(float(r[header.index(f"re_{x}")]), float(r[header.index(f"im_{x}")])) for x in ("lambda", "mu"))
        form, err = sl_closed_form_error(lam, mu)
        assert err <= 1e-8, (r, form, err)
        forms.add(form)
    assert len(forms) == len(data)
    _, _, tuples = sl_solution_n30
    lams = [dehomogenize(t.value)[0].real for t in tuples if t.residual is not None and t.residual <= 1e-13]
    assert any(abs(l - 9.8696) <= 1e-4 for l in lams)
    assert any(abs(l - 24.6740) <= 1e-4 for l in lams)


@pytest.mark.parametrize("alpha, beta", [("1", "4"), ("2", "2"), ("4", "0"), ("inf", "1")])
def test_ode_mathieu_rejects_bad_geometry(tmp_path, capsys, alpha, beta):
    rc = main(["ode-mathieu", "--alpha", alpha, "--beta", beta, "--n1", "8", "--n2", "8",
               "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 2
    assert "error: need alpha > beta > 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def run_module(argv):
    """`python -m rmep.cli` in a child process that imports the same rmep as
    this one, installed or not."""
    src = str(Path(rmep.tsvd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "rmep.cli", *argv], capture_output=True, text=True, timeout=300,
                          env=env)


def test_console_entry_point_subprocess(tmp_path):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    proc = run_module(["solve-complete", str(inp), "--out", str(tmp_path), "--no-timestamp"])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "complete_set.csv").exists()


@pytest.mark.parametrize("argv, code", [(["--seed", "-1"], 2), (["--n1", "8", "--n2", "8", "--no-timestamp"], 0)],
                         ids=["negative-seed", "ok"])
def test_exit_code_reaches_the_shell(tmp_path, argv, code):
    proc = run_module(["ode-sl", *argv, "--out", str(tmp_path)])
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "sl_eigenvalues.csv").exists() == (code == 0)
