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
import rmep.spectral
import rmep.tsvd
from rmep.cli import _relative_errors, main
from rmep.model import dehomogenize, random_planted_problem
from rmep.serialization import save_binary, save_json, to_json_dict


def read_csv(path):
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(line for line in f if not line.startswith("#"))]
    header, data = rows[0], rows[1:]
    return header, data


def test_solve_one_artifacts(tmp_path):
    p, _ = random_planted_problem([8, 8], [3, 3], 0.0, seed=1)
    inp = tmp_path / "problem.json"
    save_json(p, inp)
    # the objective-change rule stops near 2 * rel_tol on consistent problems,
    # so drive the tolerance down to reach the roundoff floor
    rc = main(["solve-one", str(inp), "--rel-tol", "1e-13", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    header, data = read_csv(tmp_path / "trace.csv")
    assert header == ["iter", "theta1", "eps_kkt"]
    assert float(data[-1][1]) <= 1e-12  # consistent problem: final theta tiny
    doc = json.loads((tmp_path / "eigen_tuple.json").read_text())
    assert doc["status"] in ("tol-met", "stagnated", "budget-exhausted")
    assert doc["lambdas"] is not None


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
    expected = io.StringIO()
    rmep.tsvd.write_complete_csv(p, rmep.tsvd.solve_complete(p, seed=0), expected)
    assert (tmp_path / "complete_set.csv").read_bytes() == expected.getvalue().encode("utf-8")


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
    ],
    ids=["empty-sigmas", "negative-trials", "zero-trials", "nan-sigma", "inf-sigma", "text-sigma"],
)
def test_bench_random_rejects_bad_input(tmp_path, capsys, flags, message):
    argv = ["bench-random", "--m", "8", "--n", "2", "--seed", "1", "--out", str(tmp_path)]
    assert main(argv + flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


def test_missing_input_is_config_error(tmp_path):
    rc = main(["solve-complete", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("rel_tol", ["nan", "inf"])
def test_solve_one_rejects_non_finite_rel_tol(tmp_path, capsys, rel_tol):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    out = tmp_path / "out"
    assert main(["solve-one", str(inp), "--rel-tol", rel_tol, "--out", str(out)]) == 2
    assert "rel_tol must be positive and finite" in capsys.readouterr().err
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
    # N = 40^2 = 1600 tuples is fine, but a kron cap cannot be exceeded via
    # the CLI directly; instead craft k too large for the determinant expansion
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
    rc = main(["solve-complete", str(inp), "--out", str(tmp_path)])
    assert rc == 3


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
    ],
    ids=["bench-seed", "bench-trials", "mathieu-alpha", "sl-n1", "trials-float", "seed-bool", "trials-string",
         "max-iters-float", "alpha-bool", "sigmas-bool", "no-timestamp-string", "alpha-string", "sigmas-list-string"],
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


def test_ode_sl_small(tmp_path):
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
    tuples = rmep.tsvd.solve_complete(rmep.spectral.discretize(rmep.spectral.builtin_sturm_liouville(n1=12, n2=12)).problem)
    rho = header.index("rho")
    assert [float(r[rho]) for r in data] == sorted(float(r[rho]) for r in data)
    for row, t in zip(data, tuples):
        assert float(row[rho]) == t.residual == sum(t.block_residuals)
        assert [float(row[rho + 1]), float(row[rho + 2])] == list(t.block_residuals)


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
    assert f"--top >= 1, got {top}" in capsys.readouterr().err
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


@pytest.mark.parametrize("alpha, beta", [("1", "4"), ("2", "2"), ("4", "0")])
def test_ode_mathieu_rejects_bad_geometry(tmp_path, capsys, alpha, beta):
    rc = main(["ode-mathieu", "--alpha", alpha, "--beta", beta, "--n1", "8", "--n2", "8",
               "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 2
    assert "error: need alpha > beta > 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_console_entry_point_subprocess(tmp_path):
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    # The child imports the same rmep as this process, installed or not.
    src = str(Path(rmep.tsvd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "rmep.cli", "solve-complete", str(inp), "--out", str(tmp_path), "--no-timestamp"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "complete_set.csv").exists()
