import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from rmep.cli import main
from rmep.model import random_planted_problem
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
    ],
    ids=["bench-seed", "bench-trials", "mathieu-alpha", "sl-n1"],
)
def test_config_values_of_wrong_type_are_config_errors(tmp_path, capsys, command, config, message):
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
    assert json.loads((tmp_path / "eigen_tuple.json").read_text())["iterations"] == 1


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "max-iter": 1}))
    assert main(["bench-random", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "'max-iter' is not an option of bench-random" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _valid_json_doc():
    p, _ = random_planted_problem([6, 6], [2, 2], 0.0, seed=3)
    return to_json_dict(p)


@pytest.mark.parametrize(
    "name, content",
    [
        ("p.json", b"{not json"),
        ("p.json", b"[1, 2, 3]"),
        ("p.json", json.dumps({k: v for k, v in _valid_json_doc().items() if k != "blocks"}).encode()),
        ("p.json", json.dumps({**_valid_json_doc(), "k": "x"}).encode()),
        ("p.bin", b"RMEP-PROBLEM-v1\x00"),
    ],
    ids=["invalid-json", "top-level-list", "missing-blocks", "k-not-integer", "binary-cut-after-magic"],
)
def test_malformed_problem_file_is_config_error(tmp_path, capsys, name, content):
    inp = tmp_path / name
    inp.write_bytes(content)
    assert main(["solve-complete", str(inp), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


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


@pytest.mark.slow
def test_ode_sl_table_values_at_n30(tmp_path):
    # the full-size run reproduces the two leading eigenvalues at display
    # precision: 9.8696 and 24.6740
    rc = main(["ode-sl", "--n1", "30", "--n2", "30", "--top", "10", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    header, data = read_csv(tmp_path / "sl_eigenvalues.csv")
    lams = sorted(float(r[header.index("re_lambda")]) for r in data)
    assert any(abs(l - 9.8696) <= 1e-4 for l in lams)
    assert any(abs(l - 24.6740) <= 1e-4 for l in lams)


def test_console_entry_point_subprocess(tmp_path):
    # exercises the module entry plus the env thread cap path
    p, _ = random_planted_problem([8, 8], [2, 2], 0.0, seed=4)
    inp = tmp_path / "p.json"
    save_json(p, inp)
    env = {"RMEP_BACKEND_THREADS": "1", "PATH": "/usr/bin:/bin"}
    import os

    env.update({k: v for k, v in os.environ.items() if k not in env})
    proc = subprocess.run(
        [sys.executable, "-m", "rmep.cli", "solve-complete", str(inp), "--out", str(tmp_path), "--no-timestamp"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "complete_set.csv").exists()
