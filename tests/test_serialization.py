import json
import struct

import numpy as np
import pytest

from rmep.errors import ValidationError
from rmep.model import MepProblem, RmepProblem
from rmep.serialization import (
    from_json_dict,
    load_binary,
    load_json,
    read_json,
    save_binary,
    save_json,
    to_json_dict,
)
from rmep.spectral import builtin_sturm_liouville, discretize

from conftest import random_problem


def assert_problems_equal(a, b):
    assert type(a) is type(b)
    assert a.k == b.k
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.a, bb.a)
        for x, y in zip(ba.b, bb.b):
            assert np.array_equal(x, y)


def awkward_problem():
    """Values that stress float round-tripping."""
    rng = np.random.default_rng(0)
    p = random_problem(rng, 5, 3, 2)
    a = np.array(p.blocks[0].a, copy=True)
    a[0, 0] = complex(1e-308, -0.0)
    a[3, 1] = complex(-0.0, 2.0)
    a[1, 1] = np.pi * 1e17
    a[2, 2] = -2.2250738585072014e-308
    blocks = list(p.blocks)
    blocks[0] = type(p.blocks[0])(a=a, b=p.blocks[0].b)
    return RmepProblem(blocks=tuple(blocks))


def test_json_roundtrip(tmp_path):
    p = awkward_problem()
    path = tmp_path / "p.json"
    save_json(p, path)
    assert_problems_equal(load_json(path), p)


def test_json_roundtrip_preserves_bits(tmp_path):
    p = awkward_problem()
    path = tmp_path / "p.json"
    save_json(p, path)
    q = load_json(path)
    for ba, bb in zip(p.blocks, q.blocks):
        assert ba.a.tobytes() == bb.a.tobytes()


def test_json_kind_mep(tmp_path):
    rng = np.random.default_rng(1)
    p = random_problem(rng, 3, 3, 2, square=True)
    path = tmp_path / "mep.json"
    save_json(p, path)
    q = load_json(path)
    assert isinstance(q, MepProblem)
    assert_problems_equal(q, p)


def test_json_header_fields():
    rng = np.random.default_rng(2)
    p = random_problem(rng, 4, 2, 1)
    doc = to_json_dict(p)
    assert doc["format"] == "rmep-problem"
    assert doc["k"] == 1
    assert doc["blocks"][0]["rows"] == 4
    assert doc["blocks"][0]["cols"] == 2
    # column-major re/im pairs
    assert doc["blocks"][0]["a"][0] == p.blocks[0].a[0, 0].real
    assert doc["blocks"][0]["a"][1] == p.blocks[0].a[0, 0].imag
    assert doc["blocks"][0]["a"][2] == p.blocks[0].a[1, 0].real


def test_json_rejects_foreign_documents():
    with pytest.raises(ValidationError):
        from_json_dict({"format": "something-else"})


def test_binary_roundtrip(tmp_path):
    p = awkward_problem()
    path = tmp_path / "p.bin"
    save_binary(p, path)
    q = load_binary(path)
    assert_problems_equal(q, p)
    for ba, bb in zip(p.blocks, q.blocks):
        assert ba.a.tobytes() == bb.a.tobytes()


@pytest.mark.parametrize("save, load, name", [(save_json, load_json, "p.json"), (save_binary, load_binary, "p.bin")])
def test_real_problem_loads_real(tmp_path, save, load, name):
    p = discretize(builtin_sturm_liouville(n1=6, n2=6)).problem
    save(p, tmp_path / name)
    q = load(tmp_path / name)
    assert all(blk.coeffs.dtype == np.float64 for blk in q.blocks)
    assert_problems_equal(q, p)
    # a complex problem stays complex
    c = random_problem(np.random.default_rng(6), 4, 3, 2)
    save(c, tmp_path / name)
    assert all(blk.coeffs.dtype == np.complex128 for blk in load(tmp_path / name).blocks)


def test_binary_kind_and_magic(tmp_path):
    rng = np.random.default_rng(3)
    p = random_problem(rng, 2, 2, 2, square=True)
    path = tmp_path / "mep.bin"
    save_binary(p, path)
    raw = path.read_bytes()
    assert raw[:16] == b"RMEP-PROBLEM-v1\x00"
    assert isinstance(load_binary(path), MepProblem)


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a problem file at all")
    with pytest.raises(ValidationError):
        load_binary(path)


def test_binary_rejects_truncation(tmp_path):
    rng = np.random.default_rng(4)
    p = random_problem(rng, 4, 3, 2)
    path = tmp_path / "p.bin"
    save_binary(p, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        load_binary(path)


def test_json_rejects_a_matrix_of_the_wrong_length():
    doc = to_json_dict(random_problem(np.random.default_rng(7), 4, 3, 2))
    doc["blocks"][1]["a"].pop()
    with pytest.raises(ValidationError, match="matrix payload has 23 doubles, expected 24"):
        from_json_dict(doc)


def test_json_rejects_an_extra_parameter_matrix():
    doc = to_json_dict(random_problem(np.random.default_rng(8), 4, 3, 2))
    for block in doc["blocks"]:
        block["b"].append(block["a"])
    with pytest.raises(ValidationError, match="^block has 3 parameter matrices, expected 2$"):
        from_json_dict(doc)


def test_binary_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "p.bin"
    save_binary(random_problem(np.random.default_rng(9), 4, 3, 2), path)
    path.write_bytes(path.read_bytes() + bytes(16))
    with pytest.raises(ValidationError, match="trailing bytes after the last block"):
        load_binary(path)


@pytest.mark.parametrize("header, message", [(struct.pack("<BI", 0, 0), "^k must be >= 1, got 0$"),
                                             (struct.pack("<BIII", 0, 1, 0, 1), "^rows must be >= 1, got 0$")],
                         ids=["k-zero", "rows-zero"])
def test_binary_counts_are_checked_by_the_json_rules(tmp_path, header, message):
    path = tmp_path / "p.bin"
    path.write_bytes(b"RMEP-PROBLEM-v1\x00" + header)
    with pytest.raises(ValidationError, match=message):
        load_binary(path)


@pytest.mark.parametrize("content, message", [("missing", "^cannot read "), ("directory", "^cannot read "),
                                              (b"\xff{}", " is not a JSON file: "), (b"{", " is not a JSON file: ")],
                         ids=["missing", "directory", "invalid-utf8", "invalid-json"])
def test_read_json_failures_are_validation_errors(tmp_path, content, message):
    path = tmp_path / "d.json"
    if content == "directory":
        path.mkdir()
    elif content != "missing":
        path.write_bytes(content)
    with pytest.raises(ValidationError, match=message):
        read_json(path)


def test_json_is_plain_json(tmp_path):
    rng = np.random.default_rng(5)
    p = random_problem(rng, 3, 2, 1)
    path = tmp_path / "p.json"
    save_json(p, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"format", "version", "kind", "k", "blocks"}
