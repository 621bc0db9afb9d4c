"""Problem serialization: a JSON container and an equivalent binary format.

Both formats store, per block, the matrices A, B_1, ..., B_k as column-major
arrays of interleaved (re, im) doubles and round-trip bit-exactly for finite
values.  Square problems are tagged so they load back as MepProblem.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import EquationBlock, MepProblem, RmepProblem

__all__ = [
    "to_json_dict",
    "from_json_dict",
    "save_json",
    "load_json",
    "save_binary",
    "load_binary",
]

FORMAT_NAME = "rmep-problem"
FORMAT_VERSION = 1
BINARY_MAGIC = b"RMEP-PROBLEM-v1\x00"
assert len(BINARY_MAGIC) == 16


def _encode_matrix(a: np.ndarray) -> list[float]:
    flat = np.asfortranarray(a).ravel(order="F")
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tolist()


def _decode_matrix(data, rows: int, cols: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.size != 2 * rows * cols:
        raise ValidationError(f"matrix payload has {arr.size} doubles, expected {2 * rows * cols}")
    flat = arr[0::2] + 1j * arr[1::2]
    return flat.reshape((rows, cols), order="F")


def to_json_dict(problem: RmepProblem) -> dict:
    blocks = []
    for blk in problem.blocks:
        m, n = blk.shape
        blocks.append(
            {
                "rows": m,
                "cols": n,
                "a": _encode_matrix(blk.a),
                "b": [_encode_matrix(bi) for bi in blk.b],
            }
        )
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "mep" if isinstance(problem, MepProblem) else "rmep",
        "k": problem.k,
        "blocks": blocks,
    }


def from_json_dict(doc: dict) -> RmepProblem:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValidationError(f"not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValidationError(f"unsupported version {doc.get('version')}")
    try:
        k = int(doc["k"])
        blocks = []
        for entry in doc["blocks"]:
            m, n = int(entry["rows"]), int(entry["cols"])
            a = _decode_matrix(entry["a"], m, n)
            bs = [_decode_matrix(bi, m, n) for bi in entry["b"]]
            if len(bs) != k:
                raise ValidationError(f"block has {len(bs)} parameter matrices, expected {k}")
            blocks.append(EquationBlock(a=a, b=tuple(bs)))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {FORMAT_NAME} document: {type(exc).__name__}: {exc}") from exc
    cls = MepProblem if doc.get("kind") == "mep" else RmepProblem
    return cls(blocks=tuple(blocks))


def save_json(problem: RmepProblem, path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(problem)), encoding="utf-8")


def load_json(path) -> RmepProblem:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValidationError(f"{path} is not a JSON file: {exc}") from exc
    return from_json_dict(doc)


def save_binary(problem: RmepProblem, path) -> None:
    kind = 1 if isinstance(problem, MepProblem) else 0
    parts = [BINARY_MAGIC, struct.pack("<BI", kind, problem.k)]
    for blk in problem.blocks:
        m, n = blk.shape
        parts.append(struct.pack("<II", m, n))
        for mat in (blk.a,) + blk.b:
            parts.append(np.asfortranarray(mat).astype("<c16").tobytes(order="F"))
    Path(path).write_bytes(b"".join(parts))


def _unpack(fmt: str, data: bytes, off: int):
    """(fields, offset after them) of `fmt` read at `off`."""
    end = off + struct.calcsize(fmt)
    if end > len(data):
        raise ValidationError("truncated binary problem file")
    return struct.unpack_from(fmt, data, off), end


def load_binary(path) -> RmepProblem:
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:16] != BINARY_MAGIC:
        raise ValidationError("bad magic header; not a binary problem file")
    (kind, k), off = _unpack("<BI", data, 16)
    blocks = []
    for _ in range(k):
        (m, n), off = _unpack("<II", data, off)
        mats = []
        nbytes = 16 * m * n
        for _ in range(k + 1):
            if off + nbytes > len(data):
                raise ValidationError("truncated binary problem file")
            flat = np.frombuffer(data, dtype="<c16", count=m * n, offset=off)
            mats.append(flat.reshape((m, n), order="F").astype(np.complex128))
            off += nbytes
        blocks.append(EquationBlock(a=mats[0], b=tuple(mats[1:])))
    if off != len(data):
        raise ValidationError("trailing bytes after the last block")
    cls = MepProblem if kind == 1 else RmepProblem
    return cls(blocks=tuple(blocks))
