"""Problem serialization: a JSON container and an equivalent binary format.

Both formats store, per block, the matrices A, B_1, ..., B_k as column-major
arrays of interleaved (re, im) doubles, written by one encoder and read by
one decoder, and round-trip bit-exactly for finite values, signed zeros
included.  A matrix whose imaginary parts are all exactly 0 loads as float64,
so a real problem is solved in real arithmetic after a round trip too.
Square problems are tagged so they load back as MepProblem.  Both loaders
check a document in `from_json_dict`: `load_binary` checks only its own
framing (magic, truncation, trailing bytes) and hands the header and
payloads over as a document.  A file that cannot be read, or a JSON file
that is not valid UTF-8 JSON, is a ValidationError (`read_json`).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_integer
from .model import EquationBlock, MepProblem, RmepProblem

__all__ = [
    "to_json_dict",
    "from_json_dict",
    "save_json",
    "read_json",
    "load_json",
    "save_binary",
    "load_binary",
]

FORMAT_NAME = "rmep-problem"
FORMAT_VERSION = 1
BINARY_MAGIC = b"RMEP-PROBLEM-v1\x00"
assert len(BINARY_MAGIC) == 16


def _encode_matrix(a: np.ndarray) -> np.ndarray:
    """The matrix as column-major interleaved (re, im) little-endian doubles."""
    return a.astype("<c16").ravel(order="F").view("<f8")


def _decode_matrix(doubles, rows: int, cols: int) -> np.ndarray:
    """Inverse of `_encode_matrix`, from a sequence of doubles: float64 when
    every imaginary part is exactly 0, else complex128."""
    arr = np.array(doubles, dtype=np.float64)
    if arr.shape != (2 * rows * cols,):
        raise ValidationError(f"matrix payload has {arr.size} doubles, expected {2 * rows * cols}")
    z = arr.view(np.complex128).reshape((rows, cols), order="F")
    return z if np.any(z.imag) else z.real


def to_json_dict(problem: RmepProblem) -> dict:
    blocks = []
    for blk in problem.blocks:
        m, n = blk.shape
        blocks.append(
            {
                "rows": m,
                "cols": n,
                "a": _encode_matrix(blk.a).tolist(),
                "b": [_encode_matrix(bi).tolist() for bi in blk.b],
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
    version = doc.get("version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValidationError(f"unsupported version {version!r}")
    try:
        k = check_integer("k", doc["k"], 1)
        blocks = []
        for entry in doc["blocks"]:
            m, n = check_integer("rows", entry["rows"], 1), check_integer("cols", entry["cols"], 1)
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


def _read_bytes(path) -> bytes:
    """The file's bytes, or a ValidationError when it cannot be read (missing,
    a directory, no read permission)."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def read_json(path):
    """The JSON value in the UTF-8 file at `path`: a ValidationError when the
    file cannot be read or holds no valid JSON."""
    data = _read_bytes(path)
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValidationError(f"{path} is not a JSON file: {exc}") from exc


def load_json(path) -> RmepProblem:
    return from_json_dict(read_json(path))


def save_binary(problem: RmepProblem, path) -> None:
    kind = 1 if isinstance(problem, MepProblem) else 0
    parts = [BINARY_MAGIC, struct.pack("<BI", kind, problem.k)]
    for blk in problem.blocks:
        m, n = blk.shape
        parts.append(struct.pack("<II", m, n))
        for mat in (blk.a,) + blk.b:
            parts.append(_encode_matrix(mat).tobytes())
    Path(path).write_bytes(b"".join(parts))


def _unpack(fmt: str, data: bytes, off: int):
    """(fields, offset after them) of `fmt` read at `off`."""
    end = off + struct.calcsize(fmt)
    if end > len(data):
        raise ValidationError("truncated binary problem file")
    return struct.unpack_from(fmt, data, off), end


def load_binary(path) -> RmepProblem:
    """The problem in a `save_binary` file, decoded by `from_json_dict` from
    the document its header and payloads spell."""
    data = _read_bytes(path)
    if not data.startswith(BINARY_MAGIC):
        raise ValidationError("bad magic header; not a binary problem file")
    (kind, k), off = _unpack("<BI", data, len(BINARY_MAGIC))
    blocks = []
    for _ in range(k):
        (m, n), off = _unpack("<II", data, off)
        count = 2 * m * n * (k + 1)  # doubles of the block's k + 1 matrices
        if off + 8 * count > len(data):
            raise ValidationError("truncated binary problem file")
        a, *b = np.frombuffer(data, dtype="<f8", count=count, offset=off).reshape(k + 1, 2 * m * n)
        blocks.append({"rows": m, "cols": n, "a": a, "b": b})
        off += 8 * count
    if off != len(data):
        raise ValidationError("trailing bytes after the last block")
    return from_json_dict({"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": "mep" if kind == 1 else "rmep",
                           "k": k, "blocks": blocks})
