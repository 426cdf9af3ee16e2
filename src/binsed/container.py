"""Binary records: the one on-disk format of features, targets and checkpoints.

Little-endian layout: a 4-byte magic, a uint32 version, a uint32 header
length, a sorted-key UTF-8 JSON header whose "arrays" entry lists each array
as [name, dtype, shape] in write order, then the arrays' raw C-order bytes.

A feature container (magic ``BSF1``) has the header
``{"blocks": [[name, width], ...]}`` and one float32 array, ``values``, of
shape (frames, total width).  Event-activity rolls reuse it with one width-1
block per class, so targets and features share one format.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import DataError
from .layout import FeatureLayout, FeatureMatrix

MAGIC = b"BSF1"
VERSION = 2
_DTYPES = ("<f4", "<f8")


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def write_record(path: str | os.PathLike, magic: bytes, version: int,
                 header: dict, arrays: dict) -> None:
    """Write a record atomically and byte-deterministically.

    ``arrays`` maps each name to an ``(array, dtype)`` pair, in write order.
    """
    flat = {name: np.asarray(values, dtype=dtype)
            for name, (values, dtype) in arrays.items()}
    text = json.dumps({**header, "arrays": [
        [name, values.dtype.str, list(values.shape)]
        for name, values in flat.items()]}, sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, b"".join([
        magic, struct.pack("<II", version, len(text)), text,
        *(values.tobytes() for values in flat.values())]))


def read_record(path: str | os.PathLike, magic: bytes, version: int,
                what: str, advice: str) -> tuple[dict, dict]:
    """The header (without "arrays") and the named arrays of a record.

    The arrays are read-only views of the file's bytes.  An unreadable file,
    another magic or version, a malformed header, and a file shorter or longer
    than its arrays are each a DataError naming ``what``.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc
    if blob[:4] != magic:
        raise DataError(f"not a {what}: {path}")
    if len(blob) < 12:
        raise DataError(f"{what} truncated: {path}")
    found, length = struct.unpack_from("<II", blob, 4)
    if found != version:
        raise DataError(f"unsupported {what} version {found} in {path}; "
                        f"{advice}")
    offset = 12 + length
    if offset > len(blob):
        raise DataError(f"{what} truncated: {path}")
    try:
        header = json.loads(blob[12:offset])
        specs = [(name, dtype, tuple(shape))
                 for name, dtype, shape in header.pop("arrays")]
        for name, dtype, shape in specs:
            if (not isinstance(name, str) or dtype not in _DTYPES
                    or not all(type(n) is int and n >= 0 for n in shape)):
                raise ValueError(f"array {name!r}: {dtype!r} {shape!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what} header in {path}") from exc
    arrays = {}
    for name, dtype, shape in specs:
        count = math.prod(shape)
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(blob):
            raise DataError(f"{what} truncated: {path}")
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                     offset=offset).reshape(shape)
        offset = end
    if offset != len(blob):
        raise DataError(f"{what} has bytes past its arrays: {path}")
    return header, arrays


def write_features(path: str | os.PathLike, matrix: FeatureMatrix) -> None:
    """Serialise a feature matrix; the write is atomic."""
    write_record(path, MAGIC, VERSION, {"blocks": matrix.layout.blocks},
                 {"values": (matrix.values, "<f4")})


def read_features(path: str | os.PathLike) -> FeatureMatrix:
    """Read a feature container back into a FeatureMatrix (float32 precision)."""
    header, arrays = read_record(path, MAGIC, VERSION, "feature container",
                                 "re-run the extract command")
    try:
        return FeatureMatrix(values=arrays["values"], layout=FeatureLayout(
            tuple(map(tuple, header["blocks"]))))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed feature container in {path}: "
                        f"{exc}") from exc


def export_csv(path: str | os.PathLike, matrix: FeatureMatrix) -> None:
    """Plain-text mirror of a container: header of column names, one row per frame."""
    lines = [",".join(matrix.layout.column_names())]
    for row in matrix.values:
        lines.append(",".join(format(v, ".9g") for v in row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
