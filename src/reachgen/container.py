"""The one versioned binary container behind `.mot` and `.ckpt` files.

Layout: a 4-byte magic, a little-endian u16 version, a little-endian u64
header length, a UTF-8 JSON header written with sorted keys, then the arrays
back to back. The header holds the caller's fields plus an `arrays` manifest
of {name, dtype, shape} in write order. There are no timestamps, so equal
contents always give equal bytes.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import CorruptFileError, VersionMismatchError

DTYPES = ("<f8",)  # 8 bytes per value; never object or pickled
PREFIX_BYTES = 14  # magic (4) + version (2) + header length (8)


def write_container(path, magic: bytes, version: int, header: dict,
                    arrays: dict) -> None:
    """Write `header` fields and the named float64 `arrays`."""
    arrays = {name: np.asarray(a) for name, a in arrays.items()}
    manifest = [{"name": name, "dtype": a.dtype.newbyteorder("<").str,
                 "shape": list(a.shape)} for name, a in arrays.items()]
    if any(e["dtype"] not in DTYPES for e in manifest):
        raise ValueError(f"container arrays must have a dtype in {DTYPES}")
    blob = json.dumps({**header, "arrays": manifest}, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(magic + version.to_bytes(2, "little") + len(blob).to_bytes(8, "little"))
        f.write(blob)
        for e, a in zip(manifest, arrays.values()):
            f.write(np.ascontiguousarray(a, dtype=e["dtype"]).tobytes())


def _well_formed(entry) -> bool:
    return (isinstance(entry, dict) and set(entry) == {"name", "dtype", "shape"}
            and isinstance(entry["name"], str) and entry["dtype"] in DTYPES
            and isinstance(entry["shape"], list)
            and all(type(d) is int and d >= 0 for d in entry["shape"]))


def read_container(path, magic: bytes, version: int) -> tuple[dict, dict]:
    """Return (header fields, {name: array}). Another format version raises
    VersionMismatchError; every structural fault raises CorruptFileError."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != magic or len(raw) < PREFIX_BYTES:
        raise CorruptFileError(f"{path}: not a {magic.decode()} file, or truncated")
    found = int.from_bytes(raw[4:6], "little")
    if found != version:
        raise VersionMismatchError(f"{path}: format version {found}, expected {version}")
    end = PREFIX_BYTES + int.from_bytes(raw[6:PREFIX_BYTES], "little")
    if end > len(raw):
        raise CorruptFileError(f"{path}: truncated header")
    try:
        header = json.loads(raw[PREFIX_BYTES:end].decode("utf-8"))
    except ValueError as e:
        raise CorruptFileError(f"{path}: bad header ({e})") from e
    manifest = header.pop("arrays", None) if isinstance(header, dict) else None
    if (not isinstance(manifest, list) or not all(map(_well_formed, manifest))
            or len({e["name"] for e in manifest}) != len(manifest)):
        raise CorruptFileError(f"{path}: bad array manifest")
    counts = [math.prod(e["shape"]) for e in manifest]
    if len(raw) - end != 8 * sum(counts):
        raise CorruptFileError(
            f"{path}: payload has {len(raw) - end} bytes, manifest needs {8 * sum(counts)}")
    arrays = {}
    for e, n in zip(manifest, counts):
        arrays[e["name"]] = np.frombuffer(raw, e["dtype"], n, end).reshape(e["shape"]).copy()
        end += 8 * n
    return header, arrays
