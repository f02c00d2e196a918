"""Single-file array container and model checkpoints.

Layout (little-endian throughout):

    bytes 0..7    magic b"PLCE0001"
    bytes 8..11   uint32 header length H
    bytes 12..    UTF-8 JSON header of length H
    then          packed array payload

The header is {"version": 1, "meta": {...}, "arrays": {name: {"shape", "kind",
"offset", "count"}}} with kind "f64" (float64) or "c128" (complex numbers
stored as interleaved re/im float64 pairs). Offsets count float64 items from
the start of the payload. Checkpoints are containers whose meta carries the
model kind, config echo, and a content hash over the payload.
"""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

__all__ = ["save_container", "load_container", "content_hash", "bytes_hash"]

MAGIC = b"PLCE0001"
FORMAT_VERSION = 1


def _flatten(arr: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(arr)
    if np.iscomplexobj(a):
        out = np.empty(a.size * 2, dtype="<f8")
        out[0::2] = a.real.reshape(-1)
        out[1::2] = a.imag.reshape(-1)
        return out
    return a.astype("<f8", copy=False).reshape(-1)


def save_container(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> str:
    """Write arrays+meta; returns the sha256 content hash of the payload."""
    index = {}
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        kind = "c128" if np.iscomplexobj(arr) else "f64"
        flat = _flatten(arr)
        index[name] = {"shape": list(arr.shape), "kind": kind,
                       "offset": offset, "count": int(flat.size)}
        chunks.append(flat.tobytes())
        offset += flat.size
    payload = b"".join(chunks)
    digest = hashlib.sha256(payload).hexdigest()
    header = {"version": FORMAT_VERSION, "meta": dict(meta or {}),
              "hash": digest, "arrays": index}
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        f.write(payload)
    return digest


def load_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back (arrays, meta); verifies magic, version and payload hash."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a container file")
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    if header["version"] != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported container version {header['version']}")
    payload = raw[12 + hlen:]
    if hashlib.sha256(payload).hexdigest() != header["hash"]:
        raise ValueError(f"{path}: payload hash mismatch")
    flat = np.frombuffer(payload, dtype="<f8")
    arrays = {}
    for name, info in header["arrays"].items():
        seg = flat[info["offset"]:info["offset"] + info["count"]]
        if info["kind"] == "c128":
            arr = seg[0::2] + 1j * seg[1::2]
        elif info["kind"] == "f64":
            arr = seg.copy()
        else:
            raise ValueError(f"{path}: unknown array kind {info['kind']!r}")
        arrays[name] = arr.reshape(info["shape"])
    return arrays, header["meta"]


def content_hash(arrays: dict[str, np.ndarray]) -> str:
    """Hash of the packed payload without writing a file."""
    h = hashlib.sha256()
    for name in arrays:
        h.update(_flatten(np.asarray(arrays[name])).tobytes())
    return h.hexdigest()


def bytes_hash(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()
