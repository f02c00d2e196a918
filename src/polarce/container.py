"""Model checkpoints as numpy `.npz` archives that `np.load(path, allow_pickle=False)` opens.

One member per array, under its name as float64 or complex128, and "meta.json":
the JSON string {"meta": ..., "sha256": ...}, with the sha256 of the arrays as
little-endian float64, complex as re/im pairs. Loading raises ValueError for a
file that is not a zip archive (a bare `.npy`, an old checkpoint), a truncated
or corrupt one, object data, no "meta.json" or one that is not such an
object, or arrays with another hash.
"""
from __future__ import annotations

import hashlib
import json
import zipfile
import zlib

import numpy as np

__all__ = ["save_container", "load_container", "content_hash"]


def _widen(a) -> np.ndarray:
    return np.asarray(a, dtype="<c16" if np.iscomplexobj(a) else "<f8", order="C")


def save_container(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> str:
    """Write arrays+meta to path, which gets no suffix; returns the content hash."""
    arrays = {name: _widen(a) for name, a in arrays.items()}
    head = {"meta": dict(meta or {}), "sha256": content_hash(arrays)}
    with open(path, "wb") as f:
        np.savez(f, **arrays, **{"meta.json": json.dumps(head, sort_keys=True)})
    return head["sha256"]


def load_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back (arrays, meta) of an archive save_container wrote, unchanged since."""
    try:
        with open(path, "rb") as f:
            if f.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):   # what np.load reads as .npz
                raise ValueError("not a zip archive")
            f.seek(0)
            with np.load(f, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        if "meta.json" not in arrays:
            raise ValueError("no meta.json member")
        head = json.loads(str(arrays.pop("meta.json")))
        if not (isinstance(head, dict) and {"meta", "sha256"} <= head.keys()):
            raise ValueError("meta.json is not an object holding meta and sha256")
        if content_hash(arrays) != head["sha256"]:
            raise ValueError("arrays do not match their stored sha256")
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as e:
        raise ValueError(f"not a checkpoint of this version ({e}); "
                         "retrain it with `polarce train stage1|stage2`") from e
    return arrays, head["meta"]


def content_hash(arrays: dict[str, np.ndarray]) -> str:
    """sha256 of the arrays' float64 bytes, without writing a file."""
    h = hashlib.sha256()
    for a in arrays.values():
        h.update(_widen(a))
    return h.hexdigest()
