"""Array container format: byte layout, hashing, and failure modes."""
import hashlib
import json
import struct

import numpy as np
import pytest

from polarce.container import (bytes_hash, content_hash, load_container,
                               save_container)

from helpers import crandn


@pytest.fixture
def sample_arrays(rng):
    return {
        "weights": crandn(rng, 3, 4),
        "scales": rng.standard_normal(5),
        "single": np.array(2.5),
    }


class TestRoundTrip:
    def test_values_shapes_meta(self, tmp_path, sample_arrays):
        meta = {"kind": "demo", "config": {"layers": 3, "lr": 1e-3}}
        path = tmp_path / "demo.plce"
        save_container(path, sample_arrays, meta)
        arrays, got_meta = load_container(path)
        assert got_meta == meta
        assert set(arrays) == set(sample_arrays)
        for name, want in sample_arrays.items():
            got = arrays[name]
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_complex_dtype_preserved(self, tmp_path, sample_arrays):
        path = tmp_path / "demo.plce"
        save_container(path, sample_arrays)
        arrays, meta = load_container(path)
        assert arrays["weights"].dtype == np.complex128
        assert arrays["scales"].dtype == np.float64
        assert meta == {}

    def test_zero_d_and_empty(self, tmp_path):
        path = tmp_path / "demo.plce"
        save_container(path, {"s": np.array(1.5), "e": np.zeros((0, 3))})
        arrays, _ = load_container(path)
        assert arrays["s"].shape == ()
        assert arrays["s"] == 1.5
        assert arrays["e"].shape == (0, 3)

    def test_no_arrays(self, tmp_path):
        path = tmp_path / "empty.plce"
        save_container(path, {}, {"note": "nothing"})
        arrays, meta = load_container(path)
        assert arrays == {}
        assert meta == {"note": "nothing"}

    def test_int_input_comes_back_float(self, tmp_path):
        path = tmp_path / "demo.plce"
        save_container(path, {"idx": np.arange(4)})
        arrays, _ = load_container(path)
        assert arrays["idx"].dtype == np.float64
        np.testing.assert_array_equal(arrays["idx"], [0.0, 1.0, 2.0, 3.0])

    def test_non_contiguous_input(self, tmp_path, rng):
        base = crandn(rng, 4, 6)
        path = tmp_path / "demo.plce"
        save_container(path, {"t": base.T})
        arrays, _ = load_container(path)
        np.testing.assert_array_equal(arrays["t"], base.T)

    def test_loaded_arrays_are_writable(self, tmp_path, sample_arrays):
        path = tmp_path / "demo.plce"
        save_container(path, sample_arrays)
        arrays, _ = load_container(path)
        for arr in arrays.values():
            assert arr.flags.writeable


class TestByteLayout:
    def test_header_and_payload_structure(self, tmp_path, rng):
        arr = crandn(rng, 2, 3)
        path = tmp_path / "demo.plce"
        digest = save_container(path, {"a": arr}, {"tag": 7})
        raw = path.read_bytes()
        assert raw[:8] == b"PLCE0001"
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
        assert header["version"] == 1
        assert header["meta"] == {"tag": 7}
        assert header["hash"] == digest
        info = header["arrays"]["a"]
        assert info == {"shape": [2, 3], "kind": "c128",
                        "offset": 0, "count": 12}
        payload = raw[12 + hlen:]
        flat = np.frombuffer(payload, dtype="<f8")
        np.testing.assert_array_equal(flat[0::2], arr.real.reshape(-1))
        np.testing.assert_array_equal(flat[1::2], arr.imag.reshape(-1))

    def test_payload_interleaving_by_hand(self, tmp_path):
        arr = np.array([1.0 + 2.0j, 3.0 - 4.0j])
        path = tmp_path / "demo.plce"
        save_container(path, {"z": arr})
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        assert raw[12 + hlen:] == struct.pack("<4d", 1.0, 2.0, 3.0, -4.0)

    def test_offsets_stack_in_insertion_order(self, tmp_path, rng):
        arrays = {"first": rng.standard_normal(3),
                  "second": crandn(rng, 2)}
        path = tmp_path / "demo.plce"
        save_container(path, arrays)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        index = json.loads(raw[12:12 + hlen].decode("utf-8"))["arrays"]
        assert index["first"]["offset"] == 0
        assert index["first"]["count"] == 3
        assert index["second"]["offset"] == 3
        assert index["second"]["count"] == 4


class TestHashing:
    def test_save_digest_matches_content_hash(self, tmp_path, sample_arrays):
        path = tmp_path / "demo.plce"
        digest = save_container(path, sample_arrays)
        assert digest == content_hash(sample_arrays)

    def test_content_hash_independent_oracle(self):
        arrays = {"z": np.array([1.0 + 2.0j, 3.0 - 4.0j]),
                  "r": np.array([5.0])}
        blob = struct.pack("<4d", 1.0, 2.0, 3.0, -4.0) + struct.pack("<d", 5.0)
        assert content_hash(arrays) == hashlib.sha256(blob).hexdigest()

    def test_content_hash_sensitive_to_values(self, sample_arrays):
        base = content_hash(sample_arrays)
        bumped = dict(sample_arrays)
        bumped["scales"] = sample_arrays["scales"] + 1e-12
        assert content_hash(bumped) != base

    def test_bytes_hash_known_value(self):
        empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        assert bytes_hash(b"") == empty
        assert bytes_hash(b"abc") == hashlib.sha256(b"abc").hexdigest()


class TestFailureModes:
    def _write_then_mangle(self, tmp_path, mangle):
        path = tmp_path / "demo.plce"
        save_container(path, {"a": np.arange(4.0)})
        raw = bytearray(path.read_bytes())
        mangle(raw)
        path.write_bytes(bytes(raw))
        return path

    def test_bad_magic_rejected(self, tmp_path):
        def mangle(raw):
            raw[0:4] = b"NOPE"
        path = self._write_then_mangle(tmp_path, mangle)
        with pytest.raises(ValueError, match="not a container"):
            load_container(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        def mangle(raw):
            raw[-1] ^= 0xFF
        path = self._write_then_mangle(tmp_path, mangle)
        with pytest.raises(ValueError, match="hash mismatch"):
            load_container(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "demo.plce"
        save_container(path, {"a": np.arange(4.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="hash mismatch"):
            load_container(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "demo.plce"
        save_container(path, {"a": np.arange(4.0)})
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
        header["version"] = 2
        hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(hbytes)) + hbytes
                         + raw[12 + hlen:])
        with pytest.raises(ValueError, match="version"):
            load_container(path)

    def test_unknown_array_kind_rejected(self, tmp_path):
        path = tmp_path / "demo.plce"
        save_container(path, {"a": np.arange(4.0)})
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
        header["arrays"]["a"]["kind"] = "i32"
        hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(hbytes)) + hbytes
                         + raw[12 + hlen:])
        with pytest.raises(ValueError, match="kind"):
            load_container(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_container(tmp_path / "absent.plce")
