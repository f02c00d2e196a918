"""Checkpoint archives: round trips, the archive layout, hashing, and failure modes."""
import hashlib
import json
import struct

import numpy as np
import pytest

from polarce.container import content_hash, load_container, save_container

from helpers import crandn, write_plce0001


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


class TestArchiveLayout:
    def test_members_and_meta(self, tmp_path, rng):
        arr = crandn(rng, 2, 3)
        path = tmp_path / "demo.plce"
        digest = save_container(path, {"a": arr, "idx": np.arange(3)}, {"tag": 7})
        assert [p.name for p in tmp_path.iterdir()] == ["demo.plce"]
        with np.load(path, allow_pickle=False) as npz:
            assert sorted(npz.files) == ["a", "idx", "meta.json"]
            assert npz["a"].dtype == "<c16" and npz["idx"].dtype == "<f8"
            np.testing.assert_array_equal(npz["a"], arr)
            head = json.loads(str(npz["meta.json"]))
        assert head == {"meta": {"tag": 7}, "sha256": digest}


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


RETRAIN = "retrain it with `polarce train stage1|stage2`"


class TestFailureModes:
    """Each way a file can fail to be an unchanged archive of save_container
    raises ValueError naming the cause and how to replace the file."""

    def _rejected(self, path, cause):
        with pytest.raises(ValueError, match=cause) as info:
            load_container(path)
        assert str(info.value).startswith("not a checkpoint") and RETRAIN in str(info.value)

    def _archive(self, tmp_path):
        path = tmp_path / "demo.plce"
        save_container(path, {"a": np.arange(4.0)})
        return path

    def _resave(self, path, **members):
        with open(path, "wb") as f:
            np.savez(f, **members)

    def test_bad_magic_rejected(self, tmp_path):
        # a checkpoint of the old format is not a zip archive
        path = tmp_path / "old.plce"
        write_plce0001(path, {"a": np.arange(4.0)}, {"kind": "stage2"})
        self._rejected(path, "not a zip archive")

    def test_bare_npy_rejected(self, tmp_path):
        path = tmp_path / "bare.plce"
        with open(path, "wb") as f:
            np.save(f, np.arange(4.0))
        self._rejected(path, "not a zip archive")

    def test_truncated_payload_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        self._rejected(path, "not a zip file")

    def test_corrupted_payload_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(np.arange(4.0).tobytes())] ^= 0xFF
        path.write_bytes(bytes(raw))
        self._rejected(path, "Bad CRC-32")

    def test_corrupted_compressed_member_rejected(self, tmp_path):
        # np.savez_compressed deflates members; a bad stream fails before its CRC
        path = tmp_path / "deflated.plce"
        a = np.arange(64.0)
        with open(path, "wb") as f:
            np.savez_compressed(f, a=a, **{"meta.json": json.dumps(
                {"meta": {}, "sha256": content_hash({"a": a})})})
        raw = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack("<HH", raw[26:30])   # a.npy's local header
        raw[30 + name_len + extra_len] ^= 0xFF                   # its first deflated byte
        path.write_bytes(bytes(raw))
        self._rejected(path, "while decompressing data")

    def test_rewritten_arrays_rejected(self, tmp_path):
        # valid CRCs, but arrays that are not those the meta hashed
        path = self._archive(tmp_path)
        with np.load(path, allow_pickle=False) as npz:
            head = str(npz["meta.json"])
        self._resave(path, a=np.arange(4.0) + 1, **{"meta.json": head})
        self._rejected(path, "do not match their stored sha256")

    def test_object_member_rejected(self, tmp_path):
        path = tmp_path / "obj.plce"
        self._resave(path, a=np.array([1.0, "x"], dtype=object),
                     **{"meta.json": json.dumps({"meta": {}, "sha256": ""})})
        self._rejected(path, "Object arrays cannot be loaded")

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "nometa.plce"
        self._resave(path, a=np.arange(4.0))
        self._rejected(path, "no meta.json member")
        # a meta member that is not an object holding both meta and sha256,
        # the right hash included, fails before its keys are read
        digest = content_hash({"a": np.arange(4.0)})
        for head in ["{}", "[]", '"x"', json.dumps({"sha256": digest}),
                     json.dumps({"meta": {}})]:
            self._resave(path, a=np.arange(4.0), **{"meta.json": head})
            self._rejected(path, "meta.json is not an object holding meta and sha256")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_container(tmp_path / "absent.plce")
