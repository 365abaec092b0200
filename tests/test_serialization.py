"""The GKDC container: piecewise tensors and manifest validation."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from graphkd.errors import DataError, FormatError, ShapeError
from graphkd.serialization import (CHECKPOINT_MAGIC, FORMAT_VERSION, canonical_json,
                                   canonical_json_pieces, check_text, read_checkpoint,
                                   write_checkpoint)


def _raw_checkpoint(path, manifest, payload=b""):
    meta = canonical_json({"tensors": manifest}).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", FORMAT_VERSION)
                     + struct.pack("<Q", len(meta)) + meta + payload)


class TestPieces:
    def test_pieces_read_back_as_their_stack(self, tmp_path):
        rng = np.random.default_rng(0)
        pieces = [rng.normal(0, 1, (r, 3)) for r in (1, 4, 0, 2)]
        whole = np.vstack(pieces)
        p1, p2 = tmp_path / "a.gkdc", tmp_path / "b.gkdc"
        write_checkpoint(p1, {"m": 1}, [("x", pieces), ("empty", [])])
        write_checkpoint(p2, {"m": 1}, [("x", whole), ("empty", np.zeros((0, 0)))])
        assert p1.read_bytes() == p2.read_bytes()
        meta, tensors = read_checkpoint(p1)
        assert meta["tensors"][0] == {"name": "x", "rows": 7, "cols": 3}
        assert tensors["x"].tobytes() == whole.tobytes()
        assert tensors["empty"].shape == (0, 0)

    def test_pieces_of_different_widths_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_checkpoint(tmp_path / "x.gkdc", {},
                             [("x", [np.zeros((1, 2)), np.zeros((1, 3))])])


class TestManifestValidation:
    @pytest.mark.parametrize("entry", [
        {"name": "w", "cols": 1},
        {"name": "w", "rows": 1},
        {"name": "w", "rows": -1, "cols": 1},
        {"name": "w", "rows": 1.5, "cols": 1},
        {"name": "w", "rows": "1", "cols": 1},
        {"name": "w", "rows": True, "cols": 1},
        {"rows": 1, "cols": 1},
        ["w", 1, 1],
    ])
    def test_bad_entry_is_a_format_error(self, tmp_path, entry):
        path = tmp_path / "x.gkdc"
        _raw_checkpoint(path, [entry], payload=b"\0" * 8)
        with pytest.raises(FormatError, match="checkpoint"):
            read_checkpoint(path)

    def test_metadata_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "x.gkdc"
        meta = json.dumps([1, 2]).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", FORMAT_VERSION)
                         + struct.pack("<Q", len(meta)) + meta)
        with pytest.raises(FormatError, match="manifest"):
            read_checkpoint(path)

    def test_valid_entry_reads(self, tmp_path):
        path = tmp_path / "x.gkdc"
        _raw_checkpoint(path, [{"name": "w", "rows": 1, "cols": 1}],
                        payload=np.array([2.5], dtype="<f8").tobytes())
        _, tensors = read_checkpoint(path)
        assert tensors["w"].tolist() == [[2.5]]


class TestValues:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_a_format_error(self, tmp_path, value):
        path = tmp_path / "x.gkdc"
        _raw_checkpoint(path, [{"name": "w", "rows": 1, "cols": 2}],
                        payload=np.array([1.0, value], dtype="<f8").tobytes())
        with pytest.raises(FormatError, match="'w' holds non-finite"):
            read_checkpoint(path)


class TestCheckText:
    def test_accepts_any_encodable_string(self):
        for value in ("", "grüppe", "样本", "a\nb"):
            check_text(value, "field")

    @pytest.mark.parametrize("value, message", [
        (7, "field 'x' must be a string, got int"),
        (None, "field 'x' must be a string, got NoneType"),
        ("g\ud800", "field 'x' 'g\\ud800' holds an unpaired surrogate escape"),
    ])
    def test_names_the_field_with_the_given_error(self, value, message):
        with pytest.raises(FormatError) as info:
            check_text(value, "field 'x'")
        assert str(info.value) == message
        with pytest.raises(DataError):
            check_text(value, "field 'x'", DataError)


def _traced_peak(fn, *args):
    """The peak of traced memory while ``fn(*args)`` runs, and what it
    returned or raised."""
    tracemalloc.start()
    try:
        try:
            result = fn(*args)
        except FormatError as exc:
            result = exc
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestMetadataPieces:
    def _samples(self, n):
        return [{"sample_id": f"s{i}", "ids": ["question", f"t{i}", "ü"], "label": i % 3,
                 "triplet_rows": list(range(i % 5)), "x": 0.1 * i} for i in range(n)]

    @pytest.mark.parametrize("meta", [
        {}, {"a": []}, {"b": [[]], "a": {"z": 1, "y": [2, "ç"]}},
        {"samples": [{"k": 1}], "format": "f", "header": {"config": None}, "n": 1.5,
         "tensors": [{"name": "x", "rows": 2, "cols": 3}], "t": (1, "ü")},
    ])
    def test_pieces_join_to_the_canonical_json(self, meta):
        assert b"".join(canonical_json_pieces(meta)) == canonical_json(meta).encode("utf-8")

    def test_large_metadata_is_written_without_a_whole_copy(self, tmp_path):
        meta = {"format": "x", "samples": self._samples(6000)}
        encoded = canonical_json({**meta, "tensors": [{"name": "w", "rows": 1, "cols": 1}]})
        assert len(encoded) > 2**19
        path = tmp_path / "x.gkdc"
        peak, _ = _traced_peak(write_checkpoint, path, meta, [("w", np.ones((1, 1)))])
        assert peak < len(encoded) // 8
        raw = path.read_bytes()
        assert raw[16:16 + len(encoded.encode("utf-8"))] == encoded.encode("utf-8")
        assert read_checkpoint(path)[0] == json.loads(encoded)


class TestReadMemory:
    def test_read_holds_one_copy_of_each_tensor(self, tmp_path):
        path = tmp_path / "big.gkdc"
        big = np.random.default_rng(0).normal(0, 1, (1024, 1024))
        write_checkpoint(path, {"m": 1}, [("small", np.ones((3, 2))), ("big", big)])
        size = path.stat().st_size
        assert size > 8 * 2**20
        peak, (meta, tensors) = _traced_peak(read_checkpoint, path)
        assert tensors["big"].tobytes() == big.tobytes() and meta["m"] == 1
        assert peak <= 1.25 * size

    @pytest.mark.parametrize("rows", [2**40, 2**61])
    def test_forged_size_allocates_nothing(self, tmp_path, rows):
        path = tmp_path / "forged.gkdc"
        _raw_checkpoint(path, [{"name": "w", "rows": rows, "cols": 8}],
                        payload=np.ones(8).tobytes())
        peak, error = _traced_peak(read_checkpoint, path)
        assert isinstance(error, FormatError) and "truncated" in str(error)
        assert peak < 2**20

    def test_sizes_are_checked_before_any_tensor_is_read(self, tmp_path):
        """A later tensor that does not fit is found before an earlier,
        valid one is allocated."""
        path = tmp_path / "late.gkdc"
        _raw_checkpoint(path, [{"name": "a", "rows": 4096, "cols": 64},
                               {"name": "b", "rows": 2**40, "cols": 1}],
                        payload=np.ones(4096 * 64).tobytes())
        peak, error = _traced_peak(read_checkpoint, path)
        assert isinstance(error, FormatError) and "truncated" in str(error)
        assert peak < 2**20

    @pytest.mark.parametrize("extra, message", [(-1, "truncated"), (1, "trailing")])
    def test_payload_of_the_wrong_size(self, tmp_path, extra, message):
        path = tmp_path / "x.gkdc"
        payload = np.ones(6).tobytes()
        _raw_checkpoint(path, [{"name": "w", "rows": 2, "cols": 3}],
                        payload=payload[:extra] if extra < 0 else payload + b"\0" * extra)
        with pytest.raises(FormatError, match=message):
            read_checkpoint(path)

    def test_metadata_length_past_the_end_is_truncation(self, tmp_path):
        path = tmp_path / "x.gkdc"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", FORMAT_VERSION)
                         + struct.pack("<Q", 2**62) + b"{}")
        with pytest.raises(FormatError, match="truncated"):
            read_checkpoint(path)
