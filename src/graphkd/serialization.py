"""Versioned binary containers and canonical JSON helpers.

The ``GKDC`` checkpoint container lives here: magic ``GKDC``, version u32
LE, metadata length u64 LE, canonical-JSON metadata (UTF-8, includes the
tensor manifest: one ``{"name", "rows", "cols"}`` entry per tensor, with
non-negative integer sizes), then all tensors concatenated as f64 LE
row-major in manifest order, every value finite. Teacher and student
checkpoints share it, and so does the graphs companion ``<graphs>.gkdc``
that ``graphs.write_graphs`` writes beside a graphs file (its layout is
described in ``graphs``). ``_Reader`` is the byte cursor shared with the
embedding store format of ``embeddings``.

Writers are canonical: the same logical content always produces the same
bytes, so write -> read -> write is byte-identical. ``utf8_lines`` is how
the text readers read their files, and ``check_text`` how they check a
string they read. Only the tensor reader and writer import numpy, so the
text helpers cost a command that reads no tensor nothing more.
"""

from __future__ import annotations

import json
import os
import struct
from typing import TYPE_CHECKING

from .errors import FormatError, ShapeError

if TYPE_CHECKING:  # numpy is imported where tensors are read and written
    import numpy as np

CHECKPOINT_MAGIC = b"GKDC"
FORMAT_VERSION = 1


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, raw UTF-8."""
    return _CANONICAL.encode(obj)


def canonical_json_pieces(obj: dict):
    """``canonical_json(obj).encode("utf-8")`` for a dict with str keys, in
    pieces: one per key, and one per item of a list value."""
    for i, (key, value) in enumerate(sorted(obj.items())):
        yield f'{"," if i else "{"}{canonical_json(key)}:'.encode("utf-8")
        if not isinstance(value, list):
            yield canonical_json(value).encode("utf-8")
            continue
        for j, item in enumerate(value):
            yield f'{"," if j else "["}{canonical_json(item)}'.encode("utf-8")
        yield b"]" if value else b"[]"
    yield b"}" if obj else b"{}"


def check_text(value, what: str, error: type[Exception] = FormatError) -> None:
    """Raise ``error`` naming ``what`` unless ``value`` is a str that UTF-8
    can encode: JSON's \\u escapes can spell an unpaired surrogate, which no
    output file could then hold."""
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {type(value).__name__}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise error(f"{what} {value!r} holds an unpaired surrogate escape") from exc


def utf8_lines(path):
    """The lines of the text file at ``path``, read lazily. Bytes that are
    not UTF-8 are a ``FormatError`` that names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc.reason} "
                              f"({exc.object[exc.start:exc.end]!r})") from exc


class _Reader:
    """Byte cursor that raises FormatError with the failing offset."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated {self.what}: wanted {n} bytes", offset=self.pos)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise FormatError(f"bad magic in {self.what}: expected {magic!r}, got {got!r}",
                              offset=0)

    def expect_version(self, version: int) -> None:
        at = self.pos
        got = self.u32()
        if got != version:
            raise FormatError(f"unsupported {self.what} version {got}", offset=at)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} trailing bytes in {self.what}",
                              offset=self.pos)


# ---------------------------------------------------------------------------
# GKDC checkpoint container
# ---------------------------------------------------------------------------

def write_checkpoint(path, metadata: dict,
                     tensors: list[tuple[str, np.ndarray | list[np.ndarray]]]) -> None:
    """Write a checkpoint; the tensor manifest is embedded into the metadata.

    A tensor given as a list of 2-D arrays with equal column counts is their
    row-wise stack (an empty list is 0 x 0). It is written piece by piece,
    so a large tensor never has to exist as one array."""
    import numpy as np

    parts = [(name, [value] if isinstance(value, np.ndarray) else value)
             for name, value in tensors]
    manifest = []
    for name, pieces in parts:
        widths = {int(p.shape[1]) for p in pieces}
        if len(widths) > 1:
            raise ShapeError(f"tensor '{name}' stacks pieces of widths {sorted(widths)}")
        manifest.append({"name": name, "rows": sum(int(p.shape[0]) for p in pieces),
                         "cols": widths.pop() if widths else 0})
    meta = {**metadata, "tensors": manifest}
    # Encoded twice, once for its length: the metadata is never one string.
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", sum(map(len, canonical_json_pieces(meta)))))
        fh.writelines(canonical_json_pieces(meta))
        for _, pieces in parts:
            for piece in pieces:
                fh.write(np.ascontiguousarray(piece, dtype="<f8").tobytes())


def _check_manifest_entry(entry, at: int) -> None:
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise FormatError("checkpoint manifest entry lacks a tensor name", offset=at)
    for key in ("rows", "cols"):
        value = entry.get(key)
        # bool is an int subclass; JSON true is not a size.
        if type(value) is not int or value < 0:
            raise FormatError(f"checkpoint tensor '{entry['name']}' has {key} {value!r}, "
                              f"expected a non-negative integer", offset=at)


def read_checkpoint_data(path) -> tuple[dict, np.ndarray]:
    """Metadata of the checkpoint at ``path``, and all its tensors as one
    flat f64 array in manifest order. The manifest is checked, and its
    sizes against the file's size, before the array is allocated, so a
    forged size is a ``FormatError`` that costs nothing. The tensors are
    then read straight from the file into the array: one copy of their
    bytes, never the whole file at once."""
    import numpy as np

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        reader = _Reader(fh.read(16), "checkpoint")
        reader.expect_magic(CHECKPOINT_MAGIC)
        reader.expect_version(FORMAT_VERSION)
        meta_len = reader.u64()
        at = reader.pos
        if meta_len > size - at:
            raise FormatError(f"truncated checkpoint: wanted {meta_len} bytes", offset=at)
        try:
            metadata = json.loads(fh.read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable checkpoint metadata: {exc}", offset=at) from exc
        manifest = metadata.get("tensors") if isinstance(metadata, dict) else None
        if not isinstance(manifest, list):
            raise FormatError("checkpoint metadata lacks a tensor manifest", offset=at)
        start = end = at + meta_len
        for entry in manifest:
            _check_manifest_entry(entry, at)
            wanted = entry["rows"] * entry["cols"] * 8
            if wanted > size - end:
                raise FormatError(f"truncated checkpoint: wanted {wanted} bytes", offset=end)
            end += wanted
        if end != size:
            raise FormatError(f"{size - end} trailing bytes in checkpoint", offset=end)
        data = np.empty((end - start) // 8, dtype="<f8")
        if fh.readinto(data.view(np.uint8)) != data.nbytes:
            raise FormatError(f"checkpoint {path} changed while it was read", offset=start)
    for entry, (first, stop) in zip(manifest, _spans(manifest)):
        if not np.isfinite(data[first:stop]).all():
            raise FormatError(f"checkpoint tensor '{entry['name']}' holds non-finite values",
                              offset=start + 8 * first)
    return metadata, data


def _spans(manifest: list[dict]):
    """Each tensor's (first, stop) values of the flat tensor data."""
    at = 0
    for entry in manifest:
        yield at, at + entry["rows"] * entry["cols"]
        at += entry["rows"] * entry["cols"]


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Metadata and tensors of the checkpoint at ``path``, read by
    ``read_checkpoint_data``: each tensor is a writable rows x cols view of
    its span of the one flat array."""
    metadata, data = read_checkpoint_data(path)
    manifest = metadata["tensors"]
    return metadata, {entry["name"]: data[first:stop].reshape(entry["rows"], entry["cols"])
                      for entry, (first, stop) in zip(manifest, _spans(manifest))}
