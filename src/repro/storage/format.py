"""Binary container format for persistent model artifacts.

An artifact is a single file holding named, CRC-checked sections:

* a fixed 24-byte header: magic, format version, section count and a CRC32
  of the section table, so header corruption is detected before any offset
  is trusted;
* a section table of ``(name, offset, length, crc32)`` entries;
* the section payloads, stored back to back in table order.

The full byte-level layout (including versioning and compatibility rules)
is specified in ``docs/ARTIFACT_FORMAT.md``; this module implements exactly
that spec.  What *goes into* each section -- codebooks, summary records,
index grids -- is the job of :mod:`repro.storage.io`; this module only
provides the container plus :class:`ByteWriter` / :class:`ByteReader`,
typed little-endian primitive codecs shared by every section serializer.

No pickle is involved anywhere: every value is written through an explicit,
versioned encoding, so artifacts are safe to load from untrusted sources
(worst case is a clean :class:`ArtifactError`, never code execution).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: File magic: identifies a PPQ-trajectory artifact (the trailing byte is
#: the container generation, bumped only on incompatible container changes).
MAGIC = b"PPQTRAJ\x01"

#: Version of the *section contents*; readers must reject newer versions.
#: Version 2 stores INDEX as whole-index arrays (``docs/ARTIFACT_FORMAT.md``).
FORMAT_VERSION = 2

#: Fixed size of a section name in the table (ASCII, NUL padded).
SECTION_NAME_LEN = 8

_HEADER = struct.Struct("<8sIII I".replace(" ", ""))  # magic, version, count, table_crc, reserved
_TABLE_ENTRY = struct.Struct("<8sQQI")

#: Numpy dtypes an artifact may contain, keyed by their on-disk code.
_DTYPE_CODES = {0: "<f8", 1: "<i8", 2: "<u1"}
_DTYPE_TO_CODE = {dtype: code for code, dtype in _DTYPE_CODES.items()}


class ArtifactError(Exception):
    """Base class for everything that can go wrong with a model artifact."""


class ArtifactFormatError(ArtifactError):
    """The file is not a well-formed artifact (bad magic, truncation, ...)."""


class ArtifactVersionError(ArtifactError):
    """The artifact was written by a newer, incompatible format version."""


class ArtifactChecksumError(ArtifactError):
    """A stored CRC32 does not match the bytes on disk (corruption)."""


class ByteWriter:
    """Append-only little-endian encoder used to build section payloads.

    All integers are fixed-width little-endian; byte strings and numpy
    arrays are length-prefixed so the matching :class:`ByteReader` calls
    need no out-of-band size information.
    """

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def _append(self, data: bytes) -> None:
        self._chunks.append(data)

    def u8(self, value: int) -> None:
        """Write an unsigned 8-bit integer."""
        self._append(struct.pack("<B", value))

    def u64(self, value: int) -> None:
        """Write an unsigned 64-bit integer."""
        self._append(struct.pack("<Q", value))

    def i64(self, value: int) -> None:
        """Write a signed 64-bit integer."""
        self._append(struct.pack("<q", value))

    def blob(self, data: bytes) -> None:
        """Write a ``u64`` length followed by the bytes."""
        self.u64(len(data))
        self._append(bytes(data))

    def array(self, arr: np.ndarray) -> None:
        """Write a numpy array: dtype code, ndim, dims, then the raw buffer.

        Only the dtypes listed in the format spec (float64, int64, uint8)
        are allowed; values are stored little-endian and C-contiguous, so
        the round trip is bit-exact.

        Raises
        ------
        ValueError
            If the array's dtype is not storable in an artifact.
        """
        arr = np.ascontiguousarray(arr)
        dtype = np.dtype(arr.dtype).newbyteorder("<")
        if dtype.str not in _DTYPE_TO_CODE:
            raise ValueError(f"dtype {arr.dtype} is not storable in an artifact")
        self.u8(_DTYPE_TO_CODE[dtype.str])
        self.u8(arr.ndim)
        for dim in arr.shape:
            self.u64(dim)
        self._append(arr.astype(dtype, copy=False).tobytes())

    def getvalue(self) -> bytes:
        """The payload written so far, as one bytes object."""
        return b"".join(self._chunks)


class ByteReader:
    """Sequential decoder matching :class:`ByteWriter`, with bounds checks.

    Every read raises :class:`ArtifactFormatError` instead of silently
    returning short data when the payload is truncated.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Number of unread bytes."""
        return len(self._data) - self._pos

    def _take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise ArtifactFormatError(
                f"truncated section: needed {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        """Read an unsigned 8-bit integer."""
        return struct.unpack("<B", self._take(1))[0]

    def u64(self) -> int:
        """Read an unsigned 64-bit integer."""
        return struct.unpack("<Q", self._take(8))[0]

    def i64(self) -> int:
        """Read a signed 64-bit integer."""
        return struct.unpack("<q", self._take(8))[0]

    def blob(self) -> bytes:
        """Read a ``u64``-length-prefixed byte string."""
        return self._take(self.u64())

    def array(self) -> np.ndarray:
        """Read a numpy array written by :meth:`ByteWriter.array`.

        Raises
        ------
        ArtifactFormatError
            On an unknown dtype code or a truncated buffer.
        """
        code = self.u8()
        if code not in _DTYPE_CODES:
            raise ArtifactFormatError(f"unknown array dtype code {code}")
        dtype = np.dtype(_DTYPE_CODES[code])
        ndim = self.u8()
        shape = tuple(self.u64() for _ in range(ndim))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        buffer = self._take(count * dtype.itemsize)
        return np.frombuffer(buffer, dtype=dtype).reshape(shape).copy()


@dataclass(frozen=True)
class SectionInfo:
    """One row of an artifact's section table, plus its verification status.

    Attributes
    ----------
    name:
        Section name (ASCII, at most 8 characters).
    offset, length:
        Byte range of the payload within the file.
    crc32:
        CRC32 stored in the table for this payload.
    crc_ok:
        Whether the payload bytes on disk currently match ``crc32``.
    """

    name: str
    offset: int
    length: int
    crc32: int
    crc_ok: bool


def pack_artifact(sections: list[tuple[str, bytes]]) -> bytes:
    """Assemble named section payloads into a complete artifact blob.

    Parameters
    ----------
    sections:
        Ordered ``(name, payload)`` pairs; names must be ASCII and at most
        :data:`SECTION_NAME_LEN` characters, and unique.

    Returns
    -------
    bytes
        The artifact: header, CRC-protected section table, payloads.

    Raises
    ------
    ValueError
        On an invalid or duplicate section name.
    """
    seen: set[str] = set()
    for name, _ in sections:
        if not name or len(name) > SECTION_NAME_LEN or not name.isascii():
            raise ValueError(f"invalid section name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate section name {name!r}")
        seen.add(name)

    table = bytearray()
    offset = _HEADER.size + _TABLE_ENTRY.size * len(sections)
    for name, payload in sections:
        table += _TABLE_ENTRY.pack(
            name.encode("ascii").ljust(SECTION_NAME_LEN, b"\x00"),
            offset, len(payload), zlib.crc32(payload),
        )
        offset += len(payload)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(sections), zlib.crc32(bytes(table)), 0)
    return header + bytes(table) + b"".join(payload for _, payload in sections)


def _parse_table(blob: bytes, strict: bool = True) -> tuple[int, list[SectionInfo]]:
    """Validate header and table of ``blob``; return (version, sections).

    With ``strict=False`` a section whose extent runs outside the file (the
    typical shape of a truncated download) is clamped to the available bytes
    and reported with ``crc_ok=False`` instead of raising, so salvage loads
    can still recover the intact sections.  Header/table damage always
    raises: without a trustworthy table there is nothing to salvage.

    Raises
    ------
    ArtifactFormatError
        On bad magic, truncation, or (in strict mode) out-of-range section
        extents.
    ArtifactVersionError
        If the artifact's format version is newer than this reader.
    ArtifactChecksumError
        If the section table's own CRC32 does not match.
    """
    if len(blob) < _HEADER.size:
        raise ArtifactFormatError(
            f"file too short to be an artifact ({len(blob)} bytes, "
            f"need at least {_HEADER.size})"
        )
    magic, version, count, table_crc, reserved = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ArtifactFormatError(
            f"bad magic {magic!r}: not a PPQ-trajectory model artifact"
        )
    if reserved != 0:
        raise ArtifactFormatError("reserved header field must be zero in this format version")
    if version > FORMAT_VERSION:
        raise ArtifactVersionError(
            f"artifact format version {version} is newer than the supported "
            f"version {FORMAT_VERSION}; upgrade the library to read it"
        )
    table_end = _HEADER.size + _TABLE_ENTRY.size * count
    if len(blob) < table_end:
        raise ArtifactFormatError("truncated artifact: section table is incomplete")
    table_bytes = blob[_HEADER.size:table_end]
    if zlib.crc32(table_bytes) != table_crc:
        raise ArtifactChecksumError("section table checksum mismatch (corrupt header)")

    sections = []
    for i in range(count):
        raw_name, offset, length, crc = _TABLE_ENTRY.unpack_from(table_bytes, i * _TABLE_ENTRY.size)
        name = raw_name.rstrip(b"\x00").decode("ascii", errors="replace")
        if offset < table_end or offset + length > len(blob):
            if strict:
                raise ArtifactFormatError(
                    f"section {name!r} extends outside the file "
                    f"(offset {offset}, length {length}, file size {len(blob)})"
                )
            clamped_offset = min(max(offset, table_end), len(blob))
            clamped_length = max(0, min(length, len(blob) - clamped_offset))
            payload = blob[clamped_offset:clamped_offset + clamped_length]
            sections.append(SectionInfo(
                name=name, offset=clamped_offset, length=clamped_length, crc32=crc,
                crc_ok=clamped_length == length and zlib.crc32(payload) == crc,
            ))
            continue
        payload = blob[offset:offset + length]
        sections.append(SectionInfo(name=name, offset=offset, length=length,
                                    crc32=crc, crc_ok=zlib.crc32(payload) == crc))
    return version, sections


def unpack_artifact(blob: bytes) -> tuple[int, dict[str, bytes]]:
    """Split an artifact blob into its named section payloads.

    Every section's CRC32 is checked; a mismatch raises
    :class:`ArtifactChecksumError`.

    Parameters
    ----------
    blob:
        The full artifact file contents.

    Returns
    -------
    (format_version, sections):
        The artifact's format version and a name -> payload mapping.

    Raises
    ------
    ArtifactFormatError, ArtifactVersionError, ArtifactChecksumError
        See :func:`_parse_table`; additionally a per-section checksum
        mismatch.
    """
    version, infos = _parse_table(blob)
    bad = [info.name for info in infos if not info.crc_ok]
    if bad:
        raise ArtifactChecksumError(
            f"checksum mismatch in section(s) {', '.join(sorted(bad))}: "
            "the artifact is corrupt"
        )
    return version, {info.name: blob[info.offset:info.offset + info.length] for info in infos}


def inspect_artifact(blob: bytes, strict: bool = True) -> tuple[int, list[SectionInfo]]:
    """Parse the header/table and report per-section checksum status.

    Unlike :func:`unpack_artifact` this never raises on payload corruption
    (the status is reported in :attr:`SectionInfo.crc_ok` instead), so it is
    what ``repro info`` uses to describe damaged files.  Structural damage
    to the header or table itself still raises; ``strict=False`` additionally
    tolerates truncated section extents (see :func:`_parse_table`), which is
    what salvage loads use.
    """
    return _parse_table(blob, strict=strict)


def write_artifact_file(path: str | Path, sections: list[tuple[str, bytes]]) -> Path:
    """:func:`pack_artifact` the sections and write them to ``path``.

    The blob is written to a temporary sibling file first and atomically
    renamed into place, so readers never observe a half-written artifact.
    """
    path = Path(path)
    blob = pack_artifact(sections)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)
    return path
