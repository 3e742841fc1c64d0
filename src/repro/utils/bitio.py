"""Bit-level I/O used for compact storage accounting.

Trajectory-ID lists inside grid cells (Section 5.1 of the paper) are stored
as delta-encoded integers followed by Huffman coding; CQC codes are short
variable-length bit strings.  Both need an exact bit-level representation so
that index sizes and compression ratios can be measured faithfully.
"""

from __future__ import annotations


class BitWriter:
    """Accumulates bits most-significant-bit first and renders them to bytes.

    Example
    -------
    >>> w = BitWriter()
    >>> w.write_bits(0b101, 3)
    >>> w.write_bit(1)
    >>> w.bit_length
    4
    >>> w.to_bytes()
    b'\\xb0'
    """

    def __init__(self) -> None:
        self._bits: list[int] = []

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self._bits)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (``0`` or ``1``)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._bits.append(bit)

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant bit first."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0:
            raise ValueError("value must be non-negative")
        if width and value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def write_code(self, code: str) -> None:
        """Append a binary code given as a string of ``'0'``/``'1'`` chars."""
        for ch in code:
            if ch == "0":
                self._bits.append(0)
            elif ch == "1":
                self._bits.append(1)
            else:
                raise ValueError(f"invalid character {ch!r} in binary code")

    def write_unary(self, value: int) -> None:
        """Append ``value`` as a unary code: ``value`` ones then a zero."""
        if value < 0:
            raise ValueError("unary values must be non-negative")
        self._bits.extend([1] * value)
        self._bits.append(0)

    def write_elias_gamma(self, value: int) -> None:
        """Append a positive integer using Elias gamma coding."""
        if value <= 0:
            raise ValueError("Elias gamma requires a positive integer")
        width = value.bit_length()
        self._bits.extend([0] * (width - 1))
        self.write_bits(value, width)

    def to_bytes(self) -> bytes:
        """Render the bit stream as bytes, padding the tail with zeros."""
        out = bytearray()
        acc = 0
        count = 0
        for bit in self._bits:
            acc = (acc << 1) | bit
            count += 1
            if count == 8:
                out.append(acc)
                acc = 0
                count = 0
        if count:
            out.append(acc << (8 - count))
        return bytes(out)

    def to_bitstring(self) -> str:
        """Return the raw bit stream as a string of ``'0'``/``'1'``."""
        return "".join("1" if b else "0" for b in self._bits)


def pack_uint(value: int, bit_length: int) -> bytes:
    """Render ``value`` as a ``bit_length``-bit stream, zero-padded to whole bytes.

    Bits are laid out most-significant first, exactly like
    :meth:`BitWriter.to_bytes`; :func:`read_uint` is the inverse.

    >>> pack_uint(0b1011, 4)
    b'\\xb0'
    """
    pad = -bit_length % 8
    return (value << pad).to_bytes((bit_length + pad) // 8, "big")


def read_uint(data: bytes, bit_length: int) -> int:
    """The first ``bit_length`` bits of ``data`` as one unsigned integer.

    This reads a whole stream at once, with one integer conversion instead
    of one step per bit.  Raises ``EOFError`` when ``data`` holds fewer than
    ``bit_length`` bits.

    >>> read_uint(b'\\xb0', 4) == 0b1011
    True
    """
    spare = 8 * len(data) - bit_length
    if spare < 0:
        raise EOFError(f"bit stream holds {8 * len(data)} bits, {bit_length} requested")
    return int.from_bytes(data, "big") >> spare


class BitReader:
    """Reads bits most-significant-bit first from bytes or a bit string."""

    def __init__(self, data: bytes | str, bit_length: int | None = None) -> None:
        if isinstance(data, str):
            self._bits = [1 if ch == "1" else 0 for ch in data]
        else:
            self._bits = []
            for byte in data:
                for shift in range(7, -1, -1):
                    self._bits.append((byte >> shift) & 1)
        if bit_length is not None:
            self._bits = self._bits[:bit_length]
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return len(self._bits) - self._pos

    def read_bit(self) -> int:
        """Read a single bit; raises ``EOFError`` when exhausted."""
        if self._pos >= len(self._bits):
            raise EOFError("bit stream exhausted")
        bit = self._bits[self._pos]
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first)."""
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_bitstring(self, width: int) -> str:
        """Read ``width`` bits as a string of ``'0'``/``'1'`` characters.

        Inverse of :meth:`BitWriter.write_code`; used when variable-length
        codes (CQC bit strings) are unpacked from a stored artifact.
        """
        return "".join("1" if self.read_bit() else "0" for _ in range(width))

    def read_unary(self) -> int:
        """Read a unary code written by :meth:`BitWriter.write_unary`."""
        count = 0
        while self.read_bit() == 1:
            count += 1
        return count

    def read_elias_gamma(self) -> int:
        """Read an Elias gamma coded positive integer."""
        zeros = 0
        while True:
            bit = self.read_bit()
            if bit == 1:
                break
            zeros += 1
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.read_bit()
        return value
