"""Flat fault-free memory: the golden run's architectural state.

A golden run (paper Section 5) only contributes its per-packet
observations -- its cycles, energy and cache statistics are never read.
With no fault drawn, every value an application observes through a
:class:`repro.mem.view.MemView` over a :class:`MemoryHierarchy` is the
value last stored at that address, so the whole cache model (fills,
writebacks, LRU, energy charging) can be replaced by one ``bytearray``.

:class:`FlatMemory` serves the ``MemView`` accessor API with exactly the
architectural semantics of a fault-free ``MemView`` over a hierarchy:

* a negative address raises :class:`MemoryAccessError`;
* a line-straddling load returns :func:`garbage_value` and a
  line-straddling store is dropped, wherever the address points;
* any other access past the last whole L2 line (the hierarchy fills its
  L2 a whole line at a time from the backing store) raises
  :class:`MemoryAccessError`;
* stored values are masked to the access width.

``inspect`` reads the backing bytes directly, bounded by the memory size
as the hierarchy's byte-wise inspection is.  The equivalence is pinned
by a differential property test against the hierarchy.
"""

from __future__ import annotations

import struct

from repro.core import constants
from repro.mem.errors import MemoryAccessError, garbage_value

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: Where an access straddles an L1 line: the offset-in-line mask, and
#: the highest offsets at which a halfword / word still fits.
_OFFSET_MASK = constants.L1_LINE_BYTES - 1
_LAST_U16 = constants.L1_LINE_BYTES - 2
_LAST_U32 = constants.L1_LINE_BYTES - 4


class FlatMemory:
    """Fault-free byte-addressable memory with the ``MemView`` accessors."""

    def __init__(self, memory_size: int) -> None:
        if memory_size <= 0:
            raise ValueError(
                f"memory size must be positive, got {memory_size}")
        self.data = bytearray(memory_size)
        self.size = memory_size
        #: One past the last address a load or store may touch: the L2
        #: fills whole lines, so a partial last line is out of range.
        self.limit = memory_size - memory_size % constants.L2_LINE_BYTES

    # -- wild accesses -------------------------------------------------------

    def _check_wild(self, address: int, length: int) -> None:
        """Raise for an access the in-range path declined, unless it
        straddles a line (the one wild access that does not fault)."""
        if address < 0:
            raise MemoryAccessError(f"negative address {address:#x}")
        if (address & _OFFSET_MASK) + length <= constants.L1_LINE_BYTES:
            raise MemoryAccessError(
                f"access [{address:#x}, {address + length:#x}) outside "
                f"memory of {self.limit:#x} fillable bytes")

    def _wild_load(self, address: int, length: int) -> int:
        self._check_wild(address, length)
        return garbage_value(address, length)

    # -- loads ------------------------------------------------------------------

    def read_u8(self, address: int) -> int:
        """Load one byte."""
        if 0 <= address < self.limit:
            return self.data[address]
        return self._wild_load(address, 1)

    def read_u16(self, address: int) -> int:
        """Load a halfword (little-endian)."""
        if (0 <= address < self.limit
                and address & _OFFSET_MASK <= _LAST_U16):
            return _U16.unpack_from(self.data, address)[0]
        return self._wild_load(address, 2)

    def read_u32(self, address: int) -> int:
        """Load a word (little-endian)."""
        if (0 <= address < self.limit
                and address & _OFFSET_MASK <= _LAST_U32):
            return _U32.unpack_from(self.data, address)[0]
        return self._wild_load(address, 4)

    # -- stores -----------------------------------------------------------------

    def write_u8(self, address: int, value: int) -> None:
        """Store one byte."""
        if 0 <= address < self.limit:
            self.data[address] = value & 0xFF
        else:
            self._check_wild(address, 1)

    def write_u16(self, address: int, value: int) -> None:
        """Store a halfword (little-endian)."""
        if (0 <= address < self.limit
                and address & _OFFSET_MASK <= _LAST_U16):
            _U16.pack_into(self.data, address, value & 0xFFFF)
        else:
            self._check_wild(address, 2)

    def write_u32(self, address: int, value: int) -> None:
        """Store a word (little-endian)."""
        if (0 <= address < self.limit
                and address & _OFFSET_MASK <= _LAST_U32):
            _U32.pack_into(self.data, address, value & 0xFFFFFFFF)
        else:
            self._check_wild(address, 4)

    # -- bulk helpers ------------------------------------------------------------

    def write_bytes(self, address: int, data: bytes) -> None:
        """Store a byte string; byte stores up to the first bad address."""
        end = address + len(data)
        if 0 <= address and end <= self.limit:
            self.data[address:end] = data
            return
        for offset, byte in enumerate(data):
            self.write_u8(address + offset, byte)

    def read_bytes(self, address: int, length: int) -> bytes:
        """Load ``length`` bytes."""
        end = address + length
        if 0 <= address and end <= self.limit:
            return bytes(self.data[address:end])
        return bytes(map(self.read_u8, range(address, end)))

    def write_u32_array(self, address: int, values: "list[int]") -> None:
        """Store consecutive 32-bit words starting at ``address``."""
        for index, value in enumerate(values):
            self.write_u32(address + 4 * index, value)

    def read_u32_array(self, address: int, count: int) -> "list[int]":
        """Load ``count`` consecutive 32-bit words."""
        return [self.read_u32(address + 4 * index) for index in range(count)]

    def inspect(self, address: int, length: int) -> bytes:
        """Read current state without side effects (observers and tests)."""
        if length <= 0:
            return b""
        if address < 0 or address + length > self.size:
            raise MemoryAccessError(
                f"access [{address:#x}, {address + length:#x}) outside "
                f"memory of size {self.size:#x}")
        return bytes(self.data[address:address + length])
