"""Exceptions raised by the memory substrate, and the wild-load law."""

from __future__ import annotations


class MemoryAccessError(Exception):
    """An access fell outside the backing store or violated alignment.

    During fault-injected runs this typically means a corrupted pointer or
    index escaped the application's data structures; the experiment harness
    converts it into a *fatal error* (paper Section 2).
    """


class StraddlingAccessError(MemoryAccessError):
    """An access crossed a cache-line boundary.

    The simulated caches service single-line accesses only; the typed
    :class:`repro.mem.view.MemView` API keeps natural alignment so this can
    only fire on a corrupted address.
    """


def garbage_value(address: int, length: int) -> int:
    """Deterministic pseudo-garbage for a straddling (misaligned) load.

    Models what an ARM-class core returns for an unaligned access: junk
    that depends only on the address, so runs stay reproducible.  Every
    memory model (the cache hierarchy and the flat golden-run memory)
    returns this value for a line-straddling load.
    """
    accumulator = 2166136261
    for part in (address & 0xFFFFFFFF, length):
        accumulator = ((accumulator ^ part) * 16777619) & 0xFFFFFFFF
    return accumulator & ((1 << (8 * length)) - 1)
