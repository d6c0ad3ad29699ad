"""Application framework for the NetBench reimplementations (paper Section 2).

Every application follows the paper's structure:

* a **control plane** phase that builds the static data structures (CRC
  table, radix routing tree, NAT table, URL table, MD5 constants) in
  *simulated* memory;
* a **data plane** phase that processes packets one at a time, reading and
  writing those structures through the faulty cache;
* a set of named **observations** per packet -- the paper's
  application-specific error metrics.  An experiment runs the application
  twice over the same trace (a fault-free *golden* run and a fault-injected
  run) and counts, per category, the packets whose observations differ.

The framework also provides the *initialization error* observation shared
by several applications: after each packet, one rotating word of the
static (control-plane-built) structures is inspected architecturally; a
mismatch against the golden run means corruption is resident in an
initialized structure.  Static structures are immutable after the control
plane, so any difference is fault-induced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.processor import Processor
from repro.cpu.watchdog import Watchdog
from repro.mem.allocator import BumpAllocator, Region
from repro.mem.flat import FlatMemory
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.net.packet import Packet

#: Observation category used for the rotating static-structure sample.
INITIALIZATION_CATEGORY = "initialization"

#: Observation category reserved for fatal errors in reports.
FATAL_CATEGORY = "fatal"


#: Calibration multiplier applied to every application work() estimate.
#: The per-op counts in the kernels are lower bounds (loads/stores are
#: accounted separately by the hierarchy); scaling them so the instruction
#: share of the cycle budget matches a StrongARM-class in-order core (~55%,
#: leaving the paper's ~11% delay gain at Cr = 0.5) is part of the
#: substrate calibration documented in DESIGN.md.
INSTRUCTION_SCALE = 1.5


@dataclass
class Environment:
    """Everything an application needs to execute on the simulated machine.

    Applications reach memory only through ``view``.  A golden run's
    view is a :class:`~repro.mem.flat.FlatMemory` and its ``hierarchy``
    is ``None``: it has no cache model to time or charge.
    """

    processor: Processor
    hierarchy: "MemoryHierarchy | None"
    view: "MemView | FlatMemory"
    allocator: BumpAllocator
    instruction_scale: float = INSTRUCTION_SCALE

    def work(self, instructions: int) -> None:
        """Account abstract computational work (non-memory instructions).

        Equivalent to ``processor.execute(round(n * scale))`` but folded
        into the counters directly: the kernels call this once per
        handful of abstract ops, making it one of the three hottest
        frames in a run, and the negative-count guard is redundant here
        (the kernels pass literal non-negative op counts).
        """
        count = round(instructions * self.instruction_scale)
        processor = self.processor
        processor.instructions += count
        processor.cycles += count


class NetBenchApp:
    """Base class for the seven reimplemented NetBench kernels.

    Subclasses set :attr:`name` and :attr:`categories`, implement
    :meth:`control_plane` and :meth:`process_packet`, and register their
    immutable structures with :meth:`register_static_region`.
    """

    #: Application name as it appears in Table I.
    name: str = ""
    #: Observation categories, excluding the framework-provided
    #: initialization sample and the fatal category.
    categories: "tuple[str, ...]" = ()

    def __init__(self, env: Environment) -> None:
        if not self.name:
            raise TypeError("NetBenchApp subclasses must set a name")
        self.env = env
        self._static_regions: "list[Region]" = []
        self._control_plane_done = False

    # -- lifecycle ------------------------------------------------------------

    def control_plane(self) -> None:
        """Build the application's static structures in simulated memory."""
        raise NotImplementedError

    def process_packet(self, packet: Packet, index: int) -> "dict[str, object]":
        """Process one packet; returns observations keyed by category."""
        raise NotImplementedError

    def run_control_plane(self) -> None:
        """Template wrapper: runs :meth:`control_plane` exactly once."""
        if self._control_plane_done:
            raise RuntimeError("control plane already executed")
        self.control_plane()
        self._control_plane_done = True

    def run_packet(self, packet: Packet, index: int) -> "dict[str, object]":
        """Template wrapper: processes a packet and appends the static sample."""
        if not self._control_plane_done:
            raise RuntimeError("control plane has not been executed")
        observations = self.process_packet(packet, index)
        unknown = set(observations) - set(self.categories)
        if unknown:
            raise ValueError(
                f"{self.name} produced undeclared categories {sorted(unknown)}")
        sample = self._sample_static(index)
        if sample is not None:
            observations[INITIALIZATION_CATEGORY] = sample
        return observations

    # -- static-structure sampling ------------------------------------------------

    def register_static_region(self, region: Region) -> None:
        """Declare a region immutable after the control plane."""
        self._static_regions.append(region)

    @property
    def static_regions(self) -> "tuple[Region, ...]":
        """Regions declared immutable after the control plane."""
        return tuple(self._static_regions)

    def _sample_static(self, packet_index: int) -> "object | None":
        """Architecturally inspect one rotating static word (no cost)."""
        if not self._static_regions:
            return None
        total_words = sum(region.size // 4 for region in self._static_regions)
        if total_words == 0:
            return None
        # A stride coprime with most table sizes spreads samples around.
        word_index = (packet_index * 17) % total_words
        for region in self._static_regions:
            words_here = region.size // 4
            if word_index < words_here:
                address = region.address + 4 * word_index
                raw = self.env.view.inspect(address, 4)
                return (address, int.from_bytes(raw, "little"))
            word_index -= words_here
        raise AssertionError("unreachable: sample index out of range")

    # -- shared helpers -------------------------------------------------------

    def make_watchdog(self, limit: int, description: str) -> Watchdog:
        """A loop watchdog labelled with this application's name."""
        return Watchdog(limit, f"{self.name}:{description}")  # reprolint: disable=hot-path-alloc (the label names the Watchdog being allocated alongside it; one pair per guarded loop, not per packet byte)

    def all_categories(self) -> "tuple[str, ...]":
        """Categories including the framework-provided initialization sample."""
        if self._static_regions or not self._control_plane_done:
            return self.categories + (INITIALIZATION_CATEGORY,)
        return self.categories


def copy_packet_to_memory(env: Environment, region: Region,
                          packet: Packet) -> int:
    """Copy a packet's wire image into simulated memory through the cache.

    Models the RX copy into the processing buffer: every byte is written
    through the (faulty) L1, so a write fault can corrupt the packet before
    the application ever parses it -- exactly the exposure the paper
    studies.  Returns the number of bytes copied.  Raises ``ValueError`` if
    the packet does not fit the buffer.
    """
    wire = packet.wire_bytes
    if len(wire) > region.size:
        raise ValueError(
            f"packet of {len(wire)} bytes exceeds buffer {region.label!r} "
            f"({region.size} bytes)")
    env.work(len(wire))
    env.view.write_bytes(region.address, wire)
    return len(wire)
