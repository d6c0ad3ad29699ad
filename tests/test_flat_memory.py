"""Flat golden-run memory: exact equivalence with the fault-free hierarchy.

Golden observations are computed on :class:`repro.mem.flat.FlatMemory`
instead of the cache model.  Two checks pin that substitution exactly:
a differential property over raw accesses (values, exception types and
final architectural bytes, wild addresses included), and the golden
observations themselves against a full fault-free hierarchy run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constants import L1_LINE_BYTES, NETBENCH_APPS
from repro.core.fault_model import FaultModel
from repro.cpu.processor import Processor
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import (
    execute_workload,
    golden_observations,
    load_workload,
)
from repro.mem.errors import MemoryAccessError, garbage_value
from repro.mem.flat import FlatMemory
from repro.mem.faults import make_injector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.traffic.generators import SCENARIO_NAMES

#: Memory sizes under test: a whole number of L2 lines, and one whose
#: last L2 line is partial (unreachable by loads and stores).
MEMORY_SIZES = (4096, 4096 + 100)


def hierarchy_view(memory_size: int, injector: str) -> MemView:
    """A fault-free MemView over a full hierarchy (disabled injector)."""
    hierarchy = MemoryHierarchy(
        Processor(),
        make_injector(injector, model=FaultModel.calibrated(), seed=1,
                      scale=0.0, enabled=False),
        memory_size=memory_size)
    return MemView(hierarchy)


def addresses(memory_size: int):
    """In-range, line-boundary, end-of-memory, negative and wild addresses."""
    lines = memory_size // L1_LINE_BYTES + 8
    return st.one_of(
        st.integers(0, memory_size + 256),
        st.builds(lambda line, back: line * L1_LINE_BYTES - back,
                  st.integers(0, lines), st.integers(0, 3)),
        st.integers(memory_size - 200, memory_size + 40),
        st.integers(-64, -1),
        st.integers(-(1 << 40), 1 << 40))


values = st.integers(-(1 << 40), 1 << 40)


def operations(memory_size: int):
    address = addresses(memory_size)
    return st.lists(st.one_of(
        st.tuples(st.sampled_from(("read_u8", "read_u16", "read_u32")),
                  address),
        st.tuples(st.sampled_from(("write_u8", "write_u16", "write_u32")),
                  address, values),
        st.tuples(st.just("write_bytes"), address, st.binary(max_size=80)),
        st.tuples(st.sampled_from(("read_bytes", "read_u32_array")),
                  address, st.integers(0, 24)),
        st.tuples(st.just("write_u32_array"), address,
                  st.lists(values, max_size=6)),
        st.tuples(st.just("inspect"), address, st.integers(-2, 64)),
    ), min_size=40, max_size=160)


def apply(memory, operation):
    """One operation's value, or the type of the exception it raised."""
    name, *args = operation
    try:
        return getattr(memory, name)(*args)
    except MemoryAccessError as exc:
        return type(exc)


class TestFlatMemoryDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MEMORY_SIZES).flatmap(
               lambda size: st.tuples(st.just(size), operations(size))),
           st.sampled_from(("reference", "geometric")))
    def test_matches_fault_free_hierarchy(self, case, injector):
        memory_size, sequence = case
        flat = FlatMemory(memory_size)
        view = hierarchy_view(memory_size, injector)
        for operation in sequence:
            assert apply(flat, operation) == apply(view, operation), \
                operation
        assert flat.inspect(0, memory_size) == view.inspect(0, memory_size)

    def test_straddling_load_is_garbage_and_store_is_dropped(self):
        flat = FlatMemory(4096)
        address = 0x1000 - L1_LINE_BYTES - 2
        flat.write_u32(address, 0xDEADBEEF)
        assert flat.inspect(address, 4) == bytes(4)
        assert flat.read_u32(address) == garbage_value(address, 4)

    @pytest.mark.parametrize("address", [-4, 4096 + 8, 1 << 33])
    def test_negative_and_out_of_range_accesses_raise(self, address):
        # 4096 + 8 lies in memory but in the partial last L2 line.
        flat = FlatMemory(4096 + 100)
        with pytest.raises(MemoryAccessError):
            flat.read_u32(address)
        with pytest.raises(MemoryAccessError):
            flat.write_u32(address, 1)


def golden_cases():
    for app in NETBENCH_APPS:
        for scenario in (None,) + SCENARIO_NAMES:
            yield app, scenario, {}
        yield app, None, {"prefix_count": 24}
        yield app, "uniform", {"prefix_count": 24}


class TestGoldenObservations:
    @pytest.mark.parametrize("app,scenario,workload_kwargs",
                             list(golden_cases()))
    def test_flat_golden_equals_hierarchy_golden(self, app, scenario,
                                                 workload_kwargs):
        for seed in (1, 7, 12):
            config = ExperimentConfig(
                app=app, packet_count=6, seed=seed, scenario=scenario,
                workload_kwargs=dict(workload_kwargs))
            try:
                workload = load_workload(config)
                reference = execute_workload(workload, config.golden(),
                                             faulty=False)
            except MemoryAccessError:
                # The workload's tables do not fit memory: no golden run
                # exists on either memory.
                with pytest.raises(MemoryAccessError):
                    golden_observations(load_workload(config), config)
                continue
            assert reference.fatal_reason is None
            flat = golden_observations(workload, config)
            assert repr(flat) == repr(reference.observations)
