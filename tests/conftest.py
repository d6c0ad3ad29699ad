"""Shared fixtures: simulation environments with controllable fault setup,
plus the in-process campaign-service fixture the service suites use."""

from __future__ import annotations

import threading

import pytest

from repro.apps.base import Environment
from repro.core.fault_model import FaultModel
from repro.core.recovery import NO_DETECTION, RecoveryPolicy
from repro.cpu.processor import Processor
from repro.harness.experiment import clear_golden_cache
from repro.mem.allocator import BumpAllocator
from repro.mem.faults import FaultInjector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.replay import TraceStore, set_trace_store, trace_store
from repro.service import start_service

#: Allocation base used by test environments (0 stays a null pointer).
TEST_ALLOCATION_BASE = 0x1000


def build_test_environment(
    scale: float = 0.0,
    policy: RecoveryPolicy = NO_DETECTION,
    cycle_time: float = 1.0,
    seed: int = 1,
    memory_size: int = 1 << 21,
) -> Environment:
    """A fresh simulation stack; ``scale == 0`` disables fault injection."""
    processor = Processor()
    injector = FaultInjector(model=FaultModel.calibrated(), seed=seed,
                             scale=scale)
    hierarchy = MemoryHierarchy(processor, injector, policy=policy,
                                cycle_time=cycle_time,
                                memory_size=memory_size)
    allocator = BumpAllocator(TEST_ALLOCATION_BASE,
                              memory_size - TEST_ALLOCATION_BASE)
    return Environment(processor=processor, hierarchy=hierarchy,
                       view=MemView(hierarchy), allocator=allocator)


@pytest.fixture
def env() -> Environment:
    """Fault-free environment at the nominal clock."""
    return build_test_environment()


@pytest.fixture
def make_env():
    """Factory fixture for environments with custom fault setup."""
    return build_test_environment


@pytest.fixture(autouse=True)
def _fresh_golden_cache():
    """Isolate the experiment-level golden cache between tests."""
    clear_golden_cache()
    yield
    clear_golden_cache()


@pytest.fixture()
def scratch_store():
    """Isolate the replay backend's process-wide trace store per test."""
    previous = set_trace_store(TraceStore())
    yield trace_store()
    set_trace_store(previous)


class ServiceUnderTest:
    """One booted in-process campaign service (see ``campaign_service``).

    ``url`` is the live HTTP endpoint (ephemeral port), ``service`` the
    underlying :class:`repro.service.CampaignService` for white-box
    assertions (queue stats, ``service.*`` counters), ``cache_dir`` the
    store directory workers should share.
    """

    def __init__(self, server, service, cache_dir):
        host, port = server.server_address[:2]
        self.server = server
        self.service = service
        self.url = f"http://{host}:{port}"
        self.cache_dir = str(cache_dir)

    def counter(self, name: str) -> int:
        """Shorthand for one ``service.*`` telemetry counter."""
        return self.service.counters.get(name)


@pytest.fixture
def make_service(tmp_path):
    """Factory fixture: boot in-process services on ephemeral ports.

    Each call returns a :class:`ServiceUnderTest` serving from a fresh
    subdirectory of ``tmp_path`` (pass ``cache_dir=`` to share a store
    between services); keyword options forward to
    :class:`repro.service.CampaignService` (``chunk_size``,
    ``lease_timeout``, ``max_retries``, ``max_pending``, ``clock``).
    Servers are shut down at teardown.
    """
    booted = []

    def boot(cache_dir=None, **options):
        if cache_dir is None:
            cache_dir = tmp_path / f"service-{len(booted)}"
        server, service = start_service(port=0, cache_dir=str(cache_dir),
                                        **options)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        under_test = ServiceUnderTest(server, service, cache_dir)
        booted.append((server, thread))
        return under_test

    yield boot
    for server, thread in booted:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def campaign_service(make_service):
    """One booted in-process campaign service with default knobs."""
    return make_service()
