"""CampaignEngine: cache-first sweeps, resume, parallelism, and speedup."""

import concurrent.futures
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.constants import NETBENCH_APPS
from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.harness import backends
from repro.harness.campaign import SingleFaultInjector
from repro.harness.engine import CampaignEngine, default_engine
from repro.harness.experiment import run_experiment
from repro.harness.figures import render_edf
from repro.harness.store import ResultStore
from repro.mem.faults import INJECTOR_NAMES
from repro.replay import TraceStore, set_trace_store
from tests.strategies import make_config

#: The seed the poisoned execute backend refuses to simulate.
POISONED_SEED = 5


def sweep_configs(count=6):
    return [make_config(seed=seed) for seed in range(1, count + 1)]


def fallback_config():
    """A replay config the replayer declines (active L2-fill faults)."""
    return make_config(l2_fill_fault_probability=0.05, backend="replay")


def poisoned_execute(configs):
    """An execute backend that raises, naming its process, on one seed."""
    for config in configs:
        if config.seed == POISONED_SEED:
            raise RuntimeError(f"poisoned config in pid {os.getpid()}")
    return [run_experiment(config) for config in configs]


@pytest.fixture()
def pools(monkeypatch):
    """Count the process pools the engine builds."""
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    return built


class TestColdVsWarm:
    @pytest.mark.parametrize("app", NETBENCH_APPS)
    def test_repr_identical_per_app(self, app, tmp_path):
        """Cache round-trip changes nothing, for every experiment id."""
        config = make_config(app=app, packet_count=20)
        cold = CampaignEngine(store=ResultStore(tmp_path))
        [cold_result] = cold.run([config])
        assert cold.counters.get("campaign.simulated") == 1
        warm = CampaignEngine(store=ResultStore(tmp_path))
        [warm_result] = warm.run([config])
        assert warm.counters.get("campaign.simulated") == 0
        assert warm.counters.get("campaign.cache_hits") == 1
        assert repr(warm_result) == repr(cold_result)

    @pytest.mark.parametrize("injector", sorted(INJECTOR_NAMES))
    def test_repr_identical_per_injector(self, injector, tmp_path):
        """The store round-trip is injector-agnostic (PR 3 x PR 4 seam):
        cold and warm runs are repr-identical under either sampler."""
        config = make_config(injector=injector)
        cold = CampaignEngine(store=ResultStore(tmp_path))
        [cold_result] = cold.run([config])
        assert cold.counters.get("campaign.simulated") == 1
        warm = CampaignEngine(store=ResultStore(tmp_path))
        [warm_result] = warm.run([config])
        assert warm.counters.get("campaign.simulated") == 0
        assert warm.counters.get("campaign.cache_hits") == 1
        assert warm_result.config.injector == injector
        assert repr(warm_result) == repr(cold_result)

    def test_storeless_engine_matches_cached(self, tmp_path):
        config = make_config()
        [plain] = CampaignEngine().run([config])
        cached_engine = CampaignEngine(store=ResultStore(tmp_path))
        [cold] = cached_engine.run([config])
        [warm] = cached_engine.run([config])
        assert repr(plain) == repr(cold) == repr(warm)


class TestParallel:
    def test_parallel_matches_serial(self):
        configs = sweep_configs(4)
        serial = CampaignEngine(max_workers=1).run(configs)
        parallel = CampaignEngine(max_workers=2).run(configs)
        assert [repr(result) for result in parallel] == [
            repr(result) for result in serial]

    def test_chunking_preserves_input_order(self, tmp_path):
        configs = sweep_configs(5)
        engine = CampaignEngine(store=ResultStore(tmp_path), chunk_size=2)
        results = engine.run(configs)
        assert [result.config.seed for result in results] == [1, 2, 3, 4, 5]
        assert engine.counters.get("campaign.chunks") == 3


class TestEnginePool:
    def test_mixed_backends_match_serial(self, tmp_path, scratch_store):
        """Every backend fans out through the one pool: a mixed execute +
        replay sweep with a replay fallback is repr-identical to the
        serial run, and the store holds every key."""
        configs = [make_config(app=app, seed=seed, packet_count=15,
                               cycle_time=cycle_time, backend=backend)
                   for app in ("tl", "md5")
                   for seed in (1, 2)
                   for cycle_time in (1.0, 0.5, 0.25)
                   for backend in ("execute", "replay")]
        configs += [fallback_config()] + sweep_configs(15)
        assert len(configs) == 40
        serial_engine = CampaignEngine(max_workers=1)
        serial = serial_engine.run(configs)
        store = ResultStore(tmp_path)
        engine = CampaignEngine(store=store, max_workers=2)
        pooled = engine.run(configs)
        assert [repr(result) for result in pooled] == [
            repr(result) for result in serial]
        assert all(store.key_for(config) in store for config in configs)
        fallbacks = serial_engine.counters.get("replay.fallbacks")
        assert fallbacks >= 1
        assert engine.counters.get("replay.fallbacks") == fallbacks

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_fallbacks_counted_at_any_worker_count(self, scratch_store,
                                                   max_workers):
        fault_free = make_config(fault_scale=0.0, backend="replay")
        engine = CampaignEngine(max_workers=max_workers)
        engine.run([fallback_config(), fault_free])
        assert engine.counters.get("replay.fallbacks") == 1

    def test_workers_share_an_empty_trace_directory(self, tmp_path):
        """Pool workers that all miss one trace each record and save it
        into the same on-disk store without clobbering each other."""
        configs = [make_config(fault_scale=0.0, cycle_time=cycle_time,
                               backend="replay")
                   for cycle_time in (1.0, 0.75, 0.5, 0.25)]
        expected = CampaignEngine(max_workers=1).run(
            [config.with_options(backend="execute") for config in configs])
        traces = tmp_path / "traces"
        previous = set_trace_store(TraceStore(traces))
        try:
            pooled = CampaignEngine(max_workers=2, chunk_size=1).run(configs)
        finally:
            set_trace_store(previous)
        assert [result.energy for result in pooled] == [
            result.energy for result in expected]
        assert [entry.name.startswith("trace-")
                for entry in traces.iterdir()] == [True]
        assert TraceStore(traces).get(configs[0]) is not None

    def test_one_pool_per_run(self, tmp_path, pools):
        engine = CampaignEngine(store=ResultStore(tmp_path), max_workers=2,
                                chunk_size=2)
        engine.run(sweep_configs(5))
        assert len(pools) == 1
        engine.run([make_config(seed=seed) for seed in (11, 12)])
        assert len(pools) == 2

    def test_no_pool_when_cached_or_serial(self, tmp_path, pools):
        configs = sweep_configs(3)
        CampaignEngine(store=ResultStore(tmp_path), max_workers=1).run(
            configs)
        warm = CampaignEngine(store=ResultStore(tmp_path), max_workers=2)
        warm.run(configs)
        assert warm.counters.get("campaign.cache_hits") == 3
        assert pools == []

    def test_progress_once_per_chunk_in_order(self, tmp_path):
        lines = []
        engine = CampaignEngine(store=ResultStore(tmp_path), max_workers=2,
                                chunk_size=2, progress=lines.append)
        engine.run(sweep_configs(5))
        assert [line.split()[1] for line in lines] == ["2/5", "4/5", "5/5"]

    def test_worker_exception_keeps_earlier_chunks(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setitem(backends._BACKEND_RUNNERS, "execute",
                            poisoned_execute)
        configs = sweep_configs(6)
        store = ResultStore(tmp_path)
        engine = CampaignEngine(store=store, max_workers=2, chunk_size=2)
        children = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="poisoned config") as raised:
            engine.run(configs)
        assert f"pid {os.getpid()}" not in str(raised.value)
        assert set(multiprocessing.active_children()) <= children
        # The two chunks before the poisoned config were persisted.
        persisted = [store.key_for(config) in store for config in configs]
        assert persisted[:4] == [True] * 4
        assert not persisted[4]
        assert engine.counters.get("campaign.chunks") == 2


class TestCachePartition:
    def test_duplicate_configs_simulate_once(self):
        engine = CampaignEngine()
        config = make_config()
        first, second = engine.run([config, config])
        assert engine.counters.get("campaign.simulated") == 1
        assert repr(first) == repr(second)

    def test_empty_run_returns_empty(self):
        engine = CampaignEngine()
        assert engine.run([]) == []
        assert engine.counters.get("campaign.runs") == 1

    def test_all_cached_rerun_simulates_nothing(self, tmp_path):
        configs = sweep_configs(3)
        CampaignEngine(store=ResultStore(tmp_path)).run(configs)
        warm = CampaignEngine(store=ResultStore(tmp_path))
        warm.run(configs)
        assert warm.counters.get("campaign.simulated") == 0
        assert warm.counters.get("campaign.missing") == 0
        assert warm.counters.get("campaign.chunks") == 0

    def test_resume_runs_only_missing(self, tmp_path):
        """An interrupted sweep re-runs only what the store lacks."""
        configs = sweep_configs(6)
        reference = CampaignEngine().run(configs)
        # Interrupted sweep: only the first chunk of 2 was persisted.
        interrupted = CampaignEngine(store=ResultStore(tmp_path),
                                     chunk_size=2)
        interrupted.run(configs[:2])
        resumed = CampaignEngine(store=ResultStore(tmp_path), chunk_size=2)
        results = resumed.run(configs)
        assert resumed.counters.get("campaign.cache_hits") == 2
        assert resumed.counters.get("campaign.simulated") == 4
        assert [repr(result) for result in results] == [
            repr(result) for result in reference]

    def test_refresh_resimulates_and_matches_store(self, tmp_path):
        """refresh=True skips cache reads, re-simulates, and re-persists
        results that a later warm run reads back unchanged."""
        configs = sweep_configs(3)
        CampaignEngine(store=ResultStore(tmp_path)).run(configs)
        engine = CampaignEngine(store=ResultStore(tmp_path))
        refreshed = engine.run(configs, refresh=True)
        assert engine.counters.get("campaign.cache_hits") == 0
        assert engine.counters.get("campaign.simulated") == 3
        assert engine.counters.get("campaign.refreshed") == 3
        warm = CampaignEngine(store=ResultStore(tmp_path))
        results = warm.run(configs)
        assert warm.counters.get("campaign.simulated") == 0
        assert [repr(result) for result in results] == [
            repr(result) for result in refreshed]

    def test_corrupt_entry_is_rerun(self, tmp_path):
        """A torn cache entry reads as missing and is simulated again."""
        configs = sweep_configs(2)
        CampaignEngine(store=ResultStore(tmp_path)).run(configs)
        [chunk] = tmp_path.glob("chunk-*.jsonl")
        lines = chunk.read_text().splitlines()
        lines[-1] = lines[-1][:40]
        chunk.write_text("\n".join(lines) + "\n")
        engine = CampaignEngine(store=ResultStore(tmp_path))
        results = engine.run(configs)
        assert engine.counters.get("campaign.cache_hits") == 1
        assert engine.counters.get("campaign.simulated") == 1
        reference = CampaignEngine().run(configs)
        assert [repr(result) for result in results] == [
            repr(result) for result in reference]


class TestRunOne:
    def test_injector_override_bypasses_store(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = CampaignEngine(store=store)
        config = make_config(policy=NO_DETECTION, fault_scale=0.0)
        injector = SingleFaultInjector(target_access=5, bit_seed=3)
        engine.run_one(config, injector_override=injector)
        assert engine.counters.get("campaign.uncacheable") == 1
        assert len(store) == 0

    def test_plain_run_one_matches_run(self):
        engine = CampaignEngine()
        config = make_config()
        one = engine.run_one(config)
        [batch] = engine.run([config])
        assert repr(one) == repr(batch)


class TestReporting:
    def test_progress_callback_per_chunk(self, tmp_path):
        lines = []
        engine = CampaignEngine(store=ResultStore(tmp_path), chunk_size=2,
                                progress=lines.append)
        engine.run(sweep_configs(4))
        assert len(lines) == 2
        assert lines[-1].startswith("campaign: 4/4 simulated")

    def test_summary_line(self, tmp_path):
        engine = CampaignEngine(store=ResultStore(tmp_path))
        engine.run(sweep_configs(2))
        engine.run(sweep_configs(2))
        assert engine.summary() == (
            "campaign: configs=4 cache_hits=2 simulated=2 chunks=1 "
            "uncacheable=0")

    def test_default_engine_is_shared_and_uncached(self):
        engine = default_engine()
        assert engine is default_engine()
        assert engine.store is None

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignEngine(chunk_size=0)
        with pytest.raises(ValueError):
            CampaignEngine(max_workers=0)


class TestFigureRegeneration:
    EDF_KWARGS = dict(packet_count=60, seeds=(7, 11),
                      policies=(NO_DETECTION, TWO_STRIKE),
                      settings=(1.0, 0.5, "dynamic"))

    def test_warm_edf_panel_byte_identical_and_5x_faster(self, tmp_path):
        """Figures 9-12 path: warm cache reproduces bytes at >=5x speed."""
        cold = CampaignEngine(store=ResultStore(tmp_path))
        start = time.perf_counter()  # reprolint: disable=determinism
        cold_text = render_edf("tl", "Figure 10", engine=cold,
                               **self.EDF_KWARGS)
        cold_elapsed = time.perf_counter() - start  # reprolint: disable=determinism
        assert cold.counters.get("campaign.simulated") > 0

        warm = CampaignEngine(store=ResultStore(tmp_path))
        start = time.perf_counter()  # reprolint: disable=determinism
        warm_text = render_edf("tl", "Figure 10", engine=warm,
                               **self.EDF_KWARGS)
        warm_elapsed = time.perf_counter() - start  # reprolint: disable=determinism

        assert warm.counters.get("campaign.simulated") == 0
        assert warm_text == cold_text
        assert cold_elapsed >= 5 * warm_elapsed, (
            f"warm cache too slow: cold={cold_elapsed:.3f}s "
            f"warm={warm_elapsed:.3f}s")
