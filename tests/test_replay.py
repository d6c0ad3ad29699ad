"""The replay backend: recorder determinism, trace round-trips, twins.

Three layers of guarantees, tested bottom-up:

* the **recorder** is a pure function of the workload identity -- two
  recordings of the same config produce byte-identical event arrays,
  and the ``.npz`` round-trip preserves them exactly;
* the **replayer** is bit-exact against faithful execution wherever no
  fault law is active (the fault-free contract the oracle's replay twin
  enforces exactly), and falls back -- rather than approximating -- on
  configs it cannot model;
* the **backend plumbing** (registry dispatch, ``with_options``, the
  shared trace store, engine grouping) routes configs to the right
  runner and keeps results index-aligned.

The statistical (faulted) contract is the oracle's job -- see
``tests/test_oracle.py`` and :mod:`repro.oracle.differential`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.harness.backends import (
    BACKEND_MODULES,
    BACKEND_NAMES,
    backend_parent_parser,
    backend_runner,
    configure_backend,
)
from repro.harness.config import ExperimentConfig
from repro.harness.engine import CampaignEngine
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.replay import (
    Trace,
    TraceStore,
    record_trace,
    replay_trace,
    run_replay,
    set_trace_store,
    trace_key,
    trace_store,
)
from tests.strategies import make_config

#: Result fields whose equality defines "the same simulation outcome".
#: ``config`` differs by construction (backend field) and is excluded.
_COMPARED_FIELDS = tuple(field.name
                         for field in dataclasses.fields(ExperimentResult)
                         if field.name != "config")


def _outcome(result) -> dict:
    return {name: getattr(result, name) for name in _COMPARED_FIELDS}


def _fault_free(**overrides) -> ExperimentConfig:
    return make_config(fault_scale=0.0, **overrides)


class TestRecorder:
    def test_recording_is_deterministic(self):
        config = _fault_free()
        first = record_trace(config)
        second = record_trace(config)
        for name in ("kind", "address", "width", "count", "static",
                     "packet_starts"):
            np.testing.assert_array_equal(getattr(first, name),
                                          getattr(second, name))
        assert first.offered_packets == second.offered_packets
        assert first.regions == second.regions
        assert first.static_ranges == second.static_ranges

    def test_trace_round_trips_through_npz(self, tmp_path):
        trace = record_trace(_fault_free())
        path = trace.save(tmp_path / "trace.npz")
        loaded = Trace.load(path)
        for name in ("kind", "address", "width", "count", "static",
                     "packet_starts"):
            np.testing.assert_array_equal(getattr(trace, name),
                                          getattr(loaded, name))
        assert loaded.offered_packets == trace.offered_packets
        assert loaded.regions == trace.regions
        assert loaded.static_ranges == trace.static_ranges

    def test_trace_key_ignores_replay_parametrisation(self):
        base = _fault_free()
        assert trace_key(base) == trace_key(
            base.with_options(cycle_time=0.25, fault_scale=50.0,
                              injector="geometric", backend="replay"))
        assert trace_key(base) != trace_key(base.with_options(seed=99))
        assert trace_key(base) != trace_key(
            base.with_options(packet_count=30))

    def test_store_round_trips_through_disk(self, tmp_path):
        config = _fault_free()
        writer = TraceStore(tmp_path)
        recorded = writer.get_or_record(config)
        assert writer.recordings == 1
        # A fresh store sharing the directory serves from disk.
        reader = TraceStore(tmp_path)
        loaded = reader.get(config)
        assert loaded is not None
        assert reader.recordings == 0
        np.testing.assert_array_equal(loaded.kind, recorded.kind)

    def test_overlapping_saves_of_one_trace_both_land(self, tmp_path,
                                                      monkeypatch):
        """Two writers saving the same trace at once (pool workers that
        both missed it) must not share a temp file: here a second save
        runs in full between the first one's write and its rename."""
        import repro.replay.trace as trace_module
        trace = record_trace(_fault_free())
        path = tmp_path / "trace.npz"
        real_replace = trace_module.os.replace
        interleaved = []

        def replace(source, target):
            if not interleaved:
                interleaved.append(source)
                trace.save(path)
            real_replace(source, target)

        monkeypatch.setattr(trace_module.os, "replace", replace)
        trace.save(path)
        assert interleaved
        np.testing.assert_array_equal(Trace.load(path).kind, trace.kind)
        assert [entry.name for entry in tmp_path.iterdir()] == ["trace.npz"]

    def test_truncated_archive_is_a_miss(self, tmp_path):
        config = _fault_free()
        TraceStore(tmp_path).get_or_record(config)
        (archive,) = tmp_path.glob("trace-*.npz")
        archive.write_bytes(archive.read_bytes()[:100])
        store = TraceStore(tmp_path)
        assert store.get(config) is None
        store.get_or_record(config)
        assert store.recordings == 1
        assert TraceStore(tmp_path).get(config) is not None

    def test_store_memoises_in_process(self, tmp_path):
        store = TraceStore(tmp_path)
        config = _fault_free()
        first = store.get_or_record(config)
        assert store.get_or_record(config) is first
        assert store.recordings == 1


class TestReplayExactTwin:
    @pytest.mark.parametrize("overrides", [
        {},
        {"injector": "geometric"},
        {"control_cycle_time": 1.0},
        {"dynamic": True, "cycle_time": 1.0},
        {"app": "crc", "cycle_time": 0.25},
    ])
    def test_fault_free_replay_matches_execute(self, scratch_store,
                                               overrides):
        config = _fault_free(**overrides)
        executed = run_experiment(config)
        replayed = run_replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)

    def test_zero_scale_with_planes_is_exact(self, scratch_store):
        config = _fault_free(planes="both")
        executed = run_experiment(config)
        replayed = run_replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)

    def test_faulted_replay_is_seed_deterministic(self, scratch_store):
        config = make_config(backend="replay")
        first = run_replay([config])[0]
        second = run_replay([config])[0]
        assert _outcome(first) == _outcome(second)

    def test_l2_fill_faults_fall_back_to_execute(self, scratch_store):
        from repro.replay.backend import fallback_count
        config = make_config(l2_fill_fault_probability=0.05,
                             backend="replay")
        before = fallback_count()
        replayed = run_replay([config])[0]
        assert fallback_count() == before + 1
        executed = run_experiment(config.with_options(backend="execute"))
        assert _outcome(replayed) == _outcome(executed)

    def test_replay_trace_declines_bursts(self, scratch_store):
        config = make_config(burst_start_probability=0.01, burst_length=5,
                             burst_multiplier=10.0)
        trace = scratch_store.get_or_record(config)
        assert replay_trace(trace, config) is None

    @pytest.mark.parametrize("overrides", [
        {"injector": "correlated"},
        {"injector": "tiered"},
        {"policy": "two-strike-waydisable"},
    ])
    def test_mapped_and_way_disable_refuse_and_fall_back(
            self, scratch_store, overrides):
        # Refuse-or-reprice: the statistical replay lane samples from the
        # flat marginal law and prices a fixed miss pattern, so mapped
        # injectors (address-dependent rates) and way-disabling policies
        # (capacity changes mid-run) must fall back to execution -- never
        # silently approximate.  The fallback must count *and* match the
        # execute backend exactly.
        from repro.core.recovery import policy_by_name
        from repro.replay.backend import fallback_count
        if "policy" in overrides:
            overrides = dict(overrides,
                             policy=policy_by_name(overrides["policy"]),
                             l1_associativity=2)
        config = make_config(backend="replay", **overrides)
        trace = scratch_store.get_or_record(
            config.with_options(backend="execute"))
        assert replay_trace(trace, config) is None
        before = fallback_count()
        replayed = run_replay([config])[0]
        assert fallback_count() == before + 1
        executed = run_experiment(config.with_options(backend="execute"))
        assert _outcome(replayed) == _outcome(executed)

    @pytest.mark.parametrize("injector", ["correlated", "tiered"])
    def test_fault_free_mapped_replay_is_exact(self, scratch_store,
                                               injector):
        # With faults off the map never perturbs anything, so the exact
        # repricing lane still applies to mapped configs.
        config = _fault_free(injector=injector)
        executed = run_experiment(config)
        replayed = run_replay([config.with_options(backend="replay")])[0]
        assert _outcome(replayed) == _outcome(executed)


class TestBackendPlumbing:
    def test_registry_tables_agree(self):
        assert set(BACKEND_NAMES) == set(BACKEND_MODULES)
        for name in BACKEND_NAMES:
            assert callable(backend_runner(name))

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            make_config(backend="interpret")

    def test_with_options_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bakend"):
            make_config().with_options(bakend="replay")

    def test_backend_round_trips_through_json(self):
        config = make_config(backend="replay")
        rebuilt = ExperimentConfig.from_json(config.to_json())
        assert rebuilt == config
        assert rebuilt.backend == "replay"

    def test_golden_baseline_always_executes(self):
        assert make_config(backend="replay").golden().backend == "execute"

    def test_engine_groups_mixed_backends(self, scratch_store):
        engine = CampaignEngine(max_workers=1)
        configs = [
            _fault_free(seed=1),
            _fault_free(seed=1, backend="replay"),
            _fault_free(seed=2),
        ]
        results = engine.run(configs)
        assert [r.config for r in results] == configs
        assert _outcome(results[0]) == _outcome(results[1])

    def test_configure_backend_points_store_at_cache(self, tmp_path):
        previous = set_trace_store(TraceStore())
        try:
            configure_backend("replay", str(tmp_path))
            assert trace_store().directory == tmp_path / "traces"
            configure_backend("replay", None)
            assert trace_store().directory is None
            configure_backend("execute", str(tmp_path))  # no-op
        finally:
            set_trace_store(previous)

    def test_parent_parser_defines_backend_flag(self):
        args = backend_parent_parser().parse_args([])
        assert args.backend == "execute"
        args = backend_parent_parser().parse_args(["--backend", "replay"])
        assert args.backend == "replay"
