"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.use_checkout_source()

import digests  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.api import ExperimentConfig, canonical_json, run_experiment  # noqa: E402,E501


class TestSelfTime:
    def test_nested_tree(self):
        # root [0, 10] with children [1, 4] and [5, 9]; the second child
        # has a grandchild [6, 8].
        tree = [["root", 0.0, 10.0, None, None],
                ["a", 1.0, 4.0, 0, None],
                ["b", 5.0, 9.0, 0, None],
                ["c", 6.0, 8.0, 2, None]]
        assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]

    def test_overlapping_children_count_once(self):
        tree = [["root", 0.0, 10.0, None, None],
                ["a", 2.0, 6.0, 0, None],
                ["b", 4.0, 8.0, 0, None]]
        assert spans.self_times(tree)[0] == pytest.approx(4.0)

    def test_leaf_is_its_duration(self):
        assert spans.self_times([["x", 1.5, 2.0, None, None]]) == [0.5]


class TestResultCheck:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ExperimentConfig(app="crc", packet_count=5,
                                               seed=3, cycle_time=0.5))

    def test_matching_result_passes(self, result):
        digest = digests.result_digest(result)
        assert digests.check_outcomes([result], [digest]) == []

    def test_perturbed_result_fails(self, result):
        expected = [digests.result_digest(result)]
        perturbed = dataclasses.replace(result, cycles=result.cycles + 1)
        [failure] = digests.check_outcomes([perturbed], expected)
        assert "digest mismatch" in failure

    def test_raised_and_missing_configs_fail(self, result):
        expected = [digests.result_digest(result)] * 3
        failures = digests.check_outcomes([result, ValueError("boom")],
                                          expected)
        assert len(failures) == 2
        assert "raised ValueError" in failures[0]
        assert "missing" in failures[1]

    def test_unrecorded_results_fail(self, result):
        assert len(digests.check_outcomes([result], None)) == 1


class TestConfigLists:
    @staticmethod
    def submitted(name, seed, input_set):
        configs, _ = workloads.WORKLOADS[name].configs(seed, input_set)
        return [canonical_json(config.to_json()) for config in configs]

    @pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
    def test_same_seed_same_configs(self, name):
        assert self.submitted(name, 7, 7) == self.submitted(name, 7, 7)

    def test_other_seed_other_order_of_the_same_configs(self):
        first = self.submitted("single-runs-unshared", 7, 7)
        second = self.submitted("single-runs-unshared", 8, 7)
        assert first != second
        assert sorted(first) == sorted(second)

    @pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
    def test_other_input_set_other_configs(self, name):
        assert (set(self.submitted(name, 7, 7))
                .isdisjoint(self.submitted(name, 7, 8)))

    @pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
    def test_order_indexes_the_canonical_list(self, name):
        workload = workloads.WORKLOADS[name]
        configs, order = workload.configs(3, 7)
        canonical = workload.canonical_configs(7)
        assert configs == [canonical[index] for index in order]
        assert sorted(order) == list(range(len(canonical)))

    def test_sizes_and_unshared_seeds(self):
        assert len(workloads.fig9_12_configs(7, "execute")) == 140
        single = workloads.single_run_configs(7)
        assert len(single) == 117
        assert len({config.seed for config in single}) == 117

    def test_every_input_set_has_digests(self):
        table = digests.load_table()
        for name in run.WORKLOAD_NAMES:
            size = len(workloads.WORKLOADS[name].canonical_configs(0))
            for input_set in range(workloads.INPUT_SETS):
                recorded = digests.expected_digests(table, name, input_set)
                assert recorded is not None and len(recorded) == size, (
                    name, input_set)


class TestUnits:
    @staticmethod
    def phase(workload, units, tmp_path):
        phase = run.Phase(workload, {}, [], None, tmp_path)
        phase.units = units
        phase.pass_seconds = [sum(seconds for seconds, _ in pass_units)
                              for pass_units in units]
        phase.completed = [sum(size for _, size in units[0])] * len(units)
        phase.factors = [1.0] * len(units)
        return phase

    def test_rate_is_the_median_passes(self, tmp_path):
        phase = self.phase(workloads.WORKLOADS["fig9-12-execute-cold"],
                           [[(2.0, 16), (3.0, 4)], [(1.5, 16), (4.0, 4)],
                            [(9.0, 16), (1.0, 4)]], tmp_path)
        assert phase.median_units() == [(2.0, 16), (3.0, 4)]
        assert phase.configs_per_s == pytest.approx(20 / 5.5)

    def test_a_slow_host_phase_scales_to_reference_seconds(self, tmp_path):
        host_probe = probe.HostProbe()
        # Slices took twice the reference: the host ran at half speed.
        host_probe.samples = [probe.REFERENCE_S * 1.5,
                              probe.REFERENCE_S * 2.5]
        assert host_probe.factor == pytest.approx(0.5)
        phase = self.phase(workloads.WORKLOADS["fig9-12-replay-warm"],
                           [[(3.0, 2), (1.0, 1)], [(1.0, 2), (1.0, 1)],
                            [(2.0, 2), (0.5, 1)]], tmp_path)
        phase.factors = [host_probe.factor, 1.0, 1.0]
        # Reference pass times 2.0, 2.0 and 2.5 s.
        assert phase.configs_per_s == pytest.approx(3 / 2.0)
        assert phase.latencies() == pytest.approx([1.5, 1.5, 2.0])

    def test_batch_latency_runs_to_the_configs_own_unit(self, tmp_path):
        phase = self.phase(workloads.WORKLOADS["fig9-12-replay-warm"],
                           [[(1.0, 2), (0.5, 1)]], tmp_path)
        assert phase.latencies() == [1.0, 1.0, 1.5]

    def test_lone_config_latency_is_its_own_unit(self, tmp_path):
        phase = self.phase(workloads.WORKLOADS["single-runs-unshared"],
                           [[(1.0, 1), (0.5, 1)], [(2.0, 1), (0.25, 1)],
                            [(3.0, 1), (0.75, 1)]], tmp_path)
        assert phase.latencies() == [2.0, 0.5]

    def test_sweep_units_are_engine_chunks(self, tmp_path):
        configs = [ExperimentConfig(app="crc", packet_count=2, seed=seed)
                   for seed in range(17)]
        host_probe = probe.HostProbe()
        outcomes, units = workloads.WORKLOADS[
            "fig9-12-execute-cold"].run_pass({}, configs, tmp_path,
                                             host_probe)
        assert len(outcomes) == 17
        assert [size for _, size in units] == [16, 1]
        assert all(seconds > 0 for seconds, _ in units)
        assert len(host_probe.samples) == 2 * workloads.SWEEP_PROBE_SLICES


class TestTracing:
    def test_uninstall_restores_every_binding(self):
        import repro.harness.experiment as experiment
        from repro.harness.store import ResultStore
        before = (experiment.run_experiment, experiment.execute_workload,
                  ResultStore.get)
        recorder = spans.SpanRecorder()
        recorder.install()
        assert experiment.run_experiment is not before[0]
        recorder.uninstall()
        assert (experiment.run_experiment, experiment.execute_workload,
                ResultStore.get) == before

    def test_traced_run_records_layers(self, tmp_path):
        config = ExperimentConfig(app="route", packet_count=5, seed=4,
                                  cycle_time=0.5, scenario="uniform")
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            from repro.api import run as api_run
            result = api_run(config)
        finally:
            recorder.uninstall()
        names = {span[0] for span in recorder.spans}
        assert {"engine.run", "parallel.map", "experiment.run",
                "experiment.load_workload", "traffic.stream",
                "experiment.golden_run", "experiment.faulty_run",
                "apps.control_plane", "apps.packet"} <= names
        metrics = spans.layer_metrics(recorder, [result], passes=1,
                                      configs_per_pass=1, record_s=0.0)
        assert metrics["experiment.golden_runs"] == 1
        assert metrics["experiment.faulty_runs"] == 1
        assert metrics["mem.l1d_accesses"] == result.l1d_accesses
        assert metrics["core.l1d_energy_calls"] > 0
        recorder.write(tmp_path / "spans.jsonl")
        lines = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert len(lines) == len(recorder.spans)
        assert all(json.loads(line)["self_s"] >= 0 for line in lines)


class TestContract:
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(
            run.WORKLOAD_NAMES)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
            run.END_TO_END_UNITS)
        recorder = spans.SpanRecorder()
        layer = spans.layer_metrics(recorder, [], passes=1,
                                    configs_per_pass=1, record_s=0.0)
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            name: run.layer_unit(name)
            for name in list(layer) + list(run.OVERHEAD_METRICS)}

    def test_refuses_a_directory_without_the_program(self, tmp_path):
        import shutil
        import subprocess
        shutil.copytree(BENCH, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "single-runs-unshared", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
            timeout=60, check=False)
        assert completed.returncode != 0
        assert completed.stdout == ""
