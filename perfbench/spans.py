"""Traced mode: spans and counts recorded around calls into each layer.

The wrappers are installed from the benchmark, over the program's public
module-level functions and methods; nothing in ``src/repro`` knows about
them.  A function imported by name into other modules (``from x import
f``) is rebound everywhere it appears, so calls through any module are
seen.  Spans stay in memory and are written out when the run ends.

Only the benchmark process records.  Worker processes forked while the
wrappers are installed inherit them but skip recording (their spans
would die with them); the campaign workloads' worker-side layers are
therefore absent from the traced breakdown.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

#: A span is ``[name, start, end, parent index, config id]``.
Span = list


def self_times(spans: "list[Span]") -> "list[float]":
    """Each span's duration minus the part of it its children cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


class SpanRecorder:
    """Spans (with parents) and counters of one benchmark process."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.counts: "Counter[str]" = Counter()
        self._stack: "list[int]" = []
        self._restore: "list[tuple[object, str, object]]" = []
        #: False in forked children (read on every wrapped call, so it
        #: is a plain attribute rather than a getpid() comparison).
        self.recording = True
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self.recording = False

    def open(self, name: str, config_id: "str | None" = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if config_id is None and parent is not None:
            config_id = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent,
                           config_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.remove(index)

    # -- wrappers -------------------------------------------------------------

    def timed(self, name, function, config_arg=None, after=None):
        """``function`` wrapped in a span.

        ``name`` is a string or a callable of the call's arguments;
        ``config_arg`` is the index of an ExperimentConfig argument that
        identifies the span's config; ``after(name, args, kwargs,
        result)`` reads counts off the returned value.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                return function(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            config_id = (_config_id(args[config_arg])
                         if config_arg is not None else None)
            index = recorder.open(span_name, config_id)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(span_name, args, kwargs, result)
            return result
        return wrapper

    def timed_generator(self, name, function):
        """A generator function wrapped in a span lasting until exhaustion."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.recording:
                yield from function(*args, **kwargs)
                return
            index = recorder.open(name)
            try:
                yield from function(*args, **kwargs)
            finally:
                recorder.close(index)
        return wrapper

    def counted(self, name, function):
        """``function`` wrapped in a call counter (no span: hot paths)."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if recorder.recording:
                recorder.counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def patch(self, owner: object, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def rebind(self, original, replacement) -> None:
        """Replace ``original`` in every ``repro`` module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attribute, replacement)

    def install(self) -> None:
        """Wrap every traced layer boundary."""
        import concurrent.futures.process as futures_process

        import repro.harness.engine as engine
        import repro.harness.experiment as experiment
        import repro.harness.parallel as parallel
        import repro.replay.backend as replay_backend
        import repro.traffic.generators as generators
        from repro.apps.base import NetBenchApp
        from repro.core.energy import EnergyModel
        from repro.harness.store import ResultStore
        from repro.replay.trace import TraceStore

        def after_run(name, args, kwargs, outcome):
            if name == "experiment.faulty_run":
                hierarchy = outcome.hierarchy
                self.counts["mem.faulty_l1d_accesses"] += \
                    hierarchy.l1d.stats.accesses
                self.counts["mem.fast_accesses"] += (hierarchy.fast_reads
                                                     + hierarchy.fast_writes)

        def run_kind(args, kwargs):
            faulty = kwargs.get("faulty", args[2] if len(args) > 2 else None)
            return ("experiment.faulty_run" if faulty
                    else "experiment.golden_run")

        def after_reprice(name, args, kwargs, result):
            if result is not None:
                self.counts["replay.exact"] += 1

        run_experiment = self.timed("experiment.run",
                                    experiment.run_experiment, config_arg=0)
        self.rebind(experiment.run_experiment, run_experiment)
        for function_name, span_name in (
                ("load_workload", "experiment.load_workload"),
                ("golden_observations", "experiment.golden_observations")):
            original = getattr(experiment, function_name)
            self.rebind(original, self.timed(span_name, original))
        self.rebind(experiment.execute_workload,
                    self.timed(run_kind, experiment.execute_workload,
                               after=after_run))
        self.rebind(generators.scenario_stream,
                    self.timed_generator("traffic.stream",
                                         generators.scenario_stream))
        self.rebind(parallel.map_parallel,
                    self.timed("parallel.map", parallel.map_parallel))
        self.rebind(replay_backend.replay_trace,
                    self.timed("replay.reprice", replay_backend.replay_trace,
                               config_arg=1, after=after_reprice))
        # The replay backend's own run_experiment binding is its fallback.
        self.patch(replay_backend, "run_experiment",
                   self.timed("replay.fallback", run_experiment,
                              config_arg=0))
        original_runner = engine.backend_runner

        def backend_runner(name):
            return self.timed("engine.backend_batch", original_runner(name))
        self.patch(engine, "backend_runner", backend_runner)
        for owner, attribute, span_name in (
                (engine.CampaignEngine, "run", "engine.run"),
                (ResultStore, "get", "store.get"),
                (ResultStore, "put_many", "store.put"),
                (NetBenchApp, "run_control_plane", "apps.control_plane"),
                (NetBenchApp, "run_packet", "apps.packet")):
            self.patch(owner, attribute,
                       self.timed(span_name, getattr(owner, attribute)))
        self.patch(TraceStore, "get_or_record",
                   self.timed("replay.trace_load", TraceStore.get_or_record,
                              config_arg=1))
        self.patch(EnergyModel, "l1d_access_energy",
                   self.counted("core.l1d_energy_calls",
                                EnergyModel.l1d_access_energy))
        executor = futures_process.ProcessPoolExecutor
        self.patch(executor, "__init__",
                   self.counted("parallel.pools", executor.__init__))

    def uninstall(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines, with self time, relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as stream:
            for index, ((name, start, end, parent, config_id), own) in \
                    enumerate(zip(self.spans, self_times(self.spans))):
                stream.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "config": config_id, "start_s": start - origin,
                    "end_s": end - origin, "self_s": own}) + "\n")


def _config_id(config: object) -> str:
    from repro.api import config_key
    return config_key(config)[:12]


def layer_metrics(recorder: SpanRecorder, results: "list[object]",
                  passes: int, configs_per_pass: int,
                  record_s: float) -> "dict[str, float]":
    """The per-layer metrics of one traced phase, per pass.

    ``results`` are the phase's experiment results, from which the
    simulated ``mem.*`` counts are read.  Durations are host seconds.
    """
    totals: "Counter[str]" = Counter()
    calls: "Counter[str]" = Counter()
    own: "Counter[str]" = Counter()
    longest_chunk = 0.0
    for span, self_time in zip(recorder.spans, self_times(recorder.spans)):
        name, start, end = span[0], span[1], span[2]
        totals[name] += end - start
        calls[name] += 1
        own[name] += self_time
        if name in ("parallel.map", "engine.backend_batch"):
            longest_chunk = max(longest_chunk, end - start)
    accesses = sum(result.l1d_accesses for result in results)
    misses = sum(result.l1d_accesses * result.l1d_miss_rate
                 for result in results)
    faulty_accesses = recorder.counts["mem.faulty_l1d_accesses"]
    metrics = {
        "experiment.load_workload_s": totals["experiment.load_workload"],
        "experiment.golden_runs": calls["experiment.golden_run"],
        "experiment.golden_s": totals["experiment.golden_run"],
        "experiment.faulty_runs": calls["experiment.faulty_run"],
        "experiment.faulty_s": totals["experiment.faulty_run"],
        "experiment.reduce_s": own["experiment.run"],
        "apps.control_plane_s": totals["apps.control_plane"],
        "apps.data_plane_s": totals["apps.packet"],
        "mem.l1d_accesses": accesses,
        "mem.l1d_miss_ratio": misses / accesses if accesses else 0.0,
        "mem.injected_faults": sum(r.injected_faults for r in results),
        "mem.detected_faults": sum(r.detected_faults for r in results),
        "mem.fast_lane_share": (recorder.counts["mem.fast_accesses"]
                                / faulty_accesses if faulty_accesses
                                else 0.0),
        "mem.host_ns_per_access": (totals["experiment.faulty_run"] * 1e9
                                   / faulty_accesses if faulty_accesses
                                   else 0.0),
        "core.l1d_energy_calls": recorder.counts["core.l1d_energy_calls"],
        "traffic.stream_s": totals["traffic.stream"],
        "parallel.pools": recorder.counts["parallel.pools"],
        "parallel.map_s": totals["parallel.map"],
        "engine.chunks": calls["parallel.map"] + calls["engine.backend_batch"],
        "store.put_s": totals["store.put"],
        "store.get_calls": calls["store.get"],
        "store.get_s": totals["store.get"],
        "replay.trace_load_s": totals["replay.trace_load"],
        "replay.reprice_calls": calls["replay.reprice"],
        "replay.reprice_s": totals["replay.reprice"],
        "replay.fallbacks": calls["replay.fallback"],
        "replay.fallback_s": totals["replay.fallback"],
        "replay.exact_share": (recorder.counts["replay.exact"]
                               / (passes * configs_per_pass)),
    }
    # Ratios are already per pass; everything else is a phase total.
    per_pass = {name: value / passes
                if not name.endswith(("_ratio", "_share", "_per_access"))
                else value for name, value in metrics.items()}
    per_pass["engine.chunk_max_s"] = longest_chunk
    per_pass["replay.record_s"] = record_s
    return per_pass
