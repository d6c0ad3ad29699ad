"""The benchmark's three workloads: config lists, set-up, and one pass.

Every workload is a closed loop with one client: it submits work, waits
for the results, and only then submits again.  A *pass* is one round of
a workload's whole config list; a run repeats passes until it has
measured the requested number of seconds.  Each pass starts cold (empty
result store, empty golden-observation cache), so passes are identical
units of work and a run's rate does not depend on how many it made.

What is simulated is pinned by the *input set* (``--input-set``, default
7: the paper's fig 9-12 seed), whose results are recorded in
``digests.json`` for input sets 0-15 (see :mod:`digests`).  ``--seed``
does not pick the simulation seeds, because the work a simulation seed
implies swings far more than any change worth measuring: over input
sets 0-15 the replay sweep falls back to faithful execution on 1 to 101
of its 140 configs.  It seeds the order in which ``single-runs-unshared``
submits its configs, which share nothing, so the order costs nothing.
The sweeps keep the figure generator's order, because there the order
decides how chunks load the workers (see README.md).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from repro.api import (
    ALL_POLICIES,
    TWO_STRIKE,
    CampaignEngine,
    ExperimentConfig,
    ResultStore,
    TraceStore,
    run,
    set_trace_store,
)
from repro.core.constants import NETBENCH_APPS
from repro.harness.experiment import clear_golden_cache

from probe import HostProbe

#: Packets per simulated run (the size the ROADMAP measurements use).
PACKETS = 60

#: Input sets with recorded digests; the default is the paper's seed.
INPUT_SETS = 16
DEFAULT_INPUT_SET = 7

#: Simulation processes: the container's core count.
WORKERS = 2

#: Host-speed probe slices after each sweep chunk (a one-at-a-time run
#: takes one after each config): about 20 ms per chunk of 0.3-2 s.
SWEEP_PROBE_SLICES = 4

#: Figures 9-12 clock settings.
FIG_SETTINGS = (1.0, 0.75, 0.5, 0.25, "dynamic")

SINGLE_SCENARIOS = ("uniform", "heavy-tail")
SINGLE_CYCLE_TIMES = (1.0, 0.5, 0.25)
SINGLE_REPLICAS = 3

#: (app, scenario) pairs left out of ``single-runs-unshared``: drr's flow
#: table under heavy-tail traffic outgrows simulated memory while the
#: workload is built (a known defect, see README.md).
SINGLE_EXCLUDED = frozenset({("drr", "heavy-tail")})


def fig9_12_configs(input_set: int,
                    backend: str) -> "list[ExperimentConfig]":
    """The fig 9-12 grid: 7 apps x 4 policies x 5 clock settings."""
    return [ExperimentConfig(
        app=app, packet_count=PACKETS, seed=input_set,
        cycle_time=1.0 if setting == "dynamic" else setting,
        dynamic=setting == "dynamic", policy=policy, backend=backend)
        for app in NETBENCH_APPS for policy in ALL_POLICIES
        for setting in FIG_SETTINGS]


def single_run_configs(input_set: int) -> "list[ExperimentConfig]":
    """117 scenario-driven geometric-injector configs, one seed each.

    Every config has its own simulation seed, so no two runs share a
    workload or a golden run.
    """
    configs: "list[ExperimentConfig]" = []
    for app in NETBENCH_APPS:
        for scenario in SINGLE_SCENARIOS:
            if (app, scenario) in SINGLE_EXCLUDED:
                continue
            for cycle_time in SINGLE_CYCLE_TIMES:
                for _ in range(SINGLE_REPLICAS):
                    configs.append(ExperimentConfig(
                        app=app, packet_count=PACKETS,
                        seed=input_set * 1000 + len(configs),
                        cycle_time=cycle_time, scenario=scenario,
                        injector="geometric", policy=TWO_STRIKE))
    return configs


class Workload:
    """One named workload.  Subclasses build configs and run a pass."""

    name = ""
    why = ""
    #: Whether ``--seed`` shuffles the submission order.
    shuffled = False
    #: Whether the whole list is submitted as one batch, so a config's
    #: latency runs from the batch's submission to its own unit's end;
    #: otherwise each config is submitted alone and its unit is its
    #: latency.
    one_batch = False

    def canonical_configs(self,
                          input_set: int) -> "list[ExperimentConfig]":
        """The input set's configs, in the order digests are recorded."""
        raise NotImplementedError

    def configs(self, seed: int, input_set: int,
                ) -> "tuple[list[ExperimentConfig], list[int]]":
        """The configs in submission order, and each one's canonical index."""
        canonical = self.canonical_configs(input_set)
        order = list(range(len(canonical)))
        if self.shuffled:
            random.Random(f"perfbench-order:{seed}").shuffle(order)
        return [canonical[index] for index in order], order

    def setup(self, directory: Path,
              configs: "list[ExperimentConfig]") -> "dict[str, object]":
        """Prepare on-disk state; returns what :meth:`run_pass` needs."""
        directory.mkdir(parents=True)
        return {}

    def run_pass(self, state: "dict[str, object]",
                 configs: "list[ExperimentConfig]", directory: Path,
                 probe: HostProbe,
                 ) -> "tuple[list[object], list[tuple[float, int]]]":
        """Run every config once, sampling ``probe`` after each unit.

        Returns one outcome per config (a result, or the exception that
        stopped it) and the pass's timed *units*: ``(seconds, configs)``
        pairs, in submission order, that together make up the pass and
        are the same units of work in every pass.  In a sweep a unit is
        one engine chunk, timed from the previous chunk's persisted
        results to this one's; in one-at-a-time runs it is one config.
        Probe slices are not part of any unit's time.
        """
        raise NotImplementedError


class _CampaignWorkload(Workload):
    """The fig 9-12 sweep as one :class:`CampaignEngine` batch."""

    backend = ""
    one_batch = True

    def canonical_configs(self, input_set):
        return fig9_12_configs(input_set, self.backend)

    def run_pass(self, state, configs, directory, probe):
        clear_golden_cache()
        units: "list[tuple[float, int]]" = []
        resumed = 0.0

        def chunk_persisted(_message: str) -> None:
            nonlocal resumed
            units.append((time.perf_counter() - resumed, sizes[len(units)]))
            probe.sample(SWEEP_PROBE_SLICES)
            resumed = time.perf_counter()

        engine = CampaignEngine(store=ResultStore(directory / "results"),
                                max_workers=WORKERS,
                                progress=chunk_persisted)
        sizes = [min(engine.chunk_size, len(configs) - first)
                 for first in range(0, len(configs), engine.chunk_size)]
        self.before_batch(state)
        start = resumed = time.perf_counter()
        try:
            outcomes: "list[object]" = list(engine.run(configs))
        except Exception as exc:  # the whole batch failed
            outcomes = [exc] * len(configs)
            units = [(time.perf_counter() - start, len(configs))]
        else:
            # The last chunk ends when the batch returns to the client.
            seconds, size = units[-1]
            units[-1] = (seconds + time.perf_counter() - resumed, size)
        return outcomes, units

    def before_batch(self, state: "dict[str, object]") -> None:
        pass


class ExecuteCold(_CampaignWorkload):
    name = "fig9-12-execute-cold"
    why = ("the paper's fig 9-12 sweep run cold on 2 workers: faulty runs,"
           " golden runs lost per pool, and pool dispatch all show")
    backend = "execute"


class ReplayWarm(_CampaignWorkload):
    name = "fig9-12-replay-warm"
    why = ("the same sweep on the replay backend over traces recorded in"
           " set-up: re-pricing and the fallback tail show")
    backend = "replay"

    def setup(self, directory, configs):
        state = super().setup(directory, configs)
        traces = directory / "traces"
        store = TraceStore(traces)
        start = time.perf_counter()
        recorded: "set[str]" = set()
        for config in configs:
            if config.app not in recorded:
                recorded.add(config.app)
                store.get_or_record(config)
        state["record_s"] = time.perf_counter() - start
        state["traces"] = traces
        return state

    def before_batch(self, state):
        # A fresh store loads the recorded traces from disk, as a warm
        # CLI run does.
        set_trace_store(TraceStore(state["traces"]))


class SingleRunsUnshared(Workload):
    name = "single-runs-unshared"
    why = ("117 one-at-a-time run() calls with no store and no shared"
           " golden run: golden runs, scenario traffic and the fast lane")
    shuffled = True

    def canonical_configs(self, input_set):
        return single_run_configs(input_set)

    def run_pass(self, state, configs, directory, probe):
        clear_golden_cache()
        outcomes: "list[object]" = []
        units: "list[tuple[float, int]]" = []
        for config in configs:
            start = time.perf_counter()
            try:
                outcomes.append(run(config))
            except Exception as exc:
                outcomes.append(exc)
            units.append((time.perf_counter() - start, 1))
            probe.sample()
        return outcomes, units


WORKLOADS: "dict[str, Workload]" = {
    workload.name: workload
    for workload in (ExecuteCold(), ReplayWarm(), SingleRunsUnshared())}
