"""The campaign engine: cached, resumable, parallel experiment sweeps.

Every consumer of multi-config execution -- the figure and table
generators, the cartesian sweeps, the single-fault campaigns, the CLI --
funnels through :class:`CampaignEngine`.  The engine:

1. content-addresses every requested config through the
   :class:`~repro.harness.store.ResultStore` (when one is attached) and
   partitions the request into *cached* and *missing*;
2. submits every missing config, whatever its backend, as its own task
   to one process pool owned by the :meth:`CampaignEngine.run` call
   (``max_workers=1`` runs them serially in-process instead);
3. persists results atomically in deterministic, input-ordered chunks
   (temp-file + rename) while the workers carry on with later configs,
   so an interrupted campaign loses at most the unpersisted chunks and
   a re-run executes only the still-missing configs -- resume is not a
   mode, it is the partition step doing its job;
4. reports progress through the telemetry
   :class:`~repro.telemetry.metrics.CounterSet` (``campaign.configs``,
   ``campaign.cache_hits``, ``campaign.simulated``, ``campaign.chunks``,
   ``campaign.uncacheable``, and ``<backend>.fallbacks`` for configs a
   backend handed to faithful execution) plus an optional ``progress``
   callback.

The pool lives exactly as long as one ``run()`` call.  Its workers fork
when the call starts, so they inherit the caller's process state at that
moment (the replay backend's trace store, the golden-observation cache)
and keep their own golden caches for the rest of the call.

Determinism is untouched: a result depends only on its config, never on
chunking, scheduling, or whether it came from the store -- the warm-cache
equality tests assert ``repr``-identity between the two paths.
"""

from __future__ import annotations

import concurrent.futures

from repro.harness.backends import (
    backend_fallbacks,
    backend_runner,
    register_backend,
)
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.store import ResultStore, config_key
from repro.telemetry.metrics import CounterSet

#: Configs persisted per atomic store write.  Small enough that a killed
#: sweep rarely loses more than a minute of work, large enough to
#: amortise the write.
DEFAULT_CHUNK_SIZE = 16


def _simulate(config: ExperimentConfig) -> "tuple[ExperimentResult, int]":
    """One config on its backend, and how many fallbacks it took.

    The single task every missing config becomes, serial or pooled
    (module-level so the pool pickles it by reference).  The fallback
    count travels with the result because a worker's process-wide
    counters are invisible to the parent.
    """
    before = backend_fallbacks(config.backend)
    result = backend_runner(config.backend)([config])[0]
    return result, backend_fallbacks(config.backend) - before


class CampaignEngine:
    """Runs lists of configs through the cache/fan-out/persist pipeline."""

    def __init__(
        self,
        store: "ResultStore | None" = None,
        max_workers: "int | None" = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        progress: "object | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk size must be positive")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.store = store
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.counters = CounterSet()
        #: Optional callable(str) receiving one line per completed chunk.
        self.progress = progress

    # -- the public run API ---------------------------------------------------

    def run(self, configs: "list[ExperimentConfig]",
            refresh: bool = False) -> "list[ExperimentResult]":
        """Run every config (cache-first), returning results in input order.

        Duplicate configs (same content address) simulate once and share
        the result.  An empty list -- e.g. an all-cached campaign after
        partitioning elsewhere -- returns an empty list.

        ``refresh=True`` skips the cache-read partition and re-simulates
        every config, still persisting the fresh results (overwriting in
        place, since the content address is unchanged).  The differential
        oracle uses this to compare stored bytes against a forced
        re-simulation without clearing the store.
        """
        self.counters.bump("campaign.runs")
        self.counters.bump("campaign.configs", len(configs))
        if refresh:
            self.counters.bump("campaign.refreshed", len(configs))
        if not configs:
            return []
        keys = [self._key(config) for config in configs]
        resolved: "dict[str, ExperimentResult]" = {}
        missing: "dict[str, ExperimentConfig]" = {}
        for key, config in zip(keys, configs):
            if key in resolved or key in missing:
                continue
            cached = (None if refresh or self.store is None
                      else self.store.get(key))
            if cached is not None:
                resolved[key] = cached
                self.counters.bump("campaign.cache_hits")
            else:
                missing[key] = config
        self.counters.bump("campaign.missing", len(missing))
        pending = list(missing.items())
        batch = [config for _, config in pending]
        pool = None
        if len(batch) > 1 and self.max_workers != 1:
            # Imported here so that importing repro stays light.  Forked
            # workers inherit this process's trace store and golden cache
            # whatever the platform's default start method is.
            import multiprocessing
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("fork"))
        try:
            # Lazy either way: serially, each chunk is simulated only
            # after the previous one is persisted.
            outcomes = (map(_simulate, batch) if pool is None
                        else pool.map(_simulate, batch))
            for start in range(0, len(pending), self.chunk_size):
                chunk = pending[start:start + self.chunk_size]
                simulated = [next(outcomes) for _ in chunk]
                if self.store is not None:
                    self.store.put_many(
                        [result for result, _ in simulated])
                for (key, config), (result, fallbacks) in zip(chunk,
                                                              simulated):
                    resolved[key] = result
                    if fallbacks:
                        self.counters.bump(f"{config.backend}.fallbacks",
                                           fallbacks)
                self.counters.bump("campaign.simulated", len(chunk))
                self.counters.bump("campaign.chunks")
                hits = self.counters.get("campaign.cache_hits")
                self._report(
                    f"campaign: {start + len(chunk)}/{len(pending)} "
                    f"simulated ({hits} cached)")
        finally:
            if pool is not None:
                # After an exception or interrupt, drop the queued configs;
                # either way, return only once every worker has exited.
                pool.shutdown(cancel_futures=True)
        return [resolved[key] for key in keys]

    def run_one(
        self,
        config: ExperimentConfig,
        injector_override: "object | None" = None,
        tracer: "object | None" = None,
    ) -> ExperimentResult:
        """One uncacheable run (scripted injectors, attached tracers).

        An ``injector_override`` makes the outcome depend on state outside
        the config, so it must never be filed under the config's content
        address; this path bypasses the store entirely while still
        counting toward the campaign's progress counters.  Overrides and
        tracers observe the faithful kernel, so they require the
        ``execute`` backend.
        """
        if config.backend != "execute" and (
                injector_override is not None or tracer is not None
                or config.tracer is not None):
            raise ValueError(
                f"injector overrides and tracers observe the faithful "
                f"kernel; they require backend='execute', got "
                f"{config.backend!r}")
        self.counters.bump("campaign.uncacheable")
        if config.backend != "execute":
            return backend_runner(config.backend)([config])[0]
        return run_experiment(config, injector_override=injector_override,
                              tracer=tracer)

    # -- reporting ------------------------------------------------------------

    def summary(self) -> str:
        """One-line progress/result summary (stable ``name=value`` pairs)."""
        names = ("configs", "cache_hits", "simulated", "chunks",
                 "uncacheable")
        return "campaign: " + " ".join(
            f"{name}={self.counters.get('campaign.' + name)}"
            for name in names)

    def _key(self, config: ExperimentConfig) -> str:
        if self.store is not None:
            return self.store.key_for(config)
        return config_key(config)

    def _report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


#: Shared uncached, serial engine: the default execution path for the
#: figure/table/sweep consumers when no engine is passed explicitly.
_DEFAULT_ENGINE = CampaignEngine()


def default_engine() -> CampaignEngine:
    """The process-wide default engine (no store, serial, no progress)."""
    return _DEFAULT_ENGINE


def run(config: ExperimentConfig, *,
        backend: "str | None" = None,
        tracer: "object | None" = None,
        engine: "CampaignEngine | None" = None) -> ExperimentResult:
    """The unified single-run entry point (``repro.api.run``).

    Runs one config through an engine, picking the execution lane from
    ``backend`` (overriding ``config.backend`` when given; see
    :data:`repro.harness.backends.BACKEND_NAMES`).  A ``tracer`` routes
    through the uncacheable :meth:`CampaignEngine.run_one` path (tracing
    observes the faithful kernel, so it requires the ``execute``
    backend); ``engine`` defaults to the process-wide
    :func:`default_engine`.  Sweeps should call
    :meth:`CampaignEngine.run` directly to batch configs.
    """
    if backend is not None:
        config = config.with_options(backend=backend)
    if engine is None:
        engine = default_engine()
    if tracer is not None or config.tracer is not None:
        return engine.run_one(config, tracer=tracer)
    return engine.run([config])[0]


def _execute_backend(
        configs: "list[ExperimentConfig]") -> "list[ExperimentResult]":
    """The faithful backend: every config runs the full kernel serially."""
    return [run_experiment(config) for config in configs]


register_backend("execute", _execute_backend)
