"""Process fan-out for independent jobs.

:func:`map_parallel` maps a picklable function over items across a
short-lived process pool; the CLI uses it to render several experiment
ids at once.  Experiment configs themselves fan out through the campaign
engine's per-run pool (:class:`~repro.harness.engine.CampaignEngine`),
which :func:`run_experiments` wraps.
"""

from __future__ import annotations

import concurrent.futures

from repro.harness.config import ExperimentConfig
from repro.harness.engine import CampaignEngine
from repro.harness.experiment import ExperimentResult


def map_parallel(function, items: "list", max_workers: "int | None" = None,
                 ) -> "list":
    """Apply a picklable function to every item, optionally across processes.

    Results come back in input order.  An empty item list returns an
    empty result list.  ``max_workers=1`` (or a single item) runs
    serially in-process -- same results, no fork overhead; ``None`` lets
    the executor pick the machine's default worker count.
    """
    if not items:
        return []
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be positive")
    if max_workers == 1 or len(items) == 1:
        return [function(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers) as executor:
        return list(executor.map(function, items))


def run_experiments(
    configs: "list[ExperimentConfig]",
    max_workers: "int | None" = None,
) -> "list[ExperimentResult]":
    """Run every config, in input order, optionally across processes.

    A store-less :class:`~repro.harness.engine.CampaignEngine` run: one
    pool for the whole list, duplicate configs simulated once.
    """
    return CampaignEngine(max_workers=max_workers).run(configs)
