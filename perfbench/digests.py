"""The result check: every config's result against a recorded digest.

A result's digest is the SHA-256 of ``canonical_json(result.to_json())``,
truncated to :data:`DIGEST_HEX` hex digits (64 bits: enough to catch any
perturbation, small enough to keep one digest per config of every input
set in ``digests.json``).  Simulated statistics are deterministic, so a
result either matches its digest exactly or the program changed what it
computes.

A change that alters simulated results on purpose bumps
``repro.harness.store.CODE_VERSION``; the benchmark then fails every
config until the digests are re-recorded with ``record_digests.py``, in
a change of its own that touches only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.api import CODE_VERSION, canonical_json

DIGEST_HEX = 16

DIGEST_PATH = Path(__file__).resolve().parent / "digests.json"


def result_digest(result: object) -> str:
    """The recorded form of one result."""
    text = canonical_json(result.to_json())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def load_table(path: Path = DIGEST_PATH) -> "dict[str, object]":
    """The recorded digest table (empty when none is recorded yet)."""
    if not path.exists():
        return {"code_version": CODE_VERSION, "workloads": {}}
    return json.loads(path.read_text())


def expected_digests(table: "dict[str, object]", workload: str,
                     input_set: int) -> "list[str] | None":
    """Recorded digests for one workload's input set, or ``None``."""
    if table.get("code_version") != CODE_VERSION:
        return None
    recorded = table["workloads"].get(workload, {}).get(str(input_set))
    return None if recorded is None else recorded.split()


def check_outcomes(outcomes: "list[object]",
                   expected: "list[str] | None") -> "list[str]":
    """One line per failed config; empty when every result matches.

    A config fails when it raised, when its result is missing, or when
    its digest differs from the recorded one.  Without a recording every
    config fails: an unchecked result is not a correct one.
    """
    failures = []
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, BaseException):
            failures.append(f"config {index}: raised "
                            f"{type(outcome).__name__}: {outcome}")
        elif expected is None or index >= len(expected):
            failures.append(f"config {index}: no recorded digest "
                            f"(code version {CODE_VERSION})")
        elif result_digest(outcome) != expected[index]:
            failures.append(f"config {index}: digest mismatch "
                            f"({outcome.config.label})")
    if expected is not None and len(outcomes) < len(expected):
        failures.extend(f"config {index}: result missing"
                        for index in range(len(outcomes), len(expected)))
    return failures


def write_table(recorded: "dict[str, dict[str, list[str]]]",
                path: Path = DIGEST_PATH) -> None:
    """Write the table: one line of space-separated digests per input set."""
    workloads = {workload: {key: " ".join(digests)
                            for key, digests in sets.items()}
                 for workload, sets in recorded.items()}
    path.write_text(json.dumps(
        {"code_version": CODE_VERSION, "workloads": workloads},
        indent=2, sort_keys=True) + "\n")
