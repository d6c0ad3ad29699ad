"""Record the result digests the benchmark checks against.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py                  # every input set
    python3 perfbench/record_digests.py --workload single-runs-unshared \\
        --input-sets 0 7

Runs one pass of each workload per input set, exactly as ``run.py``
does, and writes the digest of every config's result into
``digests.json`` (merging with what is there under the same code
version).  Re-record only in a change that touches nothing but the
benchmark, after a change that alters simulated results on purpose.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run
from probe import HostProbe


def main(argv: "list[str] | None" = None) -> int:
    run.use_checkout_source()
    import digests
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOAD_NAMES)
    parser.add_argument("--input-sets", type=int, nargs="+",
                        default=list(range(workloads.INPUT_SETS)))
    args = parser.parse_args(argv)
    table = digests.load_table()
    recorded = {}
    if table.get("code_version") == digests.CODE_VERSION:
        recorded = {workload: {key: value.split()
                               for key, value in sets.items()}
                    for workload, sets in table["workloads"].items()}
    work = run.WORK_ROOT / f"record-{os.getpid()}"
    os.environ["TMPDIR"] = str(work)
    try:
        for name in args.workload or run.WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name]
            for input_set in args.input_sets:
                configs = workload.canonical_configs(input_set)
                directory = work / f"{name}-{input_set}"
                state = workload.setup(directory / "setup", configs)
                outcomes, units = workload.run_pass(
                    state, configs, directory, HostProbe())
                seconds = sum(unit_seconds for unit_seconds, _ in units)
                failures = [outcome for outcome in outcomes
                            if isinstance(outcome, BaseException)]
                if failures:
                    raise RuntimeError(
                        f"{name} input set {input_set}: {len(failures)} "
                        f"configs raised; first: {failures[0]!r}")
                recorded.setdefault(name, {})[str(input_set)] = [
                    digests.result_digest(outcome) for outcome in outcomes]
                digests.write_table(recorded)
                print(f"{name} input set {input_set}: {len(outcomes)} "
                      f"digests ({seconds:.1f}s)", flush=True)
                shutil.rmtree(directory)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
