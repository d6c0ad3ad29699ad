"""Run one benchmark workload (or all of them) and report its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9-12-execute-cold --seed 7 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --trace 1  # per-layer table

Human-readable report lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, from a run whose first
half is untraced (for the tracing overhead) and whose second half is
traced.  The times of passes are in reference seconds: host seconds
scaled by the host-speed probe of ``probe.py``, so that the shared
host's slow phases do not read as slow code.  ``setup_s`` is host time.  The exit code is non-zero when any
config failed its result check.  See README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
OUT_ROOT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("fig9-12-execute-cold", "fig9-12-replay-warm",
                  "single-runs-unshared")

#: Set-ups (and program imports) per run; ``setup_s`` reports medians.
SETUP_REPEATS = 3

#: Times the imports in a fresh interpreter, as this process imports.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {here!r}); "
                "start = time.perf_counter(); import digests, workloads; "
                "print(time.perf_counter() - start)")

END_TO_END_UNITS = {"configs_per_s": "1/s", "config_p50_ms": "ms",
                    "config_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}

#: Traced runs add these to the per-layer metrics.
OVERHEAD_METRICS = ("trace.untraced_configs_per_s",
                    "trace.traced_configs_per_s", "trace.overhead_ratio")


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src`` (and nowhere else).

    Exits with status 2, printing no result, when the checkout holds no
    program to measure.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program at {SOURCE}/repro; run "
                         f"from the root of a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SOURCE))
    # Worker processes find the program the same way.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")]))


def percentile(values: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def fingerprint() -> "dict[str, object]":
    """The machine and software the numbers were measured on."""
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Phase:
    """Passes of one workload, run until ``seconds`` of them are timed."""

    def __init__(self, workload, state, configs, expected, directory,
                 recorder=None) -> None:
        self.workload = workload
        self.state = state
        self.configs = configs
        self.expected = expected
        self.directory = directory
        self.recorder = recorder
        #: Each pass's reference seconds per host second (see probe.py).
        self.factors: "list[float]" = []
        self.probe_slices = 0
        #: Each pass's timed units, as :meth:`Workload.run_pass` gives them.
        self.units: "list[list[tuple[float, int]]]" = []
        self.pass_seconds: "list[float]" = []
        self.results: "list[object]" = []
        self.failures: "list[str]" = []
        self.attempted = 0
        self.completed: "list[int]" = []

    def run(self, seconds: float) -> None:
        """Run passes while another one is expected to fit in ``seconds``.

        At least one pass runs, so a run never overshoots by more than
        one pass even when a single pass takes longer than ``seconds``.
        """
        from digests import check_outcomes
        while not self.pass_seconds or (
                sum(self.pass_seconds)
                + statistics.median(self.pass_seconds) <= seconds):
            directory = self.directory / f"pass{len(self.pass_seconds)}"
            directory.mkdir(parents=True)
            probe = HostProbe()
            if self.recorder is not None:
                self.recorder.install()
            try:
                outcomes, units = self.workload.run_pass(
                    self.state, self.configs, directory, probe)
            finally:
                if self.recorder is not None:
                    self.recorder.uninstall()
            shutil.rmtree(directory)
            if not probe.samples:  # the pass failed before a unit ended
                probe.sample()
            self.factors.append(probe.factor)
            self.probe_slices += len(probe.samples)
            self.units.append(units)
            self.pass_seconds.append(sum(seconds for seconds, _ in units))
            failures = check_outcomes(outcomes, self.expected)
            self.failures.extend(failures)
            self.attempted += len(self.configs)
            if self.recorder is not None:  # the mem.* counts need them
                self.results.extend(
                    outcome for outcome in outcomes
                    if not isinstance(outcome, BaseException))
            self.completed.append(sum(
                not isinstance(outcome, BaseException)
                for outcome in outcomes))
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    traceback.print_exception(
                        type(outcome), outcome, outcome.__traceback__,
                        file=sys.stderr)
                    break
            if failures:
                break  # a broken program is not worth timing further

    @property
    def host_configs_per_s(self) -> float:
        """The median pass's rate: robust to a pass slowed by the host."""
        return statistics.median(
            completed / seconds
            for completed, seconds in zip(self.completed, self.pass_seconds))

    @property
    def configs_per_s(self) -> float:
        """The median pass's rate per reference second.

        Each pass is scaled by the probe slices taken during it, so a
        run whose host changes speed part-way is scaled pass by pass.
        """
        return statistics.median(
            completed / (seconds * factor) for completed, seconds, factor
            in zip(self.completed, self.pass_seconds, self.factors))

    def median_units(self) -> "list[tuple[float, int]]":
        """Each unit's median reference time over the passes, in
        submission order."""
        shape = [size for _, size in self.units[0]]
        alike = [(units, factor)
                 for units, factor in zip(self.units, self.factors)
                 if [size for _, size in units] == shape]
        return [(statistics.median(units[index][0] * factor
                                   for units, factor in alike), size)
                for index, size in enumerate(shape)]

    def latencies(self) -> "list[float]":
        """Each config's latency in reference seconds, from its units'
        median times.

        In a batch a config waits from the batch's submission until its
        own unit's results are in; a config submitted alone waits for
        its own unit only.
        """
        latencies: "list[float]" = []
        elapsed = 0.0
        for seconds, size in self.median_units():
            elapsed = elapsed + seconds if self.workload.one_batch else seconds
            latencies.extend([elapsed] * size)
        return latencies


def import_seconds() -> "list[float]":
    """This process's import time, then that of fresh interpreters."""
    start = time.perf_counter()
    import digests  # noqa: F401
    import workloads  # noqa: F401
    samples = [time.perf_counter() - start]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(here=str(HERE))],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout))
    return samples


def run_workload(args) -> int:
    use_checkout_source()
    import_samples = import_seconds()
    import_s = statistics.median(import_samples)
    import digests
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    run_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir)
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            configs, order = workload.configs(args.seed, args.input_set)
            state = workload.setup(run_dir / f"setup{repeat}", configs)
            setup_times.append(time.perf_counter() - start)
        setup = {"setup_s": import_s + statistics.median(setup_times),
                 "import_s": import_samples,
                 "setup_repeat_s": setup_times}
        recorded = digests.expected_digests(
            digests.load_table(), args.workload, args.input_set)
        expected = (None if recorded is None
                    else [recorded[index] for index in order])
        phases = []
        if args.trace:
            from spans import SpanRecorder
            plan = [(args.seconds / 2, None),
                    (args.seconds / 2, SpanRecorder())]
        else:
            plan = [(args.seconds, None)]
        for index, (seconds, recorder) in enumerate(plan):
            phase = Phase(workload, state, configs, expected,
                          run_dir / f"phase{index}", recorder)
            phase.run(seconds)
            phases.append(phase)
            if phase.failures:
                break
        return report(args, phases, setup, state)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, phases, setup, state) -> int:
    attempted = sum(phase.attempted for phase in phases)
    failures = [line for phase in phases for line in phase.failures]
    for line in failures[:20]:
        print(f"# FAILED {line}", file=sys.stderr)
    untraced = phases[0]
    latencies_ms = [value * 1000.0 for value in untraced.latencies()]
    end_to_end = {
        "configs_per_s": untraced.configs_per_s,
        "config_p50_ms": percentile(latencies_ms, 0.5),
        "config_p90_ms": percentile(latencies_ms, 0.9),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    failed_ratio = len(failures) / attempted
    details = {
        "workload": args.workload, "seed": args.seed,
        "input_set": args.input_set, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(),
        "configs_per_pass": len(untraced.configs),
        "passes": len(untraced.pass_seconds),
        "pass_seconds": untraced.pass_seconds,
        "host_configs_per_s": untraced.host_configs_per_s,
        "probe_factors": untraced.factors,
        "probe_slices": untraced.probe_slices,
        "latency_samples": len(latencies_ms),
        "latency_samples_beyond_p90":
            sum(value > end_to_end["config_p90_ms"]
                for value in latencies_ms),
        **setup, "failed_ratio": failed_ratio, "failures": failures,
    }
    lines = [f"workload {args.workload}  seed {args.seed}  input set "
             f"{args.input_set}  {details['passes']} passes x "
             f"{details['configs_per_pass']} configs  "
             f"{details['latency_samples']} latency samples "
             f"({details['latency_samples_beyond_p90']} beyond p90)",
             "machine " + json.dumps(details["fingerprint"]),
             f"host speed: {statistics.median(untraced.factors):.4f} "
             f"reference s per host s in the median pass "
             f"({details['probe_slices']} probe slices); in host time "
             f"configs_per_s {details['host_configs_per_s']:.6f}"]
    lines += [f"  {name:<28} {value:14.6f} {END_TO_END_UNITS[name]}"
              for name, value in end_to_end.items()]
    lines.append(f"  {'failed_ratio':<28} {failed_ratio:14.6f} ratio")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in end_to_end.items()}
    OUT_ROOT.mkdir(exist_ok=True)
    if args.trace:
        metrics = trace_metrics(args, phases, state, details, lines)
    for line in lines:
        print("# " + line)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details["metrics"] = metrics
    (OUT_ROOT / f"{stem}.json").write_text(
        json.dumps(details, indent=2) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def trace_metrics(args, phases, state, details, lines):
    """Per-layer metrics of the traced phase, plus the tracing overhead."""
    from spans import layer_metrics
    if len(phases) < 2 or phases[1].failures:
        return {}  # the run failed; there is nothing worth breaking down
    untraced, traced = phases
    values = layer_metrics(
        traced.recorder, traced.results, len(traced.pass_seconds),
        len(traced.configs), float(state.get("record_s", 0.0)))
    values.update(zip(OVERHEAD_METRICS, (
        untraced.configs_per_s, traced.configs_per_s,
        untraced.configs_per_s / traced.configs_per_s)))
    spans_path = OUT_ROOT / (f"{args.workload}-seed{args.seed}"
                             f".spans.jsonl")
    traced.recorder.write(spans_path)
    details["traced_passes"] = len(traced.pass_seconds)
    details["spans"] = len(traced.recorder.spans)
    lines.append(f"per-layer, per pass ({details['traced_passes']} traced "
                 f"passes, {details['spans']} spans in {spans_path.name})")
    metrics = {}
    for name, value in values.items():
        unit = layer_unit(name)
        lines.append(f"  {name:<28} {value:14.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_unit(name: str) -> str:
    """A per-layer metric's unit, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_access"):
        return "ns"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one summary."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--input-set", str(args.input_set),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   check=False)
        sys.stderr.write(completed.stderr)
        output = completed.stdout.strip().splitlines()
        for line in output[:-1]:
            print(line)
        status = status or completed.returncode
        try:
            result = json.loads(output[-1])
        except (IndexError, ValueError):
            print(f"# {name}: no result (exit {completed.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7,
                        help="seeds the order the configs are submitted in "
                             "(default 7)")
    parser.add_argument("--input-set", type=int, default=7,
                        help="the simulated inputs: 7 (default) is the "
                             "paper's seed; 0-15 have recorded digests, "
                             "so any other of them is a held-out set")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="timed seconds per run, in whole passes "
                             "(default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.input_set < 0:
        parser.error("--input-set must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
