"""Benchmark command for minregime.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (it need not be installed). One process per run:

1. builds the workload's inputs from ``--seed`` (``inputs.py``);
2. with ``--trace 0``, times ``setup_s``: three fresh interpreters
   importing ``minregime`` and ``minregime.cli``, one after another;
3. warms up: the workload's calls on reduced-size inputs from the same
   generators, checked against brute force;
4. repeats the workload's calls in order for ``--seconds`` seconds, every
   call at least once, tracing off, timing each call; the median of a
   call's times keeps a first, colder call out;
5. with ``--trace 1``, makes one pass with spans around the calls into
   each module and one with an allocation probe (``spans.py``);
6. checks every output outside the timed region (``checks.py``).

It prints one line per call and per metric and, last, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. It
exits 0 only when every check passes; failed / attempted is failed_frac.
A call fails when it raises (a numpy MemoryError included) or its output
fails a check.

Times are reported at a reference machine speed (see ``Reference``):
``pass_s`` is the sum over the call list of each call's median time, and
``setup_s`` the median of the three imports. The wall times are printed
beside them and saved, per sample, to ``out/samples-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
WORKLOAD_NAMES = ("panel", "multisplit", "degenerate", "bias")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


#: reference_kernel() wall time on an uncontended core of the 2-vCPU
#: machine the baseline was measured on
REF_NOMINAL_S = 0.017
#: reference kernel runs at each sampling point
REF_REPEATS = 2
#: text cells the reference kernel parses
REF_CELLS = 15_000


def reference_kernel(x, cells: list[str]) -> float:
    """Wall time of fixed work that does not touch minregime: small numpy
    operations driven by a Python loop, whole-array passes, and parsing
    text cells into rows of Python objects, the kinds of work minregime's
    calls are made of."""
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(0, 100_000, 100):
        total += float(np.sum(x[i:i + 500] * x[i:i + 500]))
    np.cumsum(x)
    np.sort(x)
    rows = [(i, float(c), c) for i, c in enumerate(cells)]
    dict(zip(cells, rows))
    rows.sort(key=lambda row: row[1])
    return time.perf_counter() - start


class Reference:
    """The machine's speed, from a fixed kernel run around each timing.

    On a small shared machine each CPU switches, every few seconds,
    between two speeds some 1.5 times apart, and the reference kernel
    switches with it. So each timed call runs pinned to one CPU (both,
    for a call that starts worker processes), the kernel runs on every
    CPU after each call, and a timing is reported at the reference speed:
    its wall time times REF_NOMINAL_S over the mean reference time, on
    the call's CPUs, just before and just after it.
    """

    def __init__(self):
        import numpy as np

        self.x = np.random.default_rng(0).standard_normal(200_000)
        self.cells = [f"{v:.12g}" for v in self.x[:REF_CELLS]]
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = self.sample()

    def sample(self) -> dict[int, float]:
        """Median reference time on each CPU, run pinned to it."""
        out = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            out[cpu] = statistics.median(reference_kernel(self.x, self.cells)
                                         for _ in range(REF_REPEATS))
        os.sched_setaffinity(0, self.cpus)
        return out

    def time(self, fn, parallel: bool = False) -> tuple[float, float]:
        """Run ``fn`` on the first CPU (on all of them if ``parallel``);
        return its wall time and that time at the reference speed."""
        cpus = self.cpus if parallel else self.cpus[:1]
        os.sched_setaffinity(0, cpus)
        try:
            start = time.perf_counter()
            fn()
            wall = time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, self.cpus)
        after = self.sample()
        ref = statistics.fmean(t[c] for t in (self.last, after) for c in cpus)
        self.last = after
        return wall, wall * REF_NOMINAL_S / ref


def measure_setup(ref: Reference) -> list[tuple[float, float]]:
    """Wall and reference-speed times of fresh interpreters importing the
    package and its CLI, one after another, each on the first CPU."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import minregime, minregime.cli"]
    return [ref.time(lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True,
                                            timeout=SETUP_TIMEOUT_S))
            for _ in range(SETUP_RUNS)]


class Runner:
    """Makes calls, keeps their first output and counts failed calls."""

    def __init__(self):
        self.runs: Counter = Counter()
        self.bad_runs: Counter = Counter()  # raised, or output changed
        self.first: dict[str, object] = {}
        self.messages: dict[str, list[str]] = {}
        self.errors: list[float] = []  # segment-metric relative errors
        self._digest: dict[str, bytes] = {}

    def fail(self, name: str, message: str) -> None:
        self.messages.setdefault(name, []).append(message)

    def call(self, call) -> None:
        self.runs[call.name] += 1
        try:
            out = call.fn()
        except Exception as exc:  # a failed call is a result, not a crash
            self.bad_runs[call.name] += 1
            self.fail(call.name, f"raised {type(exc).__name__}: {exc}")
            return
        digest = pickle.dumps(out)
        if call.name not in self.first:
            self.first[call.name] = out
            self._digest[call.name] = digest
        elif digest != self._digest[call.name]:
            self.bad_runs[call.name] += 1
            self.fail(call.name, "output differs between repetitions")

    def timed_passes(self, calls, seconds: float, ref: Reference
                     ) -> dict[str, list[tuple[float, float]]]:
        """Cycle through the calls until ``seconds`` have passed and every
        call has run at least once; returns each call's timings."""
        samples = {c.name: [] for c in calls}
        deadline = time.perf_counter() + seconds
        while True:
            for c in calls:
                if time.perf_counter() >= deadline and all(samples.values()):
                    return samples
                samples[c.name].append(ref.time(lambda: self.call(c),
                                                c.parallel))

    def check(self, workload) -> None:
        """Check the first output of every call; a failed check fails
        every run of that call, since all runs returned the same output."""
        for name, out in self.first.items():
            bad = workload.check(name, out, self.errors)
            for message in bad:
                self.fail(name, message)
            if bad:
                self.bad_runs[name] = self.runs[name]
        for name, message in workload.check_all(self.first):
            self.fail(name, message)
            self.bad_runs[name] = self.runs[name]

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.bad_runs.values())


def summary_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<28} {value:>14.6g} {unit:<6} {note}".rstrip()


def percentile_note(times: list[float]) -> str:
    """Median sample count, plus p90 when ten samples lie beyond it."""
    note = f"median of {len(times)}"
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        note += f", p90 {p90:.6g} s"
    return note


def traced_metrics(workload, runner: Runner, ref: Reference, pass_s: float,
                   trace_path: Path) -> dict[str, tuple[float, str]]:
    """One pass with spans, then one with the allocation probe.

    The traced pass is timed call by call like the timed passes, so that
    trace.overhead_s compares like with like; span times are wall times.
    """
    import spans

    tracer = spans.Tracer()
    saved = spans.rebind(tracer.wrap)
    traced_s = 0.0
    try:
        for call_id, call in enumerate(workload.calls):
            tracer.call_id = call_id
            traced_s += ref.time(lambda: runner.call(call), call.parallel)[1]
    finally:
        spans.restore(saved)
    tracer.write(trace_path, [c.name for c in workload.calls])

    probe = spans.AllocProbe()
    saved = spans.rebind(probe.wrap)
    try:
        for call in workload.calls:
            runner.call(call)
    finally:
        spans.restore(saved)

    names = {c.name for c in workload.calls}
    stdout_bytes = sum(len(out[1]) for name, out in runner.first.items()
                       if name in names and isinstance(out, tuple))
    metrics = {name: (value, spans.UNITS[name])
               for name, value in tracer.metrics(stdout_bytes).items()}
    metrics["engine.peak_alloc_mb"] = (probe.peak / 2 ** 20, "MB")
    metrics["trace.overhead_s"] = (traced_s - pass_s, "s")
    return metrics


def median_of(samples, k: int) -> float:
    return statistics.median(sample[k] for sample in samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minregime" / "__init__.py").is_file():
        print(f"error: no minregime package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    ref = Reference()
    setup = measure_setup(ref) if args.trace == 0 else []

    runner = Runner()
    for call in workload.warmup:
        runner.call(call)
    samples = runner.timed_passes(workload.calls, args.seconds, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s = sum(median_of(t, 1) for t in samples.values())
    wall_pass_s = sum(median_of(t, 0) for t in samples.values())
    if args.trace:
        metrics = traced_metrics(
            workload, runner, ref, pass_s,
            OUT / f"trace-{args.workload}-{args.seed}.json")
    (OUT / f"samples-{args.workload}-{args.seed}.json").write_text(json.dumps(
        {"setup": setup, "calls": samples}))
    runner.check(workload)
    max_err = max(runner.errors, default=0.0)
    if args.trace:
        metrics["series.max_rel_err"] = (max_err, "ratio")
    else:
        metrics = {
            "pass_s": (pass_s, "s"),
            "setup_s": (median_of(setup, 1), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "value_rel_err": (checks.quantised_error(runner.errors), "ratio"),
        }
    fewest = min(map(len, samples.values()))
    notes = {"pass_s": f"sum of per-call medians, >= {fewest} samples per "
                       f"call; wall {wall_pass_s:.4g} s",
             "value_rel_err": f"largest {max_err:.3g}, floor "
                              f"{checks.VALUE_RESOLUTION:g}"}
    if setup:
        notes["setup_s"] = f"median of {len(setup)}; wall {median_of(setup, 0):.4g} s"

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    for name, times in samples.items():
        print(summary_line("call " + name, median_of(times, 1), "s",
                           percentile_note([t for _, t in times])))
    for name, (value, unit) in metrics.items():
        print(summary_line(name, value, unit, notes.get(name, "")))
    failed = runner.failed
    print(summary_line("failed_frac", failed / runner.attempted, "ratio",
                       f"{failed} of {runner.attempted} calls"))
    for name, messages in runner.messages.items():
        for message in messages:
            print(f"FAILED {name}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
