"""Benchmark for schedcheck: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`. Set-up (parse the CSV, build the initial state) is repeated and its
median reported; whole rounds of the workload's operations run until
`--seconds` have passed, each checked against the benchmark's own answers.
Set-ups and rounds are timed on a clock that reads seconds at a reference
speed of the machine (see clock.py).
With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` untraced and traced rounds alternate,
the JSON holds the per-layer metrics of the traced rounds, timed on the
same clock, and the table also prints the tracing overhead. The table of
figures is printed above the JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path

import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("analyze-large", "whatif-policies", "exhaustive-small")
SETUP_REPEATS = 5       # set-ups timed before each round


def timed_setups(workload, times):
    """Set up SETUP_REPEATS times, appending each duration to `times`;
    returns the last built context. Each starts from a collected heap, with
    the last context released, so a collection left over from earlier work
    does not land in it and two contexts never coexist."""
    ctx = None
    for _ in range(SETUP_REPEATS):
        ctx = None
        gc.collect()
        t = clock.now()
        ctx = workload.setup()
        times.append(clock.now() - t)
    return ctx


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, checked) -> None:
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems += checked.problems


def run_rounds(workload, seconds, tally, setup_times):
    """Whole rounds until `seconds` of wall time have passed. Set-up is
    repeated before each round, so its samples spread over the run like
    the rounds do."""
    rounds = []
    deadline = clock.perf() + seconds
    while True:
        ctx = timed_setups(workload, setup_times)
        gc.collect()
        out = workload.run_round(ctx)
        tally.add(workload.check(ctx, out))
        # keep only the figures: a growing heap would slow later rounds'
        # garbage collections
        rounds.append(out._replace(results=None))
        # the round's context and outputs go before the next set-ups
        ctx = out = None
        if clock.perf() >= deadline:
            return rounds


def end_to_end(setup_times, rounds) -> dict:
    """Medians over the run's set-ups and rounds."""
    med = statistics.median
    return {
        "setup_s": (med(setup_times), "s"),
        "check_s": (med(r.check_s for r in rounds), "s"),
        "transitions_per_s": (med(r.transitions / r.check_s for r in rounds),
                              "1/s"),
        "analyze_s": (med(r.analyze_s for r in rounds), "s"),
        "round_s": (med(r.round_s for r in rounds), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def print_table(title, metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")


def print_rounds(setup_times, rounds) -> None:
    print(f"  {rounds[0].transitions} checker transitions a round; per round "
          "check_s/analyze_s/round_s: " + "  ".join(
              f"{r.check_s:.3f}/{r.analyze_s:.3f}/{r.round_s:.3f}"
              for r in rounds))
    print(f"  reference clock: {clock.ticks} probes, "
          f"{clock.probe_s:.2f} s of probing")
    print("  set-ups: " + " ".join(f"{t:.4g}" for t in setup_times))


def measure(workload, args, tally):
    """The untraced run: end-to-end metrics."""
    setup_times = []
    rounds = run_rounds(workload, args.seconds, tally, setup_times)
    metrics = end_to_end(setup_times, rounds)
    print_table(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
                f"{len(setup_times)} set-ups", metrics)
    print_rounds(setup_times, rounds)
    return metrics


def measure_traced(workload, args, tally):
    """The traced run: per-layer metrics and the tracing overhead.
    Untraced and traced rounds alternate, so both see the same spells of
    host speed and their difference is the overhead."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    plain, rounds, setup_times, traced_setup_times = [], [], [], []
    deadline = clock.perf() + args.seconds
    while not rounds or clock.perf() < deadline:
        plain += run_rounds(workload, 0, tally, setup_times)
        tracer.install()
        try:
            rounds += run_rounds(workload, 0, tally, traced_setup_times)
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, len(rounds))
    print_table(f"{args.workload} seed {args.seed}: {len(rounds)} traced "
                "rounds", metrics)
    for label, untraced, traced in (
            ("set-up", statistics.median(setup_times),
             statistics.median(traced_setup_times)),
            ("round", statistics.median(r.round_s for r in plain),
             statistics.median(r.round_s for r in rounds))):
        print(f"  tracing overhead, {label}: {traced - untraced:+.4f} s "
              f"({100.0 * (traced - untraced) / untraced:+.1f} %)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schedcheck" / "__init__.py").is_file():
        print(f"error: no schedcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        clock.start()
        try:
            metrics = (measure_traced if args.trace else measure)(
                workload, args, tally)
        finally:
            clock.stop()
    for problem in tally.problems[:50]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
