"""Benchmark of weildec: cold certificate rounds, end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload charsum --seed 1 --seconds 35 --trace 0

The library is imported from ``src/`` of the checkout.  A round runs
every certificate of the workload once.  Each certificate starts cold:
each functools cache of weildec is cleared and each module-level container
that was empty after import (a memo table) is emptied again, so it pays
what one ``weildec`` process pays.  Rounds repeat while the next one still
fits in ``--seconds``; at least one always runs.

Every time the benchmark reports is in reference seconds (see
``calibrate.py``): the measured time scaled by how fast the host ran a
short fixed probe, sampled on a timer throughout each round and right
after set-up in each set-up interpreter.  This takes the changing speed
of a shared host out of the figures; the measured seconds are printed
as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, including
the tracing overhead (traced minus untraced round time).  The last line
of standard output is one JSON object; the exit code is 1 when any
certificate failed.
"""

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import calibrate
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

SETUP_SAMPLES = 9
SETUP_PROBES = 100

# Runs in a fresh interpreter: import plus seeded input generation, then
# the host-speed probe, which is not part of set-up.
_SETUP_SCRIPT = """
import sys
from time import perf_counter
start = perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import weildec
import workloads
workloads.build({workload!r}, {seed!r})
elapsed = perf_counter() - start
import calibrate
print(elapsed, *(calibrate.probe() for _ in range({probes})))
"""


class ColdState:
    """Restores weildec's caches to their state right after import."""

    def __init__(self):
        modules, classes = tracer.library_namespaces()
        self._clears = [value.cache_clear
                        for owner in modules + classes
                        for value in vars(owner).values()
                        if callable(getattr(value, "cache_clear", None))]
        self._containers = [value for module in modules
                            for value in vars(module).values()
                            if type(value) in (dict, list, set) and not value]

    def reset(self):
        for clear in self._clears:
            clear()
        for container in self._containers:
            container.clear()


def run_round(units, cold, failures):
    """Runs every unit once, each from cold caches, with the host-speed
    probe sampling throughout.

    Returns (wall, times, measured): the round's time and each
    certificate's time in reference seconds, and the round's measured
    seconds.  Probe time is taken out of each of them.
    """
    spans = []
    with calibrate.Sampler() as sampler:
        for unit in units:
            start = perf_counter()
            cold.reset()
            certs = []
            for cert in unit:
                t0 = perf_counter()
                try:
                    ok = cert.run() is True
                except Exception:  # any raise, OverflowError included, is a failure
                    traceback.print_exc()
                    ok = False
                certs.append((t0, perf_counter()))
                if not ok:
                    failures.append(cert.name)
                    print(f"FAILED {cert.name}", file=sys.stderr)
            spans.append((start, perf_counter(), certs))
    wall = measured = 0.0
    times = []
    for start, end, certs in spans:
        elapsed = end - start - sampler.probe_time(start, end)
        measured += elapsed
        wall += elapsed * sampler.factor(start, end)
        times += [(t1 - t0 - sampler.probe_time(t0, t1)) * sampler.factor(t0, t1)
                  for t0, t1 in certs]
    return wall, times, measured


def setup_seconds(workload, seed):
    """Median over fresh interpreters of import plus input generation, in
    reference seconds, and the measured seconds of each interpreter."""
    code = _SETUP_SCRIPT.format(src=SRC, here=HERE, workload=workload, seed=seed,
                                probes=SETUP_PROBES)
    measured, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        elapsed, *probes = map(float, done.stdout.split())
        measured.append(elapsed)
        scaled.append(elapsed * calibrate.factor(probes))
    return statistics.median(scaled), measured


def end_to_end(args, units, cold, failures):
    setup, setup_measured = setup_seconds(args.workload, args.seed)
    walls, rounds, measured = [], [], []
    start = perf_counter()
    while True:
        wall, times, seconds = run_round(units, cold, failures)
        walls.append(wall)
        rounds.append(times)
        measured.append(seconds)
        if perf_counter() - start + max(measured) > args.seconds:
            break
    all_times = [t for times in rounds for t in times]
    for i, cert in enumerate(c for unit in units for c in unit):
        print(f"certificate {cert.name}: median "
              f"{statistics.median(times[i] for times in rounds)} reference s")
    print("measured round s: " + ", ".join(f"{s:.3f}" for s in measured))
    print("host speed per round (reference s / measured s): "
          + ", ".join(f"{w / s:.3f}" for w, s in zip(walls, measured)))
    print("measured setup s: " + ", ".join(f"{s:.4f}" for s in setup_measured))
    metrics = {
        "wall_s": (statistics.median(walls), "s", "median of rounds " + ", ".join(
            f"{w:.3f}" for w in walls)),
        "task_p50_s": (statistics.median(all_times), "s",
                       f"median of {len(all_times)} certificate times"),
        "task_max_s": (statistics.median(max(t) for t in rounds), "s",
                       f"median over {len(rounds)} rounds of the slowest certificate"),
        "setup_s": (setup, "s", f"median of {SETUP_SAMPLES} fresh interpreters"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB", "peak resident set of this process"),
    }
    return metrics, len(all_times)


def traced(args, units, cold, failures):
    trace = tracer.Tracer()
    plain_walls, traced_walls, layers = [], [], []
    attempted = 0
    longest = 0.0
    start = perf_counter()
    while True:
        wall, times, plain_measured = run_round(units, cold, failures)
        plain_walls.append(wall)
        trace.install()
        try:
            wall, times, measured = run_round(units, cold, failures)
        finally:
            trace.uninstall()
        traced_walls.append(wall)
        factor = wall / measured
        layers.append({name: value * factor if tracer.METRICS[name][0] == "s" else value
                       for name, value in trace.collect().items()})
        attempted += 2 * len(times)
        longest = max(longest, plain_measured + measured)
        if perf_counter() - start + longest > args.seconds:
            break
    metrics = {name: (statistics.median_low(layer[name] for layer in layers),
                      tracer.METRICS[name][0], f"median of {len(layers)} traced rounds")
               for name in layers[0]}
    metrics["trace.wall_s"] = (statistics.median(traced_walls), "s",
                               f"median of {len(traced_walls)} traced rounds")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls), "s",
        f"traced minus untraced median round ({len(plain_walls)} untraced)")
    return metrics, attempted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "weildec")):
        sys.exit(f"weildec sources not found under {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    units = workloads.build(args.workload, args.seed)
    cold = ColdState()
    failures = []
    measure = traced if args.trace else end_to_end
    metrics, attempted = measure(args, units, cold, failures)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{sum(map(len, units))} certificates per round, {attempted} attempted, "
          f"{len(failures)} failed (failed_frac {len(failures) / attempted})")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value} {unit}  ({note})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
