"""Self-test of the weildec benchmark.

Runs every workload at its smallest size, untraced and traced, and checks:

* every certificate passes;
* every per-layer metric of a layer the workload is meant to move is
  non-zero (a zero there means a wrapper missed a binding), apart from the
  few functions the workload never calls, listed in NOT_CALLED;
* the trace engine is never called on ``faithful`` or ``certify``, and the
  commutant solver never on ``charsum`` or ``faithful``;
* every emitted metric name is declared in BENCHMARK.json, and every
  declared one is emitted.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import sys
from types import SimpleNamespace

import run  # pins BLAS threads and puts src/ on the path first

import tracer
import workloads

# Layer -> the workloads whose end-to-end metrics it should move.
MOVES_ON = {
    "cyclo": ("charsum", "faithful"),
    "cycmat": ("faithful", "certify"),
    "ringmat": ("faithful",),
    "modgroup": ("charsum", "certify"),
    "weilrep": ("charsum",),
    "decompose": ("certify",),
    "analysis": ("charsum", "faithful"),
}

# Functions of a layer that a workload it moves never calls.
NOT_CALLED = {
    "charsum": ("cyclo.inverse", "analysis.kernel_check", "analysis.lemma_diag_check",
                "modgroup.census", "weilrep.generator"),
    "faithful": ("cycmat.kron", "analysis.char_sum"),
    "certify": ("cycmat.to_ring", "modgroup.word_decompose",
                "modgroup.class_representatives"),
}

MUST_BE_ZERO = {
    "charsum": ("decompose.commutant_dimension.calls",),
    "faithful": ("weilrep.trace.calls", "decompose.commutant_dimension.calls"),
    "certify": ("weilrep.trace.calls",),
}


def layer_of(metric):
    if metric.startswith("weilrep.projective_key."):
        return "ringmat"
    return metric.split(".", 1)[0]


def check_workload(workload, cold):
    units = workloads.build(workload, seed=0, small=True)
    failures = []
    args = SimpleNamespace(seconds=0)
    metrics, _ = run.traced(args, units, cold, failures)
    errors = [f"certificate failed: {name}" for name in failures]
    for metric, (value, _unit, _note) in metrics.items():
        layer = layer_of(metric)
        called = not metric.startswith(NOT_CALLED[workload])
        if workload in MOVES_ON.get(layer, ()) and called and not value:
            errors.append(f"{metric} is zero")
    for metric in MUST_BE_ZERO[workload]:
        if metrics[metric][0] != 0:
            errors.append(f"{metric} is {metrics[metric][0]}, expected 0")
    return metrics, errors


def main():
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared_layer = {m["name"] for m in spec["per_layer"]}
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    cold = run.ColdState()  # before any certificate fills a cache
    errors = []
    for workload in workloads.WORKLOADS:
        metrics, found = check_workload(workload, cold)
        errors += [f"{workload}: {e}" for e in found]
        if set(metrics) != declared_layer:
            errors.append(f"{workload}: per-layer names differ from BENCHMARK.json: "
                          f"{sorted(set(metrics) ^ declared_layer)}")
    units = workloads.build("certify", seed=0, small=True)
    failures = []
    metrics, _ = run.end_to_end(SimpleNamespace(workload="certify", seed=0, seconds=0),
                                units, cold, failures)
    if set(metrics) != declared_e2e:
        errors.append(f"end-to-end names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ declared_e2e)}")
    if set(tracer.METRICS) != declared_layer:
        errors.append("tracer.METRICS differs from BENCHMARK.json per_layer")
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
