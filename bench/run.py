"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-all [--seed 42] [--seconds 30] [--trace 0]

A closed loop: one process and one thread, whose single caller waits
for each op before sending the next.  After the inputs are built from
the seed, one warm-up pass runs untimed, then the workload's fixed
number of timed passes (``passes`` in workloads.py, the same on every
commit), each followed by set-up probes in fresh interpreters
(probe.py).  Every pass's outputs are checked against the oracles
outside the timed region, and any mismatch counts as a failed op.

Every time is scaled to a fixed machine speed by the reference kernel of
pace.py, timed next to the work, because the speed of a shared machine
drifts by more than any regression bound.  The raw times are printed
beside the scaled ones.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``pass_s`` is the median over the timed passes of a pass's wall time;
``op_p50_us``/``op_p99_us`` are percentiles over the ops of a pass of
each op's median latency across the timed passes.  The probes fill the
rest of ``--seconds``, spread evenly over the passes, with at least
MIN_PROBES of them; ``setup_s`` and ``import_s`` are the medians of
their scaled times.
``peak_rss_mb`` is this process's peak resident memory.

``--trace 1`` alternates untraced passes with passes that have every
layer function wrapped (tracing.py), in pairs, until the next pair would
end past ``--seconds`` (at least one pair).  It reports the per-layer metrics of BENCHMARK.json as medians
over traced passes and the tracing overhead as the median traced minus
the median untraced pass time, and writes every reached function's
aggregates, the verify properties' times and a per-group split to
results/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import stats
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_PROBES = 25
DEFAULT_SEED = 42


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mvcalc benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe(workload: str, seed: int) -> dict:
    """import_s and setup_s of one fresh interpreter, raw and scaled."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed), repr(spawned)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    factor = pace.REF_S / sample["kernel_s"]
    sample["import_scaled_s"] = sample["import_s"] * factor
    sample["setup_scaled_s"] = sample["setup_s"] * factor
    return sample


class Run:
    """Passes over one workload, tallying ops attempted and failed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None) -> pace.Pacer:
        """One pass, its latencies and wall time scaled by the reference kernel."""
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            pacer = pace.Pacer()
            outputs = self.workload.run_pass(pacer, tracer)
            pacer.finish()
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += len(pacer)
        self.failed += self.workload.check(outputs)
        return pacer


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    begin = time.perf_counter()
    probe(name, seed)  # compiles bytecode; not a cold-start sample
    run = Run(workloads.WORKLOADS[name](seed))
    run.one_pass()
    passes: list[pace.Pacer] = []
    probes: list[dict] = []
    for i in range(run.workload.passes):
        passes.append(run.one_pass())
        # probes follow every pass, so that a burst of other load on the
        # machine falls on few of them
        share = (i + 1) / run.workload.passes
        while len(probes) < MIN_PROBES * share or time.perf_counter() - begin < seconds * share:
            probes.append(probe(name, seed))
    per_op = [statistics.median(op) for op in zip(*(p.latencies for p in passes))]
    metrics = {
        "pass_s": statistics.median(p.wall_s for p in passes),
        "op_p50_us": stats.percentile(per_op, 50) * 1e6,
        "op_p99_us": stats.percentile(per_op, 99) * 1e6,
        "setup_s": statistics.median(p["setup_scaled_s"] for p in probes),
        "import_s": statistics.median(p["import_scaled_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "passes": len(passes), "ops": len(per_op), "probes": len(probes),
        "raw": {
            "pass_s": statistics.median(p.raw_wall_s for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "import_s": statistics.median(p["import_s"] for p in probes),
        },
        "kernel_ms": 1e3 * statistics.median(t for p in passes for t in p.kernel_times),
    }
    return run, metrics, notes


def traced(name: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    from mvcalc.verify import SUITES

    workload = workloads.WORKLOADS[name](seed)
    run = Run(workload)
    run.one_pass()
    tracer = tracing.Tracer()
    plain_times: list[float] = []
    traced_times: list[float] = []
    property_s: list[dict] = []
    per_pass: list[dict] = []
    groups: dict[str, dict[str, list]] = {}

    begin = time.perf_counter()
    while not traced_times or spent + spent / len(traced_times) <= seconds:
        plain = run.one_pass()
        plain_times.append(plain.wall_s)
        property_s.append({key: s * plain.scale
                           for key, s in getattr(workload, "property_s", {}).items()})

        pacer = run.one_pass(tracer)
        traced_times.append(pacer.wall_s)
        scale = pacer.scale
        totals = {fn: (calls, self_s * scale, total_s * scale)
                  for fn, (calls, self_s, total_s) in tracer.totals().items()}
        layer = {}
        for fn in tracing.LAYER_FUNCTIONS:
            calls, self_s, total_s = totals.get(fn, (0, 0.0, 0.0))
            layer[f"{fn}.calls"] = calls
            layer[f"{fn}.self_s"] = self_s
            layer[f"{fn}.total_s"] = total_s
        layer.update(tracing.ratios(totals, tracer.counters))
        per_pass.append(layer)
        for group, records in tracer.groups.items():
            for fn, (calls, self_s, _) in records.items():
                acc = groups.setdefault(group, {}).setdefault(fn, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s * scale
        spent = time.perf_counter() - begin

    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["trace.pass_s"] = statistics.median(traced_times)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(plain_times)
    cases = getattr(workload, "property_cases", {})
    properties = {
        f"verify.{suite}.{prop}": {
            "cases": cases[f"{suite}.{prop}"],
            "s": statistics.median(p[f"{suite}.{prop}"] for p in property_s),
        }
        for suite, props in SUITES.items() for prop in props if f"{suite}.{prop}" in cases
    }
    passes = len(traced_times)
    report = {
        "untraced_pass_s": plain_times,
        "traced_pass_s": traced_times,
        "overhead_s": metrics["trace.overhead_s"],
        "layers": {fn: {field: metrics[f"{fn}.{field}"] for field in ("calls", "self_s", "total_s")}
                   for fn in tracing.LAYER_FUNCTIONS if metrics[f"{fn}.calls"]},
        "ratios": {key: metrics[key] for key in per_pass[0]
                   if not key.endswith((".calls", ".self_s", ".total_s"))},
        "verify_properties": properties,
        "groups": {g: {fn: {"calls": c / passes, "self_s": s / passes}
                       for fn, (c, s) in sorted(recs.items())}
                   for g, recs in sorted(groups.items())},
    }
    return run, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvcalc" / "__init__.py").is_file():
        print(f"error: no mvcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mvcalc

    if not Path(mvcalc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mvcalc from {mvcalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    label = f"{args.workload} seed {args.seed}"
    if args.trace:
        wanted = spec["per_layer"]
        run, metrics, report = traced(args.workload, args.seed, args.seconds)
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "python": sys.version.split()[0], **report,
        }, indent=1, sort_keys=True) + "\n")
        print(f"{label}: traced pass {metrics['trace.pass_s']:.4f} s, tracing overhead "
              f"{metrics['trace.overhead_s']:+.4f} s per pass; aggregates in {out.relative_to(ROOT)}")
    else:
        wanted = spec["end_to_end"]
        run, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
        print(f"{label}: {notes['passes']} timed passes after one warm-up, {notes['ops']} ops "
              f"per pass, {notes['probes']} set-up probes; reference kernel "
              f"{notes['kernel_ms']:.3f} ms, times scaled to {pace.REF_S * 1e3:g} ms")
        for m in wanted:
            raw = notes["raw"].get(m["name"])
            raw = "" if raw is None else f"   (raw {raw:.6f} {m['unit']})"
            print(f"  {m['name']:<12} {metrics[m['name']]:>14.6f} {m['unit']}{raw}")
        print(f"  {'error_ratio':<12} {run.failed / run.attempted:>14.6f} "
              f"({run.failed} of {run.attempted} ops failed their check)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
