"""One workload in one process: set up, measure, check, report.

Started by run.py as a child process.  The child caps its own address space,
so an operation that runs out of memory fails with MemoryError and is
counted, and it imports circuitmarket only from the checkout's `src/`.
The last line it prints is the result object; the full result, with
provenance, raw wall times and, when traced, the spans, goes to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import spans
from harness import Run
from stats import loglog_slope, median, percentile
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
MEMORY_CAP_BYTES = 3 << 30
CLI_COMMANDS = ("compile", "solve", "verify", "decode", "lemmas", "circuit-check",
                "to-exchange", "gadget-lab")


def import_program():
    """circuitmarket and its modules, from this checkout's src/ only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    cm = importlib.import_module("circuitmarket")
    if Path(cm.__file__).resolve().parent != src / "circuitmarket":
        raise ImportError(f"circuitmarket was imported from {cm.__file__}, not {src}")
    for name in ("cli", "market", "purecircuit", "reduction", "solver"):
        importlib.import_module(f"circuitmarket.{name}")
    return cm


def git_commit(root: Path):
    """The checked-out commit, read from .git without starting a process;
    None outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- measuring --------------------------------------------------------------


def run_pass(run, workload) -> list:
    """One pass over the workload's operations; returns their records."""
    first = len(run.records)
    for op in workload.ops():
        run.execute(op)
    run.settle()
    return run.records[first:]


def measure(run, workload, seconds: float) -> list[list]:
    """Whole passes until the next one would end after `seconds`; at least one."""
    start, passes = time.perf_counter(), []
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(run, workload))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def time_metrics(run, workload, setups, passes, raw: bool) -> tuple[dict, dict]:
    """(end-to-end, workload's own) time metrics, in probe-scaled seconds or,
    with `raw`, in wall seconds.  `setups` holds (scaled, raw) pairs."""

    def seconds(record, stage=None):
        if raw:
            return record.raw_s if stage is None else record.stages.get(stage, 0.0)
        return run.scaled(record, stage)

    def stage_sum(stage):
        return median([sum(seconds(r, stage) for r in p) for p in passes])

    records = [r for p in passes for r in p]
    times = [seconds(r) for r in records]
    by_kind = defaultdict(list)
    for record, value in zip(records, times):
        by_kind[record.kind].append(value)
    if workload.setup_compile_s:
        compile_s = median([pair[1 if raw else 0] for pair in workload.setup_compile_s])
    else:
        compile_s = stage_sum("compile")
    e2e = {
        "setup_s": (median([s[1] if raw else s[0] for s in setups]), "s"),
        "compile_s": (compile_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s_p50": (percentile(times, 0.5), "s"),
        "op_s_p75": (percentile(times, 0.75), "s"),
    }
    own = {}
    if by_kind["roundtrip"]:
        rt = by_kind["roundtrip"]
        own["circuits_per_s"] = (len(rt) / sum(rt), "1/s")
        own["pipeline_s_p50"] = (percentile(rt, 0.5), "s")
        own["pipeline_s_p75"] = (percentile(rt, 0.75), "s")
    if not workload.setup_compile_s:
        for stage in ("compile", "decode", "verify", "to-exchange"):
            own[stage.replace("-", "_") + "_s"] = (stage_sum(stage), "s")
    if by_kind["clear"]:
        own["clear_ms_p50"] = (1000 * percentile(by_kind["clear"], 0.5), "ms")
        own["clear_ms_p90"] = (1000 * percentile(by_kind["clear"], 0.9), "ms")
    if by_kind["chain"]:
        own["chain_s_p50"] = (percentile(by_kind["chain"], 0.5), "s")
    return e2e, own


def untraced(run, workload, seconds: float) -> dict:
    setups = [run.timed(workload.setup)[1:] for _ in range(workload.setup_reps)]
    passes = measure(run, workload, seconds)
    e2e, own = time_metrics(run, workload, setups, passes, raw=False)
    wall = {}
    for part in time_metrics(run, workload, setups, passes, raw=True):
        wall.update(part)
    wall["probe_s_median"] = (median(run.probes), "s")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    own["failed_frac"] = (len(run.failures) / max(run.attempted, 1), "frac")
    summary = workload.summary()
    for name in ("verified_frac", "solved_frac"):
        if name in summary:
            own[name] = (summary[name], "frac")
    return {"end_to_end": e2e, "workload": own, "raw_wall": wall}


def op_seconds(run, workload) -> float:
    """Summed probe-scaled operation time of one pass."""
    return sum(run.scaled(r) for r in run_pass(run, workload))


def traced(cm, run, workload) -> dict:
    """Set up once traced, then one untraced and one traced pass; the layer
    metrics come from the traced set-up and pass."""
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, cm)
    run.tracer = tracer
    try:
        with tracer.span("bench.setup"):
            workload.setup()
    finally:
        restore()
        run.tracer = spans.NullTracer()
    counts = (run.stdout_bytes, run.cli_errors)
    plain = op_seconds(run, workload)
    run.stdout_bytes, run.cli_errors = counts
    restore = spans.instrument(tracer, cm)
    run.tracer = tracer
    try:
        with_spans = op_seconds(run, workload)
    finally:
        restore()
        run.tracer = spans.NullTracer()
    start = tracer.spans[0][1] if tracer.spans else 0.0
    return {
        "per_layer": layer_metrics(cm, tracer, run, workload, with_spans / plain - 1),
        "spans": [[n, s - start, e - start, p, op] for n, s, e, p, op in tracer.spans],
        "probe_gaps": [[i, s - start, e - start] for i, s, e in tracer.gaps],
    }


def layer_metrics(cm, tracer, run, workload, overhead_frac) -> dict:
    """Calls and self time of every wrapped function and CLI command, error
    counts per layer, and the counters read off wrapped results.  Times
    here are wall seconds without the probing done inside the spans."""
    rows = spans.by_name(tracer.spans, tracer.gaps)
    names = [f"{layer}.{name}" for layer, name, _ in spans.exported_functions(cm)]
    names += [f"cli.{command}" for command in CLI_COMMANDS]
    metrics = {}
    for name in names:
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    metrics["cli.stdout_bytes"] = (run.stdout_bytes, "bytes")
    metrics["cli.errors"] = (run.cli_errors, "count")
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
    counters = tracer.counters
    for name, unit in (("reduction.goods", "count"), ("reduction.buyers", "count"),
                       ("market.market_json_bytes", "bytes"),
                       ("market.exchange_json_bytes", "bytes"),
                       ("solver.tatonnement.iterations", "count"),
                       ("solver.price_bits_max", "bits")):
        metrics[name] = (int(counters[name]), unit)
    for name, hits in (("solver.tatonnement", "converged"), ("solver.pinned_bisection", "exact")):
        calls = metrics[f"{name}.calls"][0]
        metrics[f"{name}.{hits}_frac"] = (counters[f"{name}.{hits}"] / calls if calls else 0.0, "frac")

    # Complexity over the NAND sweeps: the exponent e in time ~ k**e of the
    # compile_circuit spans in the compile operations, and of the
    # verify_fisher spans in the verify operations.
    for fn, prefix in (("reduction.compile_circuit", "nand-compile-k"),
                       ("market.verify_fisher", "nand-verify-k")):
        per_k = defaultdict(float)
        for name, start, end, _, op in tracer.spans:
            if name == fn and op and op.startswith(prefix):
                per_k[int(op[len(prefix):])] += spans.net_duration(start, end, tracer.gaps)
        slope = loglog_slope(sorted(per_k.items())) if len(per_k) > 1 else 0.0
        metrics[f"{fn}.k_exponent"] = (slope, "slope")

    summary = workload.summary()
    for name in ("verified_frac", "solved_frac"):
        metrics[f"solver.{name}"] = (summary.get(name, 0.0), "frac")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    return metrics


# --- reporting --------------------------------------------------------------


def select(metrics: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, in its units; a missing one is an error."""
    out = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cm = import_program()
    oracle = checks.load_oracle(ROOT)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    run = Run(work=work, seed=args.seed, cli=cm.cli)
    try:
        workload = WORKLOADS[args.workload](run, cm, oracle)
        if args.trace:
            result = traced(cm, run, workload)
        else:
            result = untraced(run, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    line = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": select(result[section], spec[section]),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "python": sys.version,
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(ROOT),
            "artifacts_sha256": dict(sorted(run.artifacts.items())),
        },
        "summary": workload.summary(),
        "failures": run.failures,
        "result": line,
    }
    for key, values in result.items():
        if key not in ("spans", "probe_gaps"):
            record[key] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record["ops"] = [[r.kind, r.raw_s, r.first, r.last] for r in run.records]
    record["probes"] = run.probes
    record["spans"] = result.get("spans", [])
    record["probe_gaps"] = result.get("probe_gaps", [])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for key in ("end_to_end", "workload", "raw_wall", "per_layer"):
        for name, (value, unit) in sorted(result.get(key, {}).items()):
            if key != "per_layer" or name in line["metrics"]:
                print(f"{key:10} {name:42} {value:.6g} {unit}")
    print(f"summary    {json.dumps(record['summary'], sort_keys=True)}")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(f"result file {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
