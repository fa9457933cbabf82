#!/usr/bin/env python3
"""PICACHU benchmark: three seeded workloads timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 30 --trace 0

The script builds the `perfbench` binary (perfbench/Cargo.toml, built
against the repository's crates) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs repetitions of the workload for about --seconds
seconds. Every repetition is a fresh process, so every compile starts from
an empty cache; the pool runs at min(2, cores) threads through
PICACHU_THREADS, and no other PICACHU_* variable reaches the workload. The
core count comes from the binary (`perfbench cores`), so it is the count
every workload process reports.

--trace 0 runs untraced repetitions and reports the end-to-end metrics.
--trace 1 runs cycles of three processes: untraced, traced (spans around
the top-level calls; the difference is the tracing overhead) and a replay
that times each layer from outside through its public functions. It
reports the per-layer metrics, derived from span self times and counts. A
layer the workload does not exercise reads 0 (perfbench/workloads.json
lists the layers each workload exercises).

The output checks (simulator replay of every mapping, congestion-free
16x16 mappings, Pareto frontier, scheduler audit, identical modelled
outputs across repetitions, replay equal to the timed phase) fail the run:
the script then exits non-zero without printing a result. The last stdout
line is one JSON object: correct, attempted, failed and metrics. Spans and
a record of every result, with threads and cores, go to `.bench_out/`.
Metric names and units come from BENCHMARK.json; perfbench/workloads.json
records why each workload exists and which layer moves which metric.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("compile-cold", "dse-faults", "serve-chaos")
BUILD_TIMEOUT_S = 850
PROCESS_TIMEOUT_S = 100
# Pool width every workload process asks for; it runs at min(this, cores).
REQUESTED_THREADS = 2


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_metric_units():
    """(end-to-end, per-layer) name -> unit maps from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read metric definitions from BENCHMARK.json: {e}")
    return e2e, layers


def run_process(cmd, env, timeout_s):
    """Runs cmd in its own process group, killing the group on timeout.

    Returns (exit code, stdout lines)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    killer = threading.Timer(timeout_s, lambda: os.killpg(proc.pid, signal.SIGKILL))
    killer.start()
    try:
        lines = proc.stdout.readlines()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return code, lines


def build():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no repository crates to build against")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    code, lines = run_process(cmd, env, BUILD_TIMEOUT_S)
    sys.stderr.writelines(lines)
    if code != 0:
        fail(f"build failed (exit {code})")
    return target / "release" / "perfbench"


def binary_cores(binary):
    """Cores the workload processes may run on, as they count them."""
    code, lines = run_process([str(binary), "cores"], dict(os.environ), PROCESS_TIMEOUT_S)
    try:
        cores = int(lines[-1]) if code == 0 and lines else 0
    except ValueError:
        cores = 0
    if cores < 1:
        fail(f"the benchmark binary cannot count cores (exit {code})")
    return cores


def workload_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PICACHU_")}
    env["PICACHU_THREADS"] = str(threads)
    return env


def repetition(binary, workload, seed, mode, env, knobs=None):
    """One workload process; returns its report."""
    cmd = [str(binary), workload, "--seed", str(seed), "--mode", mode]
    if knobs:
        cmd += ["--knobs", knobs]
    code, lines = run_process(cmd, env, PROCESS_TIMEOUT_S)
    if code != 0 or not lines:
        fail(f"{workload} {mode} repetition failed (exit {code})")
    try:
        rec = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} {mode} repetition printed no report")
    return rec


def run_cycles(binary, args, env):
    """Repetitions until the time budget is spent (at least two untraced
    repetitions, or one traced cycle)."""
    started = time.perf_counter()
    cycles = []
    minimum = 1 if args.trace else 2
    while True:
        cycle = {"plain": repetition(binary, args.workload, args.seed, "plain", env)}
        if args.trace:
            traced = repetition(binary, args.workload, args.seed, "traced", env)
            cycle["traced"] = traced
            cycle["replay"] = repetition(
                binary, args.workload, args.seed, "replay", env, traced.get("knobs")
            )
        cycles.append(cycle)
        elapsed = time.perf_counter() - started
        if len(cycles) >= minimum and elapsed * (len(cycles) + 1) / len(cycles) > args.seconds:
            return cycles


def check(cycles, threads, cores):
    """Cross-process output checks; any failure fails the run."""
    timed = [c[m] for c in cycles for m in ("plain", "traced") if m in c]
    if len({r["digest"] for r in timed}) != 1:
        fail("modelled outputs differ between repetitions of one seed")
    for c in cycles:
        for mode, rec in c.items():
            if (rec["threads"], rec["cores"]) != (threads, cores):
                fail(f"{mode} process ran {rec['threads']} threads on {rec['cores']} cores, "
                     f"expected {threads} on {cores}")
        replay = c.get("replay", {})
        if "digest" in replay and replay["digest"] != timed[0]["digest"]:
            fail("the layer-by-layer replay does not reproduce the timed phase's output")


def end_to_end(cycles):
    plain = [c["plain"] for c in cycles]
    first = plain[0]
    med = lambda f: statistics.median(f(r) for r in plain)
    return {
        "setup_s": med(lambda r: r["setup_s"]),
        "work_per_s": med(lambda r: r["items"] / r["timed_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "done_ratio": first["done_ratio"],
        "sim_cycles": first["sim_cycles"],
        "sim_quality": first["sim_quality"],
    }


def covered_ns(intervals):
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for s, e in sorted(intervals):
        if reach is None or s > reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total


def span_totals(recs):
    """Self time (ms) per span name and summed counts per span.counter."""
    self_ms, counts = defaultdict(float), defaultdict(float)
    for rec in recs:
        spans = rec["spans"]
        children = defaultdict(list)
        for s in spans:
            if s["parent"] >= 0:
                children[s["parent"]].append((s["start_ns"], s["end_ns"]))
        for i, s in enumerate(spans):
            dur = s["end_ns"] - s["start_ns"]
            self_ms[s["name"]] += (dur - covered_ns(children[i])) / 1e6
            for k, v in s["counts"].items():
                counts[f"{s['name']}.{k}"] += v
    return self_ms, counts


def per_layer(cycle):
    """Per-layer metrics of one traced cycle. A layer the workload does not
    exercise has no spans and reads 0."""
    traced, replay = cycle["traced"], cycle["replay"]
    ms, n = span_totals([traced, replay])
    t = lambda layer: ms[layer]
    c = lambda layer, key: n[f"{layer}.{key}"]
    ratio = lambda a, b: a / b if b else 0.0
    rate = lambda count, millis: count / (millis / 1e3) if millis > 0 else 0.0
    m = {
        "llm.trace_ms": t("llm"),
        "llm.trace_ops": c("llm", "trace_ops"),
        "lower.ms": t("lower"),
        "lower.dfg_nodes": c("lower", "dfg_nodes"),
        "place.ms": t("place"),
        "place.cells": c("place", "cells"),
        "place.accept_ratio": ratio(c("place", "accepted"), c("place", "cells")),
        "place.cells_per_s": rate(c("place", "cells"), t("place")),
        "route.ms": t("route"),
        "route.overused_slots": c("route", "overused_slots"),
        "fold.ms": t("fold"),
        "fold.folded_hops": c("fold", "folded_hops"),
        "compile.ms": t("compile"),
        "compile.degraded_ms": t("compile.degraded"),
        "compile.repair_ratio": ratio(c("compile.degraded", "repaired"),
                                      c("compile.degraded", "compiles")),
        "runtime.threads": traced["threads"],
        "runtime.cores": traced["cores"],
        # serial place+route span time over the parallel prewarm's wall, on
        # the workload that replays every candidate the prewarm searched (0
        # on the others, which replay no Place)
        "runtime.speedup": ratio(t("place") + t("route"), t("compile")),
        "dispatch.ms": t("dispatch"),
        "dispatch.ops_per_s": rate(c("dispatch", "trace_ops"), t("dispatch")),
        "dispatch.estimate_ms": t("dispatch.estimate"),
        "account.ms": t("account"),
        "cgra_sim.ms": t("cgra_sim"),
        "cgra_sim.loops_checked": c("cgra_sim", "loops_checked"),
        "serve.arrivals_ms": t("serve.arrivals"),
        "serve.pool_build_ms": t("serve.pool_build"),
        # share of the timed phase `run` spends building each window's shards
        # (cost tables from the warm compile cache), timed in the replay
        "serve.pool_build_share": ratio(t("serve.pool_build"), t("serve.sched")),
        "serve.apply_fault_ms": t("serve.apply_fault"),
        "serve.faults_applied": c("serve.apply_fault", "faults_applied"),
        # `run` minus the pieces the replay times outside it
        "serve.loop_ms": max(0.0, t("serve.sched") - t("serve.arrivals")
                             - t("serve.pool_build") - t("serve.apply_fault")),
        "trace.overhead_ms": (traced["timed_s"] - cycle["plain"]["timed_s"]) * 1e3,
    }
    for key in ("route.congested_loops", "compile.kernel_cycles", "serve.events", "serve.batches",
                "serve.preemptions", "serve.retries", "serve.shed", "serve.sim_p99_ttft_cycles",
                "serve.sim_goodput_tok_s", "dse.points", "dse.dropped", "dse.frontier",
                "dse.mean_resilience"):
        m[key] = traced.get(key, 0.0)
    return m


def write_out(args, cycles, metrics, threads, cores):
    OUT.mkdir(exist_ok=True)
    if args.trace:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as f:
            for rep, cycle in enumerate(cycles):
                for mode in ("traced", "replay"):
                    for span in cycle[mode]["spans"]:
                        row = {"workload": args.workload, "repetition": rep, "process": mode, **span}
                        f.write(json.dumps(row) + "\n")
    row = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "threads": threads, "cores": cores,
           "repetitions": len(cycles), "metrics": metrics}
    with (OUT / "results.jsonl").open("a") as f:
        f.write(json.dumps(row) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    e2e_units, layer_units = load_metric_units()
    binary = build()
    cores = binary_cores(binary)
    threads = min(REQUESTED_THREADS, cores)
    cycles = run_cycles(binary, args, workload_env(threads))
    check(cycles, threads, cores)

    if args.trace:
        per_cycle = [per_layer(c) for c in cycles]
        values = {k: statistics.median(c[k] for c in per_cycle) for k in per_cycle[0]}
        units = layer_units
    else:
        values = end_to_end(cycles)
        units = e2e_units
    if set(values) != set(units):
        fail(f"metrics computed {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    write_out(args, cycles, metrics, threads, cores)

    timed = [c[m] for c in cycles for m in ("plain", "traced") if m in c]
    print(f"{args.workload} seed {args.seed}: {len(cycles)} repetition(s), "
          f"{threads} thread(s) on {cores} core(s)")
    for k, v in metrics.items():
        print(f"  {k:<26} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": int(sum(r["items"] for r in timed)),
        "failed": 0,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
