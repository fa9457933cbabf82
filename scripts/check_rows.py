#!/usr/bin/env python3
"""Schema and floor checks for the JSON-lines smoke artifacts.

    python3 scripts/check_rows.py {soak,pnr,dse} ARTIFACT

Reads every line of ARTIFACT that starts with '{' as one JSON row, checks
that the rows carry the keys of the stage's artifact schema, then applies
the stage's own floors and assertions. Exits non-zero with a message on
the first violation; prints one OK line otherwise. scripts/verify.sh runs
it on the soak, pnr and dse smoke artifacts.
"""
import json
import sys


def rows_of(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip().startswith("{")]


def require_keys(stage, rows, keys, what="row"):
    for r in rows:
        missing = keys - r.keys()
        if missing:
            sys.exit(f"{stage} smoke: {what} missing keys {sorted(missing)}")


SOAK_KEYS = {
    "mode", "seed", "shards", "requests", "events", "horizon_ns",
    "chaos_crashes", "chaos_degradations", "chaos_compile_outages",
    "completed", "rejected", "shed", "abandoned", "retries",
    "preemptions", "killed_batches", "wasted_ns", "availability",
    "shed_rate", "retry_amplification", "p50_latency_ns",
    "p99_latency_ns", "p99_ttft_ns", "slo_attainment",
    "throughput_tokens_per_s", "audit_ok",
}


def check_soak(rows):
    if len(rows) != 1:
        sys.exit(f"soak smoke: expected 1 artifact row, got {len(rows)}")
    require_keys("soak", rows, SOAK_KEYS)
    r = rows[0]
    if not r["audit_ok"]:
        sys.exit("soak smoke: scheduler audit violated under chaos")
    if r["availability"] < 0.6:
        sys.exit(f"soak smoke: availability {r['availability']:.3f} below the 0.6 floor")
    return (f"soak smoke: OK ({r['events']} events, availability {r['availability']:.3f}, "
            f"{r['preemptions']} preemptions, {r['shed']} shed, thread-count invariant)")


PNR_CASE_KEYS = {
    "kind", "loop", "uf", "rows", "cols", "tiles", "mode", "ok", "ii",
    "area", "chan_util", "folded_hops", "congestion_free",
}


def check_pnr(rows):
    cases = [r for r in rows if r.get("kind") == "case"]
    idents = [r for r in rows if r.get("kind") == "identity"]
    summaries = [r for r in rows if r.get("kind") == "summary"]
    if not cases:
        sys.exit("pnr smoke: no case rows")
    require_keys("pnr", cases, PNR_CASE_KEYS, what="case row")
    if not idents:
        sys.exit("pnr smoke: no paper-scale identity rows")
    for r in idents:
        if not r["bit_identical"]:
            sys.exit(f"pnr smoke: Auto != Greedy at {r['rows']}x{r['cols']} "
                     "(paper-scale regression)")
    if len(summaries) != 1:
        sys.exit(f"pnr smoke: expected 1 summary row, got {len(summaries)}")
    s = summaries[0]
    if s["payoff_kind"] == "none":
        sys.exit("pnr smoke: annealed engine shows no payoff at the largest fabric")
    return (f"pnr smoke: OK ({len(cases)} cases, identity at paper scale, "
            f"payoff {s['payoff_kind']} on {s['payoff_kernel']}, thread-count invariant)")


DSE_KEYS = {
    "model", "cgra_rows", "cgra_cols", "fabric", "buffer_kb", "format",
    "lean_unroll", "incremental_repair", "latency", "energy_nj",
    "area_mm2", "resilience", "utilization",
}


def check_dse(rows):
    require_keys("dse", rows, DSE_KEYS)
    if not rows:
        sys.exit("dse smoke: pareto.json has no frontier rows")
    return f"dse smoke: OK ({len(rows)} frontier rows, thread-count invariant)"


CHECKS = {"soak": check_soak, "pnr": check_pnr, "dse": check_dse}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        sys.exit(f"usage: {argv[0]} {{{','.join(CHECKS)}}} ARTIFACT")
    print(CHECKS[argv[1]](rows_of(argv[2])))


if __name__ == "__main__":
    main(sys.argv)
