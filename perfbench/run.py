"""pbts benchmark: one command runs one workload for a seed and checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, closed loop, one request in flight: every tracker
entry point is serial, and the host has few cores):

* ``tracker-ingest`` -- a launched tracker with a persisted chain log serves
  a join wave of registrations, then mostly announces by count and mostly
  reports by time (per-piece reports of 1..128 receipts, batch and session
  reports), epochs advancing so ``gc_recent`` runs, plus adversarial
  requests that must all be refused.  The client material comes from a
  separate generator process, so the serving process starts cold.
* ``outage`` -- a successor recovers a crashed tracker from its chain log
  (replay, one-hop migration, first announce), then a chain-gated DHT of a
  few hundred nodes serves get-peers and announces under message loss and
  dead nodes, and refuses every malformed store.
* ``swarm-sim`` -- one full ``run_scenario`` of a per-piece swarm with all
  three adversaries.

Each repetition runs in a fresh interpreter (``rep.py``) and serves the same
requests in the same order; repetitions follow each other until
``--seconds`` have passed (at least three).  A request's latency is the
fastest of its repetitions: on a shared virtual machine the CPU speed can
swing by 1.5x for seconds to minutes under other tenants' load, and the
fastest sample is the least disturbed one.  Percentiles are then taken over
requests, and throughput divides the work of one pass by the sum of its
request latencies.

The gated end-to-end timings are in reference-kernel units: each repetition
also times a fixed CPU kernel (``common.reference_kernel_ms``) before, after
and between its requests, and the run's timings are divided by the kernel's
median duration over the run.  So ``ref-ms`` are multiples of one kernel
run, about 1 ms on an idle host.  That cancels most of the host's speed drift
over minutes, which otherwise dominates the spread between runs; the
wall-clock values are printed beside them.  The kernel tracks the
big-integer work of signing and verification, not the pointer-chasing of a
DHT lookup, so get-peers latency is printed but not among the gated metrics;
it still weighs in the outage throughput.  The names are
shared by all workloads and mean:

  metric            tracker-ingest          outage               swarm-sim
  throughput_norm   receipts credited / s   DHT operations / s   transfers / s
  latency_p50_norm  report p50 (all kinds)  dht_announce p50     run_scenario
  latency_p95_norm  report p95 (all kinds)  dht_announce p95     run_scenario
  aux_norm          announce p95            recovery             per transfer
  setup_s           process start to the first timed request, wall clock
                    (median of >= 9 set-ups)
  peak_rss_mb       peak resident set size of a repetition (median)

With ``--trace 1`` the first repetition is traced (``tracer.py``) and its
per-layer metrics are reported; the remaining repetitions run untraced, and
both sets of end-to-end numbers are printed side by side.  The last line of
standard output is the result object; the lines before it name every metric
of the workload with its unit and sample count, the corpus generation time,
and the host.  Any failed output check exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import time
from statistics import median

import tracer
from common import BENCH_DIR, PKG, WORK, WORKLOADS, child_env, code_digest

MIN_REPS = 3
MIN_SETUPS = 9
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def spawn(script: str, argv, timeout=CHILD_TIMEOUT_S) -> str:
    cmd = [sys.executable, str(BENCH_DIR / script), *argv]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        try:
            why = json.loads(proc.stdout.strip().splitlines()[-1])["error"]
        except (IndexError, KeyError, ValueError):
            why = proc.stderr[-2000:]
        raise BenchError(f"{script} exited {proc.returncode}: {why}")
    return proc.stdout


def corpus_for(workload: str, seed: int):
    """Path of the seed's corpus for this code, generating it if absent, and
    the seconds its generation took."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"corpus-{workload}-{seed}-{code_digest()[:16]}.pkl"
    meta = path.with_suffix(".json")
    if path.exists() and meta.exists():
        return path, json.loads(meta.read_text())["gen_s"], True
    t0 = time.monotonic()
    spawn("corpus.py", ["--workload", workload, "--seed", str(seed), "--out", str(path)])
    gen_s = time.monotonic() - t0
    meta.write_text(json.dumps({"gen_s": gen_s}))
    return path, gen_s, False


def rep(workload: str, seed: int, corpus, trace_out=None, setup_only=False) -> dict:
    argv = ["--workload", workload, "--seed", str(seed)]
    if corpus is not None:
        argv += ["--corpus", str(corpus)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    out = spawn("rep.py", argv + ["--spawned", repr(spawned)])
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def fastest(reps):
    """Per-request latency: the fastest of its repetitions.  Every repetition
    serves the same requests in the same order, and the fastest sample is the
    one least disturbed by other tenants of the host."""
    return [min(col) for col in zip(*(r["lat"] for r in reps))]


def of_kind(lat, kinds, kind):
    return [x for x, k in zip(lat, kinds) if k == kind]


def named_metrics(workload: str, reps) -> dict:
    """The workload's metrics under the names the paper's claims use:
    name -> (value, unit, samples)."""
    if workload == "swarm-sim":
        wall = min(r["run_ms"] for r in reps)
        return {
            "sim_transfers_per_s": (reps[0]["transfers"] / wall * 1000.0, "1/s", len(reps)),
            "run_scenario_ms": (wall, "ms", len(reps)),
            "transfer_ms": (wall / reps[0]["transfers"], "ms", len(reps)),
        }
    lat, kinds = fastest(reps), reps[0]["kinds"]

    def timing(name, kind):
        xs = of_kind(lat, kinds, kind)
        return {f"{name}_p50_ms": (percentile(xs, 0.5), "ms", len(xs)),
                f"{name}_p95_ms": (percentile(xs, 0.95), "ms", len(xs))}

    serve_s = sum(lat) / 1000.0
    if workload == "tracker-ingest":
        out = {"receipts_credited_per_s":
               (reps[0]["receipts_credited"] / serve_s, "1/s", len(reps))}
        out.update(timing("report", "report"))
        out.update(timing("announce", "announce"))
        out.update(timing("register", "register"))
        return out
    out = {"dht_ops_per_s": (len(lat) / serve_s, "1/s", len(reps)),
           "recovery_ms": (min(r["recovery_ms"] for r in reps), "ms", len(reps))}
    out.update(timing("dht_get_peers", "get"))
    out.update(timing("dht_announce", "announce"))
    return out


def kernel_ms(reps) -> float:
    """The reference kernel's median duration over the run."""
    return median([k for r in reps for k in r["kernel_samples_ms"]])


# The end-to-end metric names are shared by every workload (see the table in
# the module docstring); each is one of the workload's named metrics.
E2E = {
    "tracker-ingest": ("receipts_credited_per_s", "report_p50_ms", "report_p95_ms",
                       "announce_p95_ms"),
    "outage": ("dht_ops_per_s", "dht_announce_p50_ms", "dht_announce_p95_ms",
               "recovery_ms"),
    "swarm-sim": ("sim_transfers_per_s", "run_scenario_ms", "run_scenario_ms",
                  "transfer_ms"),
}
SHARED = ("throughput_norm", "latency_p50_norm", "latency_p95_norm", "aux_norm")
E2E_UNITS = {"throughput_norm": "1/ref-s", "latency_p50_norm": "ref-ms",
             "latency_p95_norm": "ref-ms", "aux_norm": "ref-ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


def e2e(workload: str, reps) -> dict:
    """The shared metrics in reference-kernel units: times divided by the
    kernel's duration, rates multiplied by it."""
    named, k = named_metrics(workload, reps), kernel_ms(reps)
    return {key: named[src][0] * k if key == "throughput_norm" else named[src][0] / k
            for key, src in zip(SHARED, E2E[workload])}


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def run(args) -> tuple:
    if not (PKG / "__init__.py").is_file():
        raise BenchError(f"no pbts sources at {PKG}")
    workload, seed = args.workload, args.seed
    spawn("rep.py", ["--help"])  # imports (and byte-compiles) pbts before any timing
    corpus, gen_s, cached = (None, 0.0, False)
    if workload != "swarm-sim":
        corpus, gen_s, cached = corpus_for(workload, seed)

    reps, setups = [], []
    trace_path = None
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        traced = args.trace and not reps
        if traced:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = WORK / "traces" / f"{workload}-{seed}.spans.jsonl"
        r = rep(workload, seed, corpus, trace_out=trace_path if traced else None)
        r["traced"] = bool(traced)
        reps.append(r)
        setups.append(r["setup_s"])
    while len(setups) < MIN_SETUPS:
        setups.append(rep(workload, seed, corpus, setup_only=True)["setup_s"])

    if workload == "swarm-sim":
        digests = {r["metrics_sha256"] for r in reps}
        if len(digests) != 1:
            raise BenchError(f"swarm metrics differ across repetitions: {sorted(digests)}")
    if workload == "tracker-ingest" and any("cold_cache_guard" not in r for r in reps):
        raise BenchError("cold-cache guard did not run")

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    named = named_metrics(workload, untraced)
    metrics = e2e(workload, untraced)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = median([r["peak_rss_mb"] for r in untraced])

    detail = {
        "workload": workload, "why": WORKLOADS[workload], "seed": seed,
        "host": host_facts(),
        "corpus": {"gen_s": gen_s, "cached": cached} if corpus else None,
        "repetitions": {"untraced": len(untraced), "traced": len(traced),
                        "setups": len(setups), "measured_s": time.monotonic() - start},
        "named_metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in named.items()},
        "failed_ratio": sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps),
        "reference_kernel_ms": kernel_ms(untraced),
    }
    if workload == "tracker-ingest":
        detail["cold_cache_guard"] = {"passed": len(reps), "memos": sorted(reps[0]["cold_cache_guard"])}
    if traced:
        # one traced repetition against the median untraced repetition
        alone = [e2e(workload, [r]) for r in untraced]
        detail["tracing_overhead"] = {
            k: {"untraced": median([a[k] for a in alone]), "traced": v}
            for k, v in e2e(workload, traced).items()}
        detail["trace_spans"] = str(trace_path)
    result = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": (
            {k: {"value": v, "unit": tracer.PER_LAYER[k][0]}
             for k, v in traced[0]["per_layer"].items()}
            if args.trace else
            {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}),
    }
    return detail, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        detail, result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, m in detail["named_metrics"].items():
        print(f"{name:26s} {m['value']:14.4f} {m['unit']:4s} (n={m['samples']})")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
