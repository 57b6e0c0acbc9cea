#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and keep every run.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload outage \\
        --seeds 601 602 603 --seconds 25 --out BENCH_N.json [--trace]

Each seed is one pair: ``perfbench/run.py`` runs once in each checkout, one
run at a time, the parent first in odd pairs and the change first in even
ones.  Every run is appended to ``--out`` with its seed, side, which side
ran first, the reference kernel's milliseconds and the wall-clock named
metrics beside the normalised ones, so a gap between sessions can be traced
after the fact.  The summary is recomputed over all runs in the file: per
workload and end-to-end metric, each side's median and quartiles, and the
pairs the change won.  With ``--trace`` each seed instead gets one
``--trace 1`` run per side, whose per-layer metrics go under ``trace``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool):
    """The detail and result objects of one benchmark run (its last two lines)."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return detail, result


def summarize(runs, bounds) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        pairs = [p for p in pairs.values() if set(p) == set(SIDES)]
        if not pairs:
            continue
        rows = {}
        for name, (better, bound) in bounds.items():
            sides = {s: [p[s][name] for p in pairs] for s in SIDES}
            sign = 1 if better == "higher" else -1
            row = {"better": better, "bound": bound, "pairs": len(pairs),
                   "change_better_pairs": sum(sign * (p["change"][name] - p["parent"][name]) > 0
                                              for p in pairs)}
            for s, vals in sides.items():
                q1, _, q3 = quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
                row.update({f"{s}_median": median(vals), f"{s}_q1": q1, f"{s}_q3": q3})
            row["change_over_parent"] = row["change_median"] / row["parent_median"]
            rows[name] = row
        out[workload] = rows
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs, traces = doc.setdefault("runs", []), doc.setdefault("trace", {})
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    last = max((r["pair"] for r in runs if r["workload"] == args.workload), default=0)
    for pair, seed in enumerate(args.seeds, start=last + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            detail, result = run_bench(checkouts[side], args.workload, seed,
                                       args.seconds, args.trace)
            doc["host"] = detail["host"]
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            if args.trace:
                traces.setdefault(f"{args.workload} seed {seed}", {})[side] = metrics
            else:
                runs.append({
                    "workload": args.workload, "pair": pair, "seed": seed, "side": side,
                    "first": order[0], "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "reference_kernel_ms": detail["reference_kernel_ms"],
                    "metrics": metrics,
                    "named_metrics": {k: m["value"]
                                      for k, m in detail["named_metrics"].items()},
                })
                print(f"{args.workload} pair {pair} seed {seed} {side}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in sorted(metrics.items())), flush=True)
            # written after every run, so an interrupted session keeps its runs
            doc["summary"] = summarize(runs, bounds)
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
