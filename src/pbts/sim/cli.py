"""Command-line front end.

Subcommands: run a scenario, benchmark the crypto on this host, run the
adversarial games, print the policy comparison table, print the signing
overhead projection, and dump a chain log.  The chain log path comes from
``--chain`` or, failing that, the ``PBTS_CHAIN`` environment variable.  Bad
input (an unreadable or invalid file, an out-of-range number) exits 1 with the
reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .. import attestation as at
from .. import contract as ct
from . import costs as C
from .games import run_all_games
from .scenario import load_scenario
from .swarm import run_scenario


def _chain_path(args) -> str | None:
    return args.chain or os.environ.get("PBTS_CHAIN") or None


def _emit(doc, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    res = run_scenario(scn, chain_path=_chain_path(args))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(res.metrics_bytes)
            fh.write(b"\n")
    if args.json:
        sys.stdout.buffer.write(res.metrics_bytes)
        sys.stdout.write("\n")
    else:
        m = res.metrics
        print(f"scenario {scn.name}: {m['counts']['transfers']} transfers, "
              f"{m['counts']['receipts']} receipts, "
              f"{m['counts']['reports_ok']} reports accepted, "
              f"{m['counts']['reports_rejected']} rejected, "
              f"sim time {m['sim_ms'] / 1000:.2f}s")
        for name, pm in m["peers"].items():
            print(f"  {name}: up {pm['chain_up']} down {pm['chain_down']} rep {pm['rep']}")
        if m["tracker"]["migrations"]:
            print(f"  migrations: {m['tracker']['migrations']} "
                  f"(referrer {m['tracker']['referrer']})")
    return 0


def cmd_bench(args) -> int:
    cm = C.bench_crypto(reps=args.reps)
    one = cm.agg_one_signer_ms
    speed, one_speed = C.agg_speedups(cm), C.agg_speedups(cm, one)
    doc = {
        "sign_ms": cm.sign_ms,
        "verify_ms": cm.verify_ms,
        "session_sign_ms": cm.session_sign_ms,
        "session_verify_ms": cm.session_verify_ms,
        "agg_verify_ms": {str(k): v for k, v in sorted(cm.agg_verify_ms.items())},
        "agg_speedup": {str(k): v for k, v in sorted(speed.items())},
        "one_signer_agg_verify_ms": {str(k): v for k, v in sorted(one.items())},
        "one_signer_agg_speedup": {str(k): v for k, v in sorted(one_speed.items())},
    }
    if args.json:
        _emit(doc, as_json=True)
    else:
        print(f"sign            {cm.sign_ms:9.3f} ms")
        print(f"verify          {cm.verify_ms:9.3f} ms")
        print(f"session sign    {cm.session_sign_ms:9.3f} ms")
        print(f"session verify  {cm.session_verify_ms:9.3f} ms")
        for b, ms in sorted(cm.agg_verify_ms.items()):
            print(f"agg verify n={b:<4d}{ms:9.1f} ms  ({speed[b]:.2f}x vs {b} singles, "
                  f"{b} signers; one signer {one[b]:.1f} ms, {one_speed[b]:.2f}x)")
    return 0


def cmd_games(args) -> int:
    results = run_all_games(quick=args.quick, seed=args.seed)
    if args.json:
        _emit([{
            "name": r.name, "trials": r.trials, "violations": r.violations,
            "passed": r.passed, "elapsed_s": r.elapsed_s,
        } for r in results], as_json=True)
    else:
        for r in results:
            print(r.line())
            if not r.passed:
                print(f"  witness: {r.details.get('witness')}")
    return 0 if all(r.passed for r in results) else 1


def cmd_table1(args) -> int:
    rows = C.table1(n=args.pieces, bls_op_ms=args.sign_ms, session_op_ms=args.session_ms)
    if args.json:
        _emit(rows, as_json=True)
        return 0
    print(f"{'policy':<10} {'sigs':>6} {'time':>8} {'report':>10}")
    for r in rows:
        print(f"{r['policy']:<10} {r['signatures']:>6} {r['time_s']:>7.2f}s "
              f"{r['report_bytes']:>9d}B")
        if "note" in r:
            print(f"  note: {r['note']}")
    return 0


_POLICY_CHOICES = {p.name: p for p in (*C.TABLE1_POLICIES, at.NullPolicy())}


def cmd_overhead(args) -> int:
    cost = C.CostModel(sign_ms=args.sign_ms)
    policy = _POLICY_CHOICES[args.policy]
    doc = {}
    for piece_size in args.piece_size:
        frac = C.throughput_overhead(
            args.file_size, args.bandwidth, piece_size, policy, cost)
        doc[str(piece_size)] = frac
    if args.json:
        _emit(doc, as_json=True)
    else:
        base = args.file_size / args.bandwidth
        print(f"file {args.file_size} B at {args.bandwidth:.0f} B/s: {base:.0f}s baseline")
        for piece_size, frac in doc.items():
            print(f"  piece {piece_size:>9s} B: +{100 * frac:5.1f}% "
                  f"({base * (1 + frac):.0f}s with {args.policy} receipts)")
    return 0


def cmd_chain(args) -> int:
    path = args.path or _chain_path(args)
    if not path:
        print("no chain log: pass a path, --chain, or set PBTS_CHAIN", file=sys.stderr)
        return 2
    for e in ct.read_log(path):
        print(json.dumps(e, sort_keys=True, separators=(",", ":")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pbts", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("run", help="run a scenario file through the simulator")
    q.add_argument("scenario", help="scenario JSON path")
    q.add_argument("--chain", help="persist the chain log here")
    q.add_argument("--out", help="write canonical metrics JSON here")
    q.add_argument("--json", action="store_true", help="print canonical metrics JSON")
    q.set_defaults(fn=cmd_run)

    q = sub.add_parser("bench", help="measure signature latencies on this host")
    q.add_argument("--reps", type=int, default=200)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_bench)

    q = sub.add_parser("games", help="run the adversarial drills")
    q.add_argument("--quick", action="store_true", help="reduced budgets")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_games)

    q = sub.add_parser("table1", help="attestation-policy cost comparison")
    q.add_argument("--pieces", type=int, default=2560)
    q.add_argument("--sign-ms", type=float, default=2.0)
    q.add_argument("--session-ms", type=float, default=0.2)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_table1)

    q = sub.add_parser("overhead", help="download-time overhead of per-piece receipts")
    q.add_argument("--file-size", type=int, default=C.GIB)
    q.add_argument("--bandwidth", type=float, default=float(C.MIB))
    q.add_argument("--sign-ms", type=float, default=C.REF_SIGN_MS)
    q.add_argument("--piece-size", type=int, nargs="+",
                   default=[256 * 1024, 2 * C.MIB])
    q.add_argument("--policy", choices=sorted(_POLICY_CHOICES),
                   default="per-piece")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_overhead)

    q = sub.add_parser("chain", help="inspect a persisted chain log")
    q.add_argument("action", choices=["dump"])
    q.add_argument("path", nargs="?", help="chain log path")
    q.add_argument("--chain", help="chain log path (or set PBTS_CHAIN)")
    q.set_defaults(fn=cmd_chain)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        reason = f"cannot read or write: {e}"
    except (ValueError, ct.ChainError) as e:
        reason = str(e)
    print(f"pbts {args.cmd}: {reason}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
