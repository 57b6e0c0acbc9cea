#!/usr/bin/env python3
"""Run one small swarm per policy and show where the credit lands.

With --outage the run also kills the tracker across the first report flush
and migrates on recovery, demonstrating that reputations survive intact.
"""

import argparse

from pbts import attestation as at
from pbts.sim.scenario import Scenario
from pbts.sim.swarm import run_scenario

POLICIES = (
    at.PerPiecePolicy(),
    at.AdaptivePolicy(head=3, stride=2, tail=3),
    at.BatchPolicy(k=4),
    at.SessionPolicy(),
)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--peers", type=int, default=6)
    ap.add_argument("--pieces", type=int, default=16)
    ap.add_argument("--outage", action="store_true",
                    help="kill the tracker over the first flush and migrate")
    args = ap.parse_args(argv)

    down = ((800_000, 1_000_000),) if args.outage else ()
    for policy in POLICIES:
        scn = Scenario(
            name=f"demo-{policy.name}", seed=args.seed, peers=args.peers, seeders=2,
            file_size=args.pieces * 1024 - 77, piece_size=1024, policy=policy,
            tracker_down=down, migrate_on_recovery=args.outage,
        )
        res = run_scenario(scn)
        m = res.metrics
        print(f"\n== {policy.name} ==  {m['counts']['transfers']} transfers, "
              f"{m['counts']['receipts']} receipts, "
              f"{m['counts']['report_bytes']}B reported")
        for peer, pm in m["peers"].items():
            print(f"  {peer}: true up/down {pm['true_up']}/{pm['true_down']}  "
                  f"chain {pm['chain_up']}/{pm['chain_down']}  rep {pm['rep']}")
        if m["tracker"]["migrations"]:
            print(f"  migrated {m['tracker']['migrations']}x; "
                  f"successor refers back to {m['tracker']['referrer'][:16]}...")


if __name__ == "__main__":
    main()
