"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --spawned T
                             [--corpus PATH] [--trace-out PATH] [--setup-only]

``--spawned`` is the ``time.monotonic()`` reading the parent took just before
starting this process; set-up time runs from there to the first timed
request.  The last line of standard output is one JSON object with the
repetition's timings, counts and check results.  A failed output check makes
the process exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import resource
import shutil
import sys
import time

from common import CONFIG, FIRST_EPOCH, PROGRAM_ID, WORK, reference_kernel_ms
from corpus import EPOCH, world_for

from pbts import attestation as at
from pbts import bls12381 as bls
from pbts import contract as ct
from pbts import dht
from pbts import enclave as encl
from pbts import sigcrypto as sc
from pbts import tracker as tr
from pbts.sim import swarm
from pbts.sim.scenario import Scenario

import tracer as tracing

# outage DHT phase
DHT_EPOCHS = 4
GETS_PER_EPOCH = 160
DROP_RATE = 0.02
DEAD_NODES = 12
BAD_STORE_TARGETS = 4

# reference-kernel samples taken before and after serving, and between
# requests (never inside a timed one) every KERNEL_EVERY requests
KERNEL_EDGE = 10
KERNEL_EVERY = 8

# swarm-sim scenario: per-piece receipts, all three adversaries
SWARM = dict(peers=8, seeders=6, file_size=32 * 16 * 1024 - 5000, piece_size=16 * 1024,
             policy=at.PerPiecePolicy(), adversaries=("inflate", "replay", "forge"))


class CheckFailed(Exception):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class HostSpeed:
    """Durations of the reference kernel over one repetition, from which the
    orchestrator gauges the host's speed during the run."""

    def __init__(self):
        self.samples = []

    def sample(self, n: int = 1) -> None:
        self.samples += [reference_kernel_ms() for _ in range(n)]


def cold_cache_guard() -> dict:
    """Before the first request, no memoised verification path may have been
    hit: the serving process has not seen a single corpus message.  Memos
    that no longer exist or no longer expose ``cache_info()`` are skipped."""
    seen = {}
    for name, owner, attr in (
        ("bls12381.hash_to_g2", bls, "hash_to_g2"),
        ("sigcrypto.verify", sc, "verify"),
        ("sigcrypto.verify_memo", sc, "_verify_uncached"),
        ("enclave.verify_quote", encl, "verify_quote"),
        ("enclave.quote_memo", encl, "_verify_quote_cached"),
    ):
        info = getattr(getattr(owner, attr, None), "cache_info", None)
        if info is None:
            continue
        hits = info().hits
        check(hits == 0, f"cold-cache guard: {name} has {hits} hits before serving")
        seen[name] = hits
    return seen


# ---------------------------------------------------------------------------
# tracker-ingest


def ingest(args, out: dict, trace) -> None:
    with open(args.corpus, "rb") as fh:
        corpus = pickle.load(fh)
    world = world_for(corpus["seed"])
    log_path = WORK / "run" / f"ingest-{os.getpid()}.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    chain = ct.chain_new(world.allowlist, world.hw_root_pk, path=str(log_path))
    try:
        tracker = tr.Tracker.launch(world, chain, corpus["pp"], PROGRAM_ID, CONFIG, epoch=EPOCH)
        check(tracker is not None, "tracker launch failed")
        for meta in corpus["metas"]:
            tracker.add_torrent(meta)
        out["cold_cache_guard"] = cold_cache_guard()
        if args.setup_only:
            out["setup_s"] = time.monotonic() - args.spawned
            return
        log_start = log_path.stat().st_size
        if trace:
            trace.install()
        serve_ingest(tracker, corpus["ops"], out, args.spawned)
        if trace:
            trace.uninstall()
            trace.counters["contract.log_bytes"] = log_path.stat().st_size - log_start
        for uid, want in corpus["ledger"].items():
            rec = ct.sc_read(chain, tracker.addr, uid)
            check(rec is not None and (rec.up, rec.down) == want,
                  f"ledger mismatch for {uid!r}: chain {rec} expected {want}")
    finally:
        chain.close()
        log_path.unlink(missing_ok=True)


def serve_ingest(tracker, ops, out: dict, spawned: float) -> None:
    """Serve the corpus in order, one request at a time, timing each."""
    lat, kinds = [], []
    attempted = failed = credited = 0
    clock = time.perf_counter
    out["setup_s"] = time.monotonic() - spawned
    speed = HostSpeed()
    speed.sample(KERNEL_EDGE)
    for k, op in enumerate(ops):
        if k % KERNEL_EVERY == 0:
            speed.sample()
        kind = op[0]
        honest = True
        t0 = clock()
        if kind == "register":
            ok = tracker.register(op[1], op[2], op[3])
        elif kind == "announce":
            _, uid, pk, sig, tid, event, ip, port, honest, _now = op
            tracker.announce(uid, pk, sig, tid, event, ip, port)
        elif kind == "report":
            _, method, payload, honest, n, now = op
            ok = getattr(tracker, method)(payload, now)
        else:
            tracker.gc_recent(op[1])
            ok = True
        lat.append((clock() - t0) * 1000.0)
        if kind == "announce":
            ok = tracing.announce_accepted(tracker, op[1:8])
        if not honest:
            kinds.append("adversarial")
            check(not ok, f"adversarial {kind} accepted")
            continue
        kinds.append(kind)
        if kind == "gc":
            continue
        attempted += 1
        if not ok:
            failed += 1
        elif kind == "report":
            credited += n
    speed.sample(KERNEL_EDGE)
    out.update(attempted=attempted, failed=failed, receipts_credited=credited,
               lat=lat, kinds=kinds, kernel_samples_ms=speed.samples)


# ---------------------------------------------------------------------------
# outage


def outage(args, out: dict, trace) -> None:
    with open(args.corpus, "rb") as fh:
        corpus = pickle.load(fh)
    world = world_for(corpus["seed"])
    pp = corpus["pp"]
    log_path = WORK / "run" / f"outage-{os.getpid()}.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(args.corpus + ".log", log_path)
    chain = None
    try:
        if args.setup_only:
            out["setup_s"] = time.monotonic() - args.spawned
            return
        log_start = log_path.stat().st_size
        if trace:
            trace.install()
        clock = time.perf_counter
        out["setup_s"] = time.monotonic() - args.spawned
        speed = HostSpeed()
        speed.sample(KERNEL_EDGE)
        t0 = clock()
        chain = ct.chain_new(world.allowlist, world.hw_root_pk, path=str(log_path))
        replay_s = clock() - t0
        check(ct.state_digest(chain) == corpus["digest"], "replayed state digest differs")
        t0 = clock()
        succ = tr.migrate(world, chain, corpus["addr_old"], pp, PROGRAM_ID, CONFIG, epoch=EPOCH)
        migrate_s = clock() - t0
        check(succ is not None, "migration failed")
        uid, pk, sig, tid, ip, port = corpus["first_announce"]
        t0 = clock()
        succ.announce(uid, pk, sig, tid, "started", ip, port)
        announce_s = clock() - t0
        check(tracing.announce_accepted(succ, (uid, pk, sig, tid, "started", ip, port)),
              "first announce on the successor rejected")
        out["recovery_ms"] = (replay_s + migrate_s + announce_s) * 1000.0
        for uid, (pk, up, down) in corpus["records"].items():
            rec = ct.sc_read(chain, succ.addr, uid)
            check(rec == ct.ReputationRecord(uid, pk, up, down),
                  f"successor read of {uid!r} differs from the pre-crash record")
        serve_dht(corpus, chain, succ, pp, out, speed)
        speed.sample(KERNEL_EDGE)
        out["kernel_samples_ms"] = speed.samples
        if trace:
            trace.uninstall()
            trace.counters["contract.log_bytes"] = log_path.stat().st_size - log_start
    finally:
        if chain is not None:
            chain.close()
        log_path.unlink(missing_ok=True)


def serve_dht(corpus, chain, succ, pp, out: dict, speed: HostSpeed) -> None:
    rng = random.Random(corpus["seed"] ^ 0xD47)
    params = dht.DhtParams()
    net = dht.DhtNet(params=params, rng=random.Random(corpus["seed"] ^ 0xB05))
    nodes = [dht.DhtNode(kp=kp, uid=uid, ip=ip, port=port, chain=chain,
                         addr_rep=succ.addr, min_rep=pp.min_rep, params=params)
             for uid, kp, ip, port in corpus["nodes"]]
    first = nodes[0]
    net.add_node(first)
    for node in nodes[1:]:
        dht.bootstrap(net, node, [(first.ip, first.port)])

    announcers = corpus["announcers"]
    torrents = corpus["torrents"]
    topic = {a: torrents[k % len(torrents)] for k, a in enumerate(announcers)}
    low = set(corpus["low"])
    keep = {0, *announcers}
    net.dead = {nodes[i].nid for i in rng.sample([i for i in range(len(nodes)) if i not in keep],
                                                 DEAD_NODES)}
    live = [i for i in range(len(nodes)) if nodes[i].nid not in net.dead]
    net.drop_rate = DROP_RATE

    stored = {}  # infohash -> {pk: epoch of the last accepted announce}
    honest_pks = {ih: {nodes[a].kp.pk for a in announcers if topic[a] == ih} for ih in torrents}
    lat, kinds = [], []
    attempted = failed = 0
    clock = time.perf_counter
    for e in range(DHT_EPOCHS):
        net.now_epoch = FIRST_EPOCH + e
        ops = [("announce", a) for a in announcers]
        ops += [("get", rng.choice(live)) for _ in range(GETS_PER_EPOCH)]
        rng.shuffle(ops)
        for kind, i in ops:
            if attempted % KERNEL_EVERY == 0:
                speed.sample()
            attempted += 1
            kinds.append(kind)
            if kind == "announce":
                ih = topic[i]
                t0 = clock()
                accepted = dht.dht_announce(net, nodes[i], ih)
                lat.append((clock() - t0) * 1000.0)
                if accepted:
                    stored.setdefault(ih, {})[nodes[i].kp.pk] = net.now_epoch
                else:
                    failed += 1
            else:
                ih = rng.choice(torrents)
                t0 = clock()
                got = dht.dht_get_peers(net, nodes[i], ih)
                lat.append((clock() - t0) * 1000.0)
                check(all(r.pk in honest_pks[ih] and r.infohash == ih for r in got),
                      "get_peers returned a record nobody honest announced")
                alive = any(net.now_epoch < s + params.ttl_epochs
                            for s in stored.get(ih, {}).values())
                if alive and not got:
                    failed += 1

    # every malformed store is refused, for the reason its defect implies
    before = dict(net.store_rejects)
    delivered = {}
    src = nodes[live[0]]
    for reason, record in corpus["bad_records"]:
        for i in rng.sample(live[1:], BAD_STORE_TARGETS):
            ok = net.rpc_store(src, nodes[i].nid, record)
            check(ok is not True, f"bad store ({reason}) accepted")
            if ok is not None:
                delivered[reason] = delivered.get(reason, 0) + 1
    lo = nodes[min(low)]
    check(dht.dht_announce(net, lo, torrents[0]) == 0, "low-reputation announce stored")
    for reason, n in delivered.items():
        got = net.store_rejects.get(reason, 0) - before.get(reason, 0)
        check(got >= n, f"{n} {reason} stores delivered but {got} rejected as {reason}")

    out.update(attempted=attempted, failed=failed, lat=lat, kinds=kinds)


# ---------------------------------------------------------------------------
# swarm-sim


def swarm_sim(args, out: dict, trace) -> None:
    scn = Scenario(name=f"bench-swarm-{args.seed}", seed=args.seed, **SWARM)
    if args.setup_only:
        out["setup_s"] = time.monotonic() - args.spawned
        return
    if trace:
        trace.install()
    out["setup_s"] = time.monotonic() - args.spawned
    speed = HostSpeed()
    speed.sample(KERNEL_EDGE)
    t0 = time.perf_counter()
    res = swarm.run_scenario(scn)
    wall = time.perf_counter() - t0
    speed.sample(KERNEL_EDGE)
    if trace:
        trace.uninstall()
    m = res.metrics
    for name, peer in m["peers"].items():
        check(peer["chain_up"] - scn.init_credit == peer["receipted_up"],
              f"{name}: chain up {peer['chain_up']} != receipted {peer['receipted_up']}")
        check(peer["chain_down"] == peer["receipted_down"],
              f"{name}: chain down {peer['chain_down']} != receipted {peer['receipted_down']}")
    for name, adv in m["adversary"].items():
        check(adv["accepted"] == 0, f"adversary {name} accepted")
    transfers = m["counts"]["transfers"]
    check(transfers == (scn.peers - scn.seeders) * scn.num_pieces, "transfers missing")
    out.update(attempted=transfers, failed=0, transfers=transfers, run_ms=wall * 1000.0,
               metrics_sha256=sc.hash_data(res.metrics_bytes).hex(),
               kernel_samples_ms=speed.samples)


WORKLOAD_FNS = {"tracker-ingest": ingest, "outage": outage, "swarm-sim": swarm_sim}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_FNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--corpus")
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    trace = tracing.Tracer() if args.trace_out else None
    out = {"workload": args.workload, "ok": True}
    try:
        WORKLOAD_FNS[args.workload](args, out, trace)
    except CheckFailed as exc:
        out.update(ok=False, error=str(exc))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace and out["ok"]:
        out["per_layer"] = trace.metrics()
        trace.write_spans(args.trace_out)
    print(json.dumps(out, sort_keys=True))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
