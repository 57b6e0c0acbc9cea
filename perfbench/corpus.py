"""Client-side material for the tracker-ingest and outage workloads.

Run as its own process (never inside a serving repetition), so the process
that serves the corpus has signed nothing and starts with cold caches:

    python3 perfbench/corpus.py --workload tracker-ingest --seed 1 --out PATH

Everything is derived from the seed.  Signing fans out over at most
``nproc`` spawned workers; the chain log of the outage workload is written by
one process because a log is a single ordered stream.

The ingest corpus has a fixed shape on every seed (the same report-size grid,
announce schedule and adversarial set), so seeds differ in keys, messages,
peers, pieces and order but not in how much work a repetition does.
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import os
import pickle
import random
import sys
import time
from fractions import Fraction

from common import CONFIG, EPOCH_DELTA, EPOCH_WINDOW, FIRST_EPOCH, PROGRAM_ID

from pbts import attestation as at
from pbts import contract as ct
from pbts import dht
from pbts import enclave as encl
from pbts import sigcrypto as sc
from pbts import tracker as tr

EPOCH = at.EpochParams(window=EPOCH_WINDOW, delta=EPOCH_DELTA)
MIN_REP = Fraction(1, 4)

# -- tracker-ingest shape -----------------------------------------------------
USERS = 12
MEMBERS = 8     # users that announce, each in one torrent
TORRENTS = 4
PIECES = 160
PIECE_SIZE = 256 * 1024
INGEST_EPOCHS = 6
INGEST_CREDIT = 1 << 40
# Heavy-tailed per-piece report sizes (receipts per report), 1 .. 128.  Most
# reports carry one receipt, so the median report sits inside that cluster,
# and the 95th percentile inside the cluster of 16-receipt reports.
PER_PIECE_SIZES = (1,) * 26 + (2, 2, 2, 3, 3, 16, 16, 16, 128)
# batch reports: pieces covered by each batch receipt in the report
BATCH_SHAPES = ((4,), (8,), (8, 4))
# session reports: session receipts under each certificate in the report
SESSION_SHAPES = ((4,), (8, 4))
# A member announces "started" once, then re-announces "none" in every later
# epoch with the identical signed message, so repeats outnumber first sightings
COMPLETED = 3   # members that announce "completed" in epoch 4
STOPPED = 2     # members that announce "stopped" in epoch 5
GHOST_UID = b"ghost-user"

# -- outage shape --------------------------------------------------------------
NODES = 256
LOW_REP_NODES = 24
HISTORY_WRITES = 1700
OUTAGE_CREDIT = 1 << 20
DHT_TORRENTS = 6
ANNOUNCERS = 16


def _kp(rng: random.Random) -> sc.KeyPair:
    return sc.keygen(rng.getrandbits(256).to_bytes(32, "big"))


def world_for(seed: int) -> encl.EnclaveWorld:
    world = encl.world_new(seed=seed % (1 << 63))
    world.allowlist.add(encl.measure(PROGRAM_ID, CONFIG))
    return world


def _time_in(epoch: int, rng: random.Random) -> int:
    return epoch * EPOCH_WINDOW + rng.randrange(EPOCH_WINDOW)


# ---------------------------------------------------------------------------
# signing tasks (run in worker processes; arguments and results are pickled)


def _task(spec):
    kind = spec[0]
    if kind == "sign":
        _, sk, msg = spec
        return sc.sign(sk, msg)
    if kind == "report":
        _, uid, pk, meta, items = spec
        entries = [(at.attest(rkp, meta.infohash, pk, content, j, t, EPOCH), ruid)
                   for rkp, ruid, content, j, t in items]
        return tr.build_report(uid, pk, meta, entries, EPOCH)
    if kind == "forged":
        # receipts for real transfers, but signed by the reporter itself
        _, uid, kp, meta, items = spec
        entries = []
        for rkp, ruid, content, j, t in items:
            h, e = sc.hash_data(content), at.epoch_of(t, EPOCH)
            sig = sc.sign(kp.sk, at.receipt_msg(meta.infohash, kp.pk, h, j, e))
            entries.append((at.Receipt(meta.infohash, kp.pk, rkp.pk, h, j, e, sig), ruid))
        return tr.build_report(uid, kp.pk, meta, entries, EPOCH)
    if kind == "batch":
        _, uid, pk, meta, batches = spec
        entries = [(at.batch_attest(rkp, meta.infohash, pk, pieces, t, EPOCH), ruid)
                   for rkp, ruid, pieces, t in batches]
        return tr.build_batch_report(uid, pk, meta, entries)
    if kind == "session":
        _, uid, pk, meta, sessions = spec
        built = []
        for rkp, ruid, t, pieces in sessions:
            cert, skp = at.open_session(rkp, meta.infohash, pk, t, EPOCH)
            srs = [at.session_attest(skp.sk, cert, content, j, t, EPOCH)
                   for j, content in pieces]
            built.append((cert, ruid, srs))
        return tr.build_session_report(uid, pk, meta, built)
    raise ValueError(f"unknown task {kind!r}")


def _cost(spec) -> int:
    """Signatures a task makes, for longest-first scheduling."""
    kind = spec[0]
    if kind == "sign":
        return 1
    if kind in ("report", "forged"):
        return len(spec[4])
    return len(spec[4]) + 1


def _run_tasks(specs, workers: int):
    order = sorted(range(len(specs)), key=lambda i: -_cost(specs[i]))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=workers) as pool:
        done = pool.map(_task, [specs[i] for i in order], chunksize=1)
    out = [None] * len(specs)
    for i, res in zip(order, done):
        out[i] = res
    return out


# ---------------------------------------------------------------------------
# tracker-ingest


class _IngestPlan:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        rng = self.rng
        self.users = [(b"user-%03d" % i, _kp(rng)) for i in range(USERS)]
        self.contents = []
        self.metas = []
        for t in range(TORRENTS):
            contents = [sc.hash_data(b"ingest-piece/%d/%d/%d" % (seed, t, j))
                        for j in range(PIECES)]
            length = PIECE_SIZE * PIECES - rng.randrange(1, PIECE_SIZE)
            self.contents.append(contents)
            self.metas.append(at.make_torrent(
                f"ingest-{seed}-{t}", [sc.hash_data(c) for c in contents],
                PIECE_SIZE, length=length))
        self.pp = tr.setup(128, MIN_REP, INGEST_CREDIT, rng)
        self.ledger = {uid: [INGEST_CREDIT, 0] for uid, _ in self.users}
        self.used = set()
        self.specs = []

    def task(self, spec) -> int:
        self.specs.append(spec)
        return len(self.specs) - 1

    def others(self, s: int, n: int):
        return self.rng.sample([i for i in range(USERS) if i != s], n)

    def receipt_epoch(self, epoch: int) -> int:
        return epoch - self.rng.randrange(2) if epoch > FIRST_EPOCH else epoch

    def fresh_piece(self, t: int, s: int, r: int, e: int) -> int:
        while True:
            j = self.rng.randrange(PIECES)
            if (t, s, r, j, e) not in self.used:
                self.used.add((t, s, r, j, e))
                return j

    def credit(self, s: int, r: int, t: int, j: int) -> int:
        n = at.piece_len(self.metas[t], j)
        self.ledger[self.users[s][0]][0] += n
        self.ledger[self.users[r][0]][1] += n
        return n

    def per_piece(self, size: int, epoch: int, forge: bool = False, ledger: bool = True):
        rng = self.rng
        s, t = rng.randrange(USERS), rng.randrange(TORRENTS)
        nd = 1 if size <= 2 else 2 if size <= 8 else 4 if size <= 32 else 8
        dls = self.others(s, nd)
        items = []
        for k in range(size):
            r = dls[k % nd]
            e = self.receipt_epoch(epoch)
            j = self.fresh_piece(t, s, r, e)
            if ledger:
                self.credit(s, r, t, j)
            uid_r, kp_r = self.users[r]
            items.append((kp_r, uid_r, self.contents[t][j], j, _time_in(e, rng)))
        uid, kp = self.users[s]
        if forge:
            return self.task(("forged", uid, kp, self.metas[t], items))
        return self.task(("report", uid, kp.pk, self.metas[t], items))

    def batch(self, shape, epoch: int):
        rng = self.rng
        s, t = rng.randrange(USERS), rng.randrange(TORRENTS)
        batches = []
        for r, k in zip(self.others(s, len(shape)), shape):
            e = self.receipt_epoch(epoch)
            pieces = {}
            while len(pieces) < k:
                j = self.fresh_piece(t, s, r, e)
                pieces[j] = self.contents[t][j]
                self.credit(s, r, t, j)
            uid_r, kp_r = self.users[r]
            batches.append((kp_r, uid_r, pieces, _time_in(e, rng)))
        uid, kp = self.users[s]
        return self.task(("batch", uid, kp.pk, self.metas[t], batches))

    def session(self, shape, epoch: int):
        rng = self.rng
        s, t = rng.randrange(USERS), rng.randrange(TORRENTS)
        sessions = []
        for r, k in zip(self.others(s, len(shape)), shape):
            e = self.receipt_epoch(epoch)
            pieces = []
            for _ in range(k):
                j = self.fresh_piece(t, s, r, e)
                pieces.append((j, self.contents[t][j]))
                self.credit(s, r, t, j)
            uid_r, kp_r = self.users[r]
            sessions.append((kp_r, uid_r, _time_in(e, rng), pieces))
        uid, kp = self.users[s]
        return self.task(("session", uid, kp.pk, self.metas[t], sessions))


def _announce_op(plan: _IngestPlan, i: int, event: str, sig_task: int, honest=True):
    uid, kp = plan.users[i]
    tid = plan.metas[i % TORRENTS].infohash
    return ["announce", uid, kp.pk, sig_task, tid, event, "10.2.0.%d" % (i + 1), 6881 + i, honest]


def build_ingest(seed: int, workers: int) -> dict:
    plan = _IngestPlan(seed)
    rng = plan.rng
    ops = []  # placeholders hold task indices until the signatures exist

    for i in rng.sample(range(USERS), USERS):
        uid, kp = plan.users[i]
        ops.append(["register", uid, kp.pk,
                    plan.task(("sign", kp.sk, tr.register_msg(plan.pp.iid, uid)))])

    def sig_for(i, event):
        uid, kp = plan.users[i]
        msg = tr.announce_msg(uid, plan.metas[i % TORRENTS].infohash, event)
        return plan.task(("sign", kp.sk, msg))

    per_epoch = [[] for _ in range(INGEST_EPOCHS)]
    for i in range(MEMBERS):
        per_epoch[0].append(_announce_op(plan, i, "started", sig_for(i, "started")))
        none_sig = sig_for(i, "none")
        for e in range(1, INGEST_EPOCHS):
            per_epoch[e].append(_announce_op(plan, i, "none", none_sig))
    for i in rng.sample(range(MEMBERS), COMPLETED):
        per_epoch[4].append(_announce_op(plan, i, "completed", sig_for(i, "completed")))
    for i in rng.sample(range(MEMBERS), STOPPED):
        per_epoch[5].append(_announce_op(plan, i, "stopped", sig_for(i, "stopped")))

    shapes = ([("report", n) for n in PER_PIECE_SIZES]
              + [("report_batch", sh) for sh in BATCH_SHAPES]
              + [("report_session", sh) for sh in SESSION_SHAPES])
    rng.shuffle(shapes)
    for k, (kind, shape) in enumerate(shapes):
        e_rel = k % INGEST_EPOCHS
        epoch = FIRST_EPOCH + e_rel
        if kind == "report":
            task = plan.per_piece(shape, epoch)
        elif kind == "report_batch":
            task = plan.batch(shape, epoch)
        else:
            task = plan.session(shape, epoch)
        credited = shape if kind == "report" else sum(shape)
        per_epoch[e_rel].append(["report", kind, task, True, credited])

    # adversarial requests, all in the last epoch so an expired epoch exists
    late = FIRST_EPOCH + INGEST_EPOCHS - 1
    ghost = _kp(rng)
    inflated = plan.per_piece(3, late)
    replayed = plan.per_piece(2, late)
    expired = plan.per_piece(1, late - EPOCH_DELTA - 1, ledger=False)
    forged = plan.per_piece(2, late, forge=True, ledger=False)
    adversarial = [
        ["report", "report", ("inflate", inflated), False, 0],
        ["report", "report", inflated, True, 3],
        ["report", "report", replayed, True, 2],
        ["report", "report", replayed, False, 0],
        ["report", "report", expired, False, 0],
        ["report", "report", forged, False, 0],
        ["report", "report", ("ghost", replayed), False, 0],
        ["announce", GHOST_UID, ghost.pk,
         plan.task(("sign", ghost.sk, tr.announce_msg(GHOST_UID, plan.metas[0].infohash, "started"))),
         plan.metas[0].infohash, "started", "10.6.6.6", 6666, False],
    ]

    for e_rel, seg in enumerate(per_epoch):
        rng.shuffle(seg)
        if e_rel == INGEST_EPOCHS - 1:
            seg[len(seg) // 2:len(seg) // 2] = adversarial
        if e_rel:
            seg.insert(0, ["gc"])
        epoch = FIRST_EPOCH + e_rel
        step = EPOCH_WINDOW // (len(seg) + 1)
        for k, op in enumerate(seg):
            op.append(epoch * EPOCH_WINDOW + (k + 1) * step)  # now
        ops.extend(seg)

    results = _run_tasks(plan.specs, workers)

    def resolve(ref):
        if isinstance(ref, tuple):
            how, idx = ref
            payload = results[idx]
            if how == "inflate":
                return dataclasses.replace(payload, delta_up=payload.delta_up + PIECE_SIZE)
            return dataclasses.replace(payload, uid=GHOST_UID, pk=ghost.pk)
        return results[ref]

    final = []
    for op in ops:
        if op[0] == "register":
            final.append(("register", op[1], op[2], results[op[3]]))
        elif op[0] == "announce":
            _, uid, pk, sig, tid, event, ip, port, honest, now = op
            final.append(("announce", uid, pk, results[sig], tid, event, ip, port, honest, now))
        elif op[0] == "report":
            _, kind, ref, honest, credited, now = op
            final.append(("report", kind, resolve(ref), honest, credited, now))
        else:
            final.append(("gc", op[1]))
    return {
        "seed": seed,
        "pp": plan.pp,
        "metas": plan.metas,
        "ledger": {uid: tuple(v) for uid, v in plan.ledger.items()},
        "ops": final,
    }


# ---------------------------------------------------------------------------
# outage


def build_outage(seed: int, log_path: str) -> dict:
    """A crashed tracker's chain log with registered users (some below the
    admission gate) and a history of credit writes, plus the material the
    DHT phase needs.  Registration writes go straight through the tracker's
    contract writer: the log entry is the one ``register`` appends, without
    paying a pairing check per user while generating."""
    rng = random.Random(seed ^ 0x0DA6E)
    world = world_for(seed)
    if os.path.exists(log_path):
        os.remove(log_path)
    chain = ct.chain_new(world.allowlist, world.hw_root_pk, path=log_path)
    pp = tr.setup(128, MIN_REP, OUTAGE_CREDIT, rng)
    old = tr.Tracker.launch(world, chain, pp, PROGRAM_ID, CONFIG, epoch=EPOCH)
    if old is None:
        raise RuntimeError("tracker launch failed")

    nodes = [(b"node-%03d" % i, _kp(rng), "10.1.%d.%d" % (i // 256, i % 256), 6881)
             for i in range(NODES)]
    low = set(rng.sample(range(1, NODES), LOW_REP_NODES))
    records = {}

    def write(i, up, down):
        uid, kp = nodes[i][0], nodes[i][1]
        if not old._write(uid, kp.pk, up, down):
            raise RuntimeError("contract write failed")
        records[uid] = (kp.pk, up, down)

    for i in rng.sample(range(NODES), NODES):
        write(i, OUTAGE_CREDIT, 0)
    for _ in range(HISTORY_WRITES):
        i = rng.randrange(NODES)
        _, up, down = records[nodes[i][0]]
        if i in low:
            write(i, up + (64 << 10), down + (8 << 20))
        else:
            write(i, up + rng.randrange(1 << 20, 4 << 20), down + rng.randrange(2 << 20))
    for i in sorted(low):
        _, up, down = records[nodes[i][0]]
        write(i, up, max(down, 8 * up))
    digest = ct.state_digest(chain)
    chain.close()

    good = [i for i in range(NODES) if i not in low and i != 0]
    torrents = [sc.hash_data(b"outage-torrent/%d/%d" % (seed, k)) for k in range(DHT_TORRENTS)]
    announcers = rng.sample(good, ANNOUNCERS)
    first = announcers[0]
    first_uid, first_kp = nodes[first][0], nodes[first][1]
    a, b = rng.sample(good, 2)
    lo = rng.choice(sorted(low))
    ghost = _kp(rng)
    honest = dht.make_record(nodes[a][1], nodes[a][0], torrents[0], nodes[a][2], nodes[a][3])
    bad = [
        ("unknown_uid", dht.make_record(ghost, b"ghost-node", torrents[1], "10.6.6.6", 6666)),
        ("pk_mismatch", dht.make_record(nodes[b][1], nodes[a][0], torrents[2], nodes[b][2], 6881)),
        ("low_rep", dht.make_record(nodes[lo][1], nodes[lo][0], torrents[3], nodes[lo][2], 6881)),
        ("bad_sig", dataclasses.replace(honest, port=honest.port + 1)),
    ]
    return {
        "seed": seed,
        "pp": pp,
        "addr_old": old.addr,
        "digest": digest,
        "records": records,
        "nodes": nodes,
        "low": sorted(low),
        "torrents": torrents,
        "announcers": announcers,
        "first_announce": (first_uid, first_kp.pk,
                           sc.sign(first_kp.sk, tr.announce_msg(first_uid, torrents[0], "started")),
                           torrents[0], nodes[first][2], nodes[first][3]),
        "bad_records": bad,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("tracker-ingest", "outage"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="corpus file to write")
    args = ap.parse_args()
    t0 = time.perf_counter()
    if args.workload == "tracker-ingest":
        corpus = build_ingest(args.seed, workers=max(1, min(4, len(os.sched_getaffinity(0)))))
    else:
        corpus = build_outage(args.seed, args.out + ".log")
    corpus["gen_s"] = time.perf_counter() - t0
    tmp = args.out + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(corpus, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, args.out)


if __name__ == "__main__":
    sys.exit(main())
