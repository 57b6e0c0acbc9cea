"""Discrete-event swarm simulation over the real protocol stack.

One run wires actual enclaves, a real contract chain, a live tracker, and a
Kademlia overlay together, then plays a download schedule through them.  The
clock is virtual milliseconds: cryptographic operations are performed for
real (receipts in reports must verify) but their latency is charged from the
cost model, so a run is reproducible on any host.  A sender checks its pending
receipts of either kind once per report, with the tracker's signature check
(``tracker.signatures_hold``), while the model still charges a verify per
receipt and per session cert, as the paper accounts for it.

Transfer model: every leecher downloads its pieces sequentially, choosing a
sender uniformly among peers that already hold the piece; senders have
unlimited upload capacity.  Piece contents are 32-byte stand-ins — the meta's
piece_size/length govern timing and credit, the stand-ins feed the hashes
that receipts bind to.

Per-piece and adaptive receipts are batches of one: a receiver buffers each
covered piece per sender and signs once it holds the policy's ``k`` pieces or
its download ends.  A transfer's receipt work (the buffers its piece
flushes, or the cert it needs) is decided once, as the transfer starts; the
transfer is charged for exactly that work and its arrival does it.  Report
sizes follow the aggregated wire layout, unchanged by the records reports
carry so recorded digests hold: 32 bytes per covered piece hash plus one
96-byte aggregate signature, except session reports which carry one 64-byte
signature per piece plus a 96-byte certificate signature per session.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import random
from dataclasses import dataclass, field

from .. import attestation as at
from .. import contract as ct
from .. import dht
from .. import enclave as encl
from .. import sigcrypto as sc
from .. import tracker as tr
from . import costs as C
from .scenario import Scenario, scenario_to_json

PROGRAM_ID = b"pbts-tracker"
CONFIG = b"v1"
REPORT_DIVISOR = 4  # flush cadence: epoch window / 4


@dataclass
class PeerState:
    uid: bytes
    kp: sc.KeyPair
    ip: str
    port: int
    rng: random.Random
    have: set = field(default_factory=set)
    todo: list = field(default_factory=list)
    view: set = field(default_factory=set)          # pks learned from announces
    done: bool = False
    # sender side: receipts collected while uploading, awaiting a report
    pending_receipts: list = field(default_factory=list)   # (long-term receipt, uid)
    pending_sessions: dict = field(default_factory=dict)   # key -> [cert, uid, [sr]]
    # receiver side
    batch_buf: dict = field(default_factory=dict)          # sender_pk -> {idx: content}
    session_keys: dict = field(default_factory=dict)       # (sender_pk, epoch) -> (cert, kp)

    @property
    def name(self) -> str:
        return self.uid.decode()


@dataclass
class SimResult:
    scenario: Scenario
    metrics: dict
    metrics_bytes: bytes
    ground_truth: list
    tracker: tr.Tracker
    chain: ct.Chain


class SwarmSim:
    def __init__(self, sc_: Scenario, cost: C.CostModel | None = None,
                 chain_path: str | None = None):
        self.sc = sc_
        self.cost = cost or C.CostModel()
        self.ep = sc_.epoch_params
        master = random.Random(sc_.seed)

        seed_b = sc_.seed.to_bytes(8, "big", signed=True) if sc_.seed < 0 else sc_.seed.to_bytes(8, "big")
        self.contents = [
            sc.hash_data(b"piece" + seed_b + sc.enc_uint(i)) for i in range(sc_.num_pieces)
        ]
        self.meta = at.make_torrent(
            sc_.name, [sc.hash_data(c) for c in self.contents],
            sc_.piece_size, length=sc_.file_size,
        )

        self.world = encl.world_new(seed=master.getrandbits(64))
        self.world.allowlist.add(encl.measure(PROGRAM_ID, CONFIG))
        self.chain = ct.chain_new(self.world.allowlist, self.world.hw_root_pk, path=chain_path)
        self.pp = tr.setup(128, sc_.min_rep, sc_.init_credit, master)
        self.tracker = tr.Tracker.launch(
            self.world, self.chain, self.pp, PROGRAM_ID, CONFIG, epoch=self.ep)
        if self.tracker is None:
            raise RuntimeError("tracker launch failed")
        self.tracker.add_torrent(self.meta)

        self.peers: list[PeerState] = []
        for i in range(sc_.peers):
            kp = sc.keygen(master.getrandbits(256).to_bytes(32, "big"))
            p = PeerState(uid=b"peer-%02d" % i, kp=kp, ip=f"10.0.0.{i + 1}", port=7000 + i,
                          rng=random.Random(master.getrandbits(64)))
            if i < sc_.seeders:
                p.have = set(range(sc_.num_pieces))
                p.done = True
            else:
                p.todo = p.rng.sample(range(sc_.num_pieces), sc_.num_pieces)
            self.peers.append(p)
        self.by_pk = {p.kp.pk: p for p in self.peers}

        for p in self.peers:
            ok = self.tracker.register(
                p.uid, p.kp.pk, sc.sign(p.kp.sk, tr.register_msg(self.pp.iid, p.uid)))
            if not ok:
                raise RuntimeError(f"registration failed for {p.name}")

        self.net = dht.DhtNet(rng=random.Random(master.getrandbits(64)))
        self.nodes: dict[bytes, dht.DhtNode] = {}
        for p in self.peers:
            self.nodes[p.uid] = dht.DhtNode(
                kp=p.kp, uid=p.uid, ip=p.ip, port=p.port, chain=self.chain,
                addr_rep=self.tracker.addr, min_rep=self.pp.min_rep,
            )
        first = self.nodes[self.peers[0].uid]
        self.net.add_node(first)
        for p in self.peers[1:]:
            dht.bootstrap(self.net, self.nodes[p.uid], [(first.ip, first.port)])
        self.dht_announces = 0
        self.dht_fallback_announces = 0
        self.dht_fallback_gets = 0
        for p in self.peers[: sc_.seeders]:
            self.dht_announces += dht.dht_announce(self.net, self.nodes[p.uid], self.meta.infohash)

        # t=0 announce round; each view is then set to every other peer, so
        # late announcers are visible to early ones too
        self.t = 0.0
        for p in self.peers:
            self._announce(p, "started")
            p.view = {q.kp.pk for q in self.peers if q is not p}

        self.ground_truth: list[dict] = []
        self.ops = {"sign": 0, "verify": 0, "session_sign": 0,
                    "session_verify": 0, "agg_verify": 0}
        self.counts = {"transfers": 0, "receipts": 0, "reports_ok": 0,
                       "reports_rejected": 0, "report_bytes": 0, "gc_removed": 0}
        self.adversary = {name: {"attempts": 0, "accepted": 0} for name in sc_.adversaries}
        self.adv_done = not sc_.adversaries
        self.migrations = 0
        self.heap: list = []
        self.flush_every = sc_.epoch_window * 1000 // REPORT_DIVISOR
        self.seq = 0

    # -- event plumbing -----------------------------------------------------

    def _push(self, t: float, kind: str, data=None):
        # (t, seq) is unique, so the heap never compares the event data
        heapq.heappush(self.heap, (t, self.seq, kind, data))
        self.seq += 1

    def tracker_up(self, t_ms: float) -> bool:
        return not any(a <= t_ms < b for a, b in self.sc.tracker_down)

    def _t_s(self, t_ms: float) -> int:
        return int(t_ms // 1000)

    # -- transfer mechanics -------------------------------------------------

    def _holders(self, leecher: PeerState, index: int):
        return [p for p in self.peers
                if p is not leecher and index in p.have and p.kp.pk in leecher.view]

    def _receipt_work(self, leecher: PeerState, sender: PeerState, index: int,
                      dur: float) -> tuple[float, list]:
        """This piece's receipt work, decided as its transfer (*dur* ms from now)
        starts: the latency charged to it, and the senders its arrival flushes."""
        pol = self.sc.policy
        c = self.cost
        if pol.session:
            # the key of the epoch the piece lands in; a cert's cost can only push
            # it into a later epoch, which has no key yet either
            charge = c.session_sign_ms + c.session_verify_ms
            epoch = at.epoch_of(self._t_s(self.t + (dur + charge)), self.ep)
            if (sender.kp.pk, epoch) not in leecher.session_keys:
                charge += c.sign_ms + c.verify_ms  # certificate mint + check
            return charge, []
        # buffer sizes once the piece lands; the last piece flushes every one
        sizes = {pk: len(b) for pk, b in leecher.batch_buf.items()}
        if pol.covers(index, self.meta.num_pieces):
            sizes[sender.kp.pk] = sizes.get(sender.kp.pk, 0) + 1
        last = len(leecher.todo) == 1
        flushes = [pk for pk, n in sizes.items() if last or n >= pol.k]
        return len(flushes) * (c.sign_ms + c.verify_ms), flushes

    def _schedule_next(self, leecher: PeerState):
        index = leecher.todo[0]
        holders = self._holders(leecher, index)
        sender = leecher.rng.choice(holders)
        dur = at.piece_len(self.meta, index) / self.sc.bandwidth * 1000.0
        charge, flushes = self._receipt_work(leecher, sender, index, dur)
        self._push(self.t + (dur + charge), "finish", (leecher, sender, index, flushes))

    def _flush_batch_buf(self, leecher: PeerState, sender_pk: bytes, t_s: int):
        buf = leecher.batch_buf.pop(sender_pk)
        br = at.batch_attest(leecher.kp, self.meta.infohash, sender_pk, buf, t_s, self.ep)
        self.ops["sign"] += 1
        self.ops["verify"] += 1  # charged here, checked in aggregate at report time
        self.by_pk[sender_pk].pending_receipts.append((br, leecher.uid))
        self.counts["receipts"] += 1

    def _on_finish(self, leecher: PeerState, sender: PeerState, index: int, flushes: list):
        t_s = self._t_s(self.t)
        leecher.todo.pop(0)
        leecher.have.add(index)
        self.counts["transfers"] += 1
        pol = self.sc.policy
        covered = pol.covers(index, self.meta.num_pieces)
        self.ground_truth.append({
            "t_ms": self.t, "sender": sender.name, "receiver": leecher.name,
            "index": index, "bytes": at.piece_len(self.meta, index),
            "receipted": covered,
        })

        content = self.contents[index]
        if pol.session:
            epoch = at.epoch_of(t_s, self.ep)
            key = (sender.kp.pk, epoch)
            if key not in leecher.session_keys:
                cert, skp = at.open_session(
                    leecher.kp, self.meta.infohash, sender.kp.pk, t_s, self.ep)
                self.ops["sign"] += 1
                self.ops["verify"] += 1  # charged here, checked at report time
                leecher.session_keys[key] = (cert, skp)
            cert, skp = leecher.session_keys[key]
            sr = at.session_attest(skp.sk, cert, content, index, t_s, self.ep)
            self.ops["session_sign"] += 1
            self.ops["session_verify"] += 1
            # a report flush clears the sender's entries but not the leecher's key
            pending = sender.pending_sessions.setdefault(
                (leecher.kp.pk, epoch), [cert, leecher.uid, []])
            pending[2].append(sr)
            self.counts["receipts"] += 1
        elif covered:
            leecher.batch_buf.setdefault(sender.kp.pk, {})[index] = content
        for spk in flushes:
            self._flush_batch_buf(leecher, spk, t_s)

        if leecher.todo:
            self._schedule_next(leecher)
        else:
            leecher.done = True
            self._announce(leecher, "completed")

    def _announce(self, p: PeerState, event: str):
        t_s = self._t_s(self.t)
        if self.tracker_up(self.t):
            self.tracker.announce(
                p.uid, p.kp.pk,
                sc.sign(p.kp.sk, tr.announce_msg(p.uid, self.meta.infohash, event)),
                self.meta.infohash, event, p.ip, p.port,
            )
        else:
            node = self.nodes[p.uid]
            self.net.now_epoch = at.epoch_of(t_s, self.ep)
            self.dht_fallback_announces += dht.dht_announce(self.net, node, self.meta.infohash)
            found = dht.dht_get_peers(self.net, node, self.meta.infohash)
            p.view.update(r.pk for r in found if r.pk != p.kp.pk)
            self.dht_fallback_gets += 1

    # -- reporting ----------------------------------------------------------

    def _has_pending(self, p: PeerState) -> bool:
        return bool(p.pending_receipts or p.pending_sessions)

    def _build_payload(self, p: PeerState):
        if p.pending_receipts:
            payload = tr.build_report(p.uid, p.kp.pk, self.meta, p.pending_receipts)
        else:
            payload = tr.build_session_report(p.uid, p.kp.pk, self.meta,
                                              p.pending_sessions.values())
        if not tr.signatures_hold(payload, self.meta):
            raise AssertionError("honest receipts failed their aggregate check")
        return payload

    def _submit(self, payload, t_s: int) -> bool:
        ok = self.tracker.report(payload, t_s)
        if isinstance(payload, tr.ReportPayload):
            nbytes = 32 * sum(len(pieces) for *_, pieces in payload.receipts) + 96
        else:
            nbytes = sum(64 * len(srs) + 96 for *_, srs in payload.sessions)
        self.ops["agg_verify"] += 1
        if ok:
            self.counts["reports_ok"] += 1
            self.counts["report_bytes"] += nbytes
        else:
            self.counts["reports_rejected"] += 1
        return ok

    def _clear_pending(self, p: PeerState):
        p.pending_receipts = []
        p.pending_sessions = {}

    def _flush_pending(self, t_s: int):
        for p in self.peers:
            if self._has_pending(p):
                self._submit(self._build_payload(p), t_s)
                self._clear_pending(p)

    def _on_flush(self, t_ms: float):
        t_s = self._t_s(t_ms)
        if self.tracker_up(t_ms):
            if not self.adv_done and self.all_done():
                self._run_adversaries(t_s)
                self.adv_done = True
            self._flush_pending(t_s)
            self.counts["gc_removed"] += self.tracker.gc_recent(t_s)
        if not self.finished(t_ms):
            self._push(t_ms + self.flush_every, "flush", None)

    def _on_recover(self, t_ms: float):
        t_s = self._t_s(t_ms)
        if self.sc.migrate_on_recovery:
            new = tr.migrate(self.world, self.chain, self.tracker.addr, self.pp,
                             PROGRAM_ID, CONFIG, epoch=self.ep)
            if new is None:
                raise RuntimeError("migration failed")
            self.tracker = new
            self.tracker.add_torrent(self.meta)
            self.migrations += 1
            for p in self.peers:
                self.nodes[p.uid].addr_rep = new.addr
                self._announce(p, "none")
        self._flush_pending(t_s)

    def all_done(self) -> bool:
        return all(p.done for p in self.peers)

    def finished(self, t_ms: float) -> bool:
        if not self.all_done() or not self.adv_done:
            return False
        if any(self._has_pending(p) for p in self.peers):
            return False
        return not any(t_ms < b for _, b in self.sc.tracker_down)

    # -- adversaries ---------------------------------------------------------

    def _run_adversaries(self, t_s: int):
        adv = self.peers[0]  # the primary seeder always holds receipts to abuse
        for name in self.sc.adversaries:
            rec = self.adversary[name]
            if name == "inflate" and self._has_pending(adv):
                payload = self._build_payload(adv)
                bad = dataclasses.replace(payload, delta_up=payload.delta_up + self.sc.piece_size)
                rec["attempts"] += 1
                if self._submit(bad, t_s):
                    rec["accepted"] += 1
            elif name == "replay" and self._has_pending(adv):
                payload = self._build_payload(adv)
                if not self._submit(payload, t_s):  # the honest submission
                    raise AssertionError("honest payload rejected during replay drill")
                self._clear_pending(adv)
                rec["attempts"] += 1
                if self._submit(payload, t_s):
                    rec["accepted"] += 1
            elif name == "forge":
                victim = self.peers[-1]
                h0, epoch = self.meta.piece_hashes[0], at.epoch_of(t_s, self.ep)
                msg = at.receipt_msg(self.meta.infohash, adv.kp.pk, h0, 0, epoch)
                forged_sig = sc.sign(adv.kp.sk, msg)  # not the victim's key
                forged = at.Receipt(self.meta.infohash, adv.kp.pk, victim.kp.pk, h0, 0, epoch,
                                    forged_sig)
                payload = tr.build_report(adv.uid, adv.kp.pk, self.meta, [(forged, victim.uid)])
                rec["attempts"] += 1
                if self._submit(payload, t_s):
                    rec["accepted"] += 1

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimResult:
        for p in self.peers:
            if p.todo:
                self._schedule_next(p)
        self._push(float(self.flush_every), "flush", None)
        for _, b in self.sc.tracker_down:
            self._push(float(b), "recover", None)

        while self.heap:
            t, _, kind, data = heapq.heappop(self.heap)
            self.t = t
            if kind == "finish":
                self._on_finish(*data)
            elif kind == "flush":
                self._on_flush(t)
            elif kind == "recover":
                self._on_recover(t)
        return self._result()

    # -- results ------------------------------------------------------------

    def _result(self) -> SimResult:
        true_up = {p.name: 0 for p in self.peers}
        true_down = {p.name: 0 for p in self.peers}
        rec_up = {p.name: 0 for p in self.peers}
        rec_down = {p.name: 0 for p in self.peers}
        for e in self.ground_truth:
            true_up[e["sender"]] += e["bytes"]
            true_down[e["receiver"]] += e["bytes"]
            if e["receipted"]:
                rec_up[e["sender"]] += e["bytes"]
                rec_down[e["receiver"]] += e["bytes"]

        peers_out = {}
        for p in self.peers:
            r = ct.sc_read(self.chain, self.tracker.addr, p.uid)
            ratio = tr.rep(r.up, r.down)
            peers_out[p.name] = {
                "true_up": true_up[p.name], "true_down": true_down[p.name],
                "receipted_up": rec_up[p.name], "receipted_down": rec_down[p.name],
                "chain_up": r.up, "chain_down": r.down,
                "rep": "inf" if ratio == float("inf") else str(ratio),
            }

        metrics = {
            "scenario": scenario_to_json(self.sc),
            "sim_ms": self.t,
            "num_pieces": self.sc.num_pieces,
            "peers": peers_out,
            "counts": dict(self.counts),
            "ops": dict(self.ops),
            "tracker": {
                "addr": self.tracker.addr.hex(),
                "referrer": (ct.get_referrer(self.chain, self.tracker.addr) or b"").hex() or None,
                "migrations": self.migrations,
            },
            "dht": {
                "rpcs": self.net.rpc_count,
                "store_rejects": dict(self.net.store_rejects),
                "announces": self.dht_announces,
                "fallback_announces": self.dht_fallback_announces,
                "fallback_get_peers": self.dht_fallback_gets,
            },
            "adversary": self.adversary,
            "overhead_model": C.throughput_overhead(
                self.sc.file_size, self.sc.bandwidth, self.sc.piece_size,
                self.sc.policy, self.cost),
        }
        blob = json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()
        return SimResult(
            scenario=self.sc, metrics=metrics, metrics_bytes=blob,
            ground_truth=self.ground_truth, tracker=self.tracker, chain=self.chain,
        )


def run_scenario(sc_: Scenario, cost: C.CostModel | None = None,
                 chain_path: str | None = None) -> SimResult:
    return SwarmSim(sc_, cost=cost, chain_path=chain_path).run()
