"""Authenticated Kademlia fallback for peer discovery when the tracker is down.

Node identity is the truncated hash of a peer's long-term key, so DHT
identities are bound to on-chain registrations.  Storage nodes accept an
announce record only after checking the reputation contract: the key must be
registered, match the record, and clear the admission threshold — the
contract acts as the PKI.  Requesters re-verify every record they retrieve,
so a tampered store can never propagate into a peer's local view.  A node
signs its record once per torrent and address and re-offers it: it binds no
epoch and BLS signing is deterministic, so re-signing gives the same bytes.

Everything runs over the simulator's in-process message bus: configurable
drop probability, an explicit dead set, and per-call counters.  No sockets.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache

from . import contract as ct
from . import sigcrypto as sc
from . import tracker as tr

ID_BITS = 160
ID_LEN = ID_BITS // 8


class JoinError(Exception):
    pass


@dataclass(frozen=True)
class DhtParams:
    k: int = 20
    alpha: int = 3
    ttl_epochs: int = 2


def node_id(pk: bytes) -> bytes:
    return sc.hash_data(pk)[:ID_LEN]


def torrent_key(infohash: bytes) -> bytes:
    return infohash[:ID_LEN]


def xor_distance(a: bytes, b: bytes) -> int:
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


@lru_cache(maxsize=1 << 14)
def _id_int(nid: bytes) -> int:
    return int.from_bytes(nid, "big")


def _closest(contacts, key: bytes, count: int):
    """The *count* contacts nearest to *key*, nearest first."""
    target = int.from_bytes(key, "big")
    return heapq.nsmallest(count, contacts, key=lambda c: _id_int(c[0]) ^ target)


def announce_record_msg(infohash: bytes, pk: bytes, ip: str, port: int) -> bytes:
    return sc.canonical_encode(
        [
            (sc.TAG_ATOM, b"announce-record"),
            (sc.TAG_BYTES, infohash),
            (sc.TAG_PUBKEY, pk),
            (sc.TAG_BYTES, ip.encode()),
            (sc.TAG_UINT, sc.enc_uint(port)),
        ]
    )


@dataclass(frozen=True)
class AnnounceRecord:
    """Signed claim of swarm membership.  ``uid`` is an unsigned routing hint
    for the storage node's contract lookup; everything the verifier relies on
    is covered by the signature or read from the chain."""

    uid: bytes
    pk: bytes
    ip: str
    port: int
    infohash: bytes
    sig: bytes


def make_record(kp: sc.KeyPair, uid: bytes, infohash: bytes, ip: str, port: int) -> AnnounceRecord:
    sig = sc.sign(kp.sk, announce_record_msg(infohash, kp.pk, ip, port))
    return AnnounceRecord(uid=uid, pk=kp.pk, ip=ip, port=port, infohash=infohash, sig=sig)


# ---------------------------------------------------------------------------


@dataclass
class DhtNode:
    kp: sc.KeyPair
    uid: bytes
    ip: str
    port: int
    chain: ct.Chain
    addr_rep: bytes
    min_rep: object
    params: DhtParams = field(default_factory=DhtParams)

    def __post_init__(self):
        self.nid = node_id(self.kp.pk)
        self.buckets = [[] for _ in range(ID_BITS)]  # entries: (nid, ip, port)
        self.store = {}   # infohash -> {pk: (AnnounceRecord, epoch stored)}
        self.signed = {}  # infohash -> the last record this node signed for it

    # -- routing table -------------------------------------------------------

    def _bucket_of(self, nid: bytes):
        d = xor_distance(self.nid, nid)
        if d == 0:
            return None
        return self.buckets[d.bit_length() - 1]

    def observe(self, contact) -> None:
        """Contact seen alive: move to most-recent position, or append.  A
        newcomer is dropped when the bucket is full (long-lived contacts are
        the more reliable ones to keep)."""
        nid = contact[0]
        bucket = self._bucket_of(nid)
        if bucket is None:
            return
        for i, (b_nid, _, _) in enumerate(bucket):
            if b_nid == nid:
                bucket.append(bucket.pop(i))
                return
        if len(bucket) < self.params.k:
            bucket.append(tuple(contact))

    def evict(self, nid: bytes) -> None:
        bucket = self._bucket_of(nid)
        if bucket is not None:
            bucket[:] = [c for c in bucket if c[0] != nid]

    def closest_contacts(self, key: bytes, count: int):
        """The *count* contacts nearest to *key*, nearest first.  With j the top
        bit of (own id ^ key), distances from *key* are below 2**j in bucket j, top
        bit j in buckets 0..j-1 (ranked together), top bit i in bucket i > j: that
        order (for the own id: 0, 1, 2, ...) is the full ranking, as ids never tie."""
        target = int.from_bytes(key, "big")
        j, b = (_id_int(self.nid) ^ target).bit_length() - 1, self.buckets
        groups = b if j < 0 else [b[j], itertools.chain.from_iterable(b[:j]), *b[j + 1:]]
        out = []
        for group in filter(None, groups):
            if len(out) < count:
                out += sorted(group, key=lambda c: _id_int(c[0]) ^ target)[:count - len(out)]
        return out

    # -- storage -------------------------------------------------------------

    def check_record(self, record: AnnounceRecord):
        """Whether an announce record may be stored or believed: (True, None)
        or (False, reason).  Cheap chain checks run before the signature so
        junk from adversarial scripts is rejected without paying for a
        pairing."""
        rec = ct.sc_read(self.chain, self.addr_rep, record.uid)
        if rec is None:
            return False, "unknown_uid"
        if rec.pk != record.pk:
            return False, "pk_mismatch"
        if tr.rep(rec.up, rec.down) < self.min_rep:
            return False, "low_rep"
        msg = announce_record_msg(record.infohash, record.pk, record.ip, record.port)
        if not sc.verify(record.pk, msg, record.sig):
            return False, "bad_sig"
        return True, None

    def handle_store(self, record: AnnounceRecord, now_epoch: int):
        """Store *record* if ``check_record`` admits it; returns its verdict."""
        ok, reason = self.check_record(record)
        if ok:
            per_torrent = self.store.setdefault(record.infohash, {})
            per_torrent[record.pk] = (record, now_epoch)
        return ok, reason

    def sweep(self, now_epoch: int) -> int:
        """Evict records past their TTL; returns eviction count."""
        evicted = 0
        for infohash in list(self.store):
            per = self.store[infohash]
            for pk in list(per):
                if now_epoch >= per[pk][1] + self.params.ttl_epochs:
                    del per[pk]
                    evicted += 1
            if not per:
                del self.store[infohash]
        return evicted

    def stored_records(self, infohash: bytes, now_epoch: int):
        self.sweep(now_epoch)
        return [record for record, _ in self.store.get(infohash, {}).values()]


# ---------------------------------------------------------------------------


@dataclass
class DhtNet:
    """In-process message bus.  ``drop_rate`` loses individual RPCs;
    ``dead`` marks nodes that never answer (the caller evicts them)."""

    params: DhtParams = field(default_factory=DhtParams)
    drop_rate: float = 0.0
    rng: random.Random = field(default_factory=random.Random)
    now_epoch: int = 0
    nodes: dict = field(default_factory=dict)      # nid -> DhtNode
    by_addr: dict = field(default_factory=dict)    # (ip, port) -> nid
    dead: set = field(default_factory=set)
    rpc_count: int = 0
    store_rejects: dict = field(default_factory=dict)

    def add_node(self, node: DhtNode) -> None:
        self.nodes[node.nid] = node
        self.by_addr[(node.ip, node.port)] = node.nid

    def _deliver(self, src: DhtNode, dst_nid: bytes):
        """The destination, having observed *src*, or None if the RPC is lost."""
        self.rpc_count += 1
        if dst_nid in self.dead or dst_nid not in self.nodes:
            return None
        if self.drop_rate and self.rng.random() < self.drop_rate:
            return None
        dst = self.nodes[dst_nid]
        dst.observe((src.nid, src.ip, src.port))
        return dst

    def rpc_find_node(self, src: DhtNode, dst_nid: bytes, key: bytes):
        dst = self._deliver(src, dst_nid)
        return None if dst is None else dst.closest_contacts(key, self.params.k)

    def rpc_store(self, src: DhtNode, dst_nid: bytes, record: AnnounceRecord):
        dst = self._deliver(src, dst_nid)
        if dst is None:
            return None
        ok, reason = dst.handle_store(record, self.now_epoch)
        if not ok:
            self.store_rejects[reason] = self.store_rejects.get(reason, 0) + 1
        return ok

    def rpc_get(self, src: DhtNode, dst_nid: bytes, infohash: bytes):
        dst = self._deliver(src, dst_nid)
        return None if dst is None else dst.stored_records(infohash, self.now_epoch)


# ---------------------------------------------------------------------------
# iterative lookup


def find_closest(net: DhtNet, node: DhtNode, key: bytes):
    """Iterative lookup: each round queries the alpha closest unqueried
    candidates in parallel and merges their answers; once a round stops
    improving the k-best frontier, one wide terminal round queries everything
    still unqueried among the k best.  Returns (contacts, rounds); rounds is
    the hop count."""
    k = net.params.k
    candidates = {node.nid: (node.nid, node.ip, node.port)}
    for c in node.closest_contacts(key, k):
        candidates[c[0]] = c
    queried = {node.nid}
    failed = set()

    def query(batch):
        for c in batch:
            queried.add(c[0])
            res = net.rpc_find_node(node, c[0], key)
            if res is None:
                node.evict(c[0])
                failed.add(c[0])
                del candidates[c[0]]
                continue
            node.observe(c)
            for found in res:
                if found[0] not in failed:
                    candidates.setdefault(found[0], tuple(found))

    # ranked once per query; contact tuples never change, so equal lists mean equal ids
    rounds = 0
    best = _closest(candidates.values(), key, k)
    while True:
        frontier = [c for c in best if c[0] not in queried]
        if not frontier:
            break
        rounds += 1
        best_before = best
        query(frontier[: net.params.alpha])
        best = _closest(candidates.values(), key, k)
        if best == best_before:
            # converged: flush the rest of the best-k in one parallel round
            flush = [c for c in best if c[0] not in queried]
            if flush:
                rounds += 1
                query(flush)
                best = _closest(candidates.values(), key, k)
            if best == best_before:
                break
    return best, rounds


def bootstrap(net: DhtNet, node: DhtNode, bootstrap_addrs) -> int:
    """Join via any live node from the given addresses, then populate the
    routing table with a self-lookup.  Raises JoinError when every contact
    point is dead."""
    live = 0
    for ip, port in bootstrap_addrs:
        nid = net.by_addr.get((ip, port))
        if nid is None:
            continue
        res = net.rpc_find_node(node, nid, node.nid)
        if res is None:
            continue
        live += 1
        node.observe((nid, ip, port))
        for c in res:
            node.observe(c)
    if not live:
        raise JoinError("no live bootstrap node")
    net.add_node(node)
    find_closest(net, node, node.nid)
    return live


def dht_announce(net: DhtNet, node: DhtNode, infohash: bytes) -> int:
    """Offer a signed membership record to the k nodes closest to the
    torrent key; returns how many accepted.  The record binds no epoch, so it
    is signed once per torrent and address and re-offered (BEP 44's re-put)."""
    record = node.signed.get(infohash)
    if record is None or (record.uid, record.ip, record.port) != (node.uid, node.ip, node.port):
        record = node.signed[infohash] = make_record(node.kp, node.uid, infohash,
                                                     node.ip, node.port)
    targets, _ = find_closest(net, node, torrent_key(infohash))
    accepted = 0
    for c in targets:
        if c[0] == node.nid:
            ok, _ = node.handle_store(record, net.now_epoch)
        else:
            ok = net.rpc_store(node, c[0], record)
        if ok:
            accepted += 1
    return accepted


def dht_get_peers(net: DhtNet, node: DhtNode, infohash: bytes):
    """Collect records from the k closest nodes and re-verify them locally,
    returning those the caller may add to its view: per pk, the first copy
    that passes is kept, so one holder's forged copy cannot hide the valid
    ones.  Equal copies are checked once."""
    targets, _ = find_closest(net, node, torrent_key(infohash))
    collected = []
    for c in targets:
        if c[0] == node.nid:
            records = node.stored_records(infohash, net.now_epoch)
        else:
            records = net.rpc_get(node, c[0], infohash)
        collected.extend(records or ())
    kept, refused = {}, set()
    for r in collected:
        if r.pk in kept or r in refused:
            continue
        if node.check_record(r)[0]:
            kept[r.pk] = r
        else:
            refused.add(r)
    return list(kept.values())

