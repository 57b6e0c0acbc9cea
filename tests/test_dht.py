"""Authenticated DHT: routing tables, iterative lookup, chain-gated stores,
record TTL, and re-verification on retrieval."""

import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbts import contract as ct
from pbts import dht
from pbts import enclave as encl
from pbts import sigcrypto as sc
from pbts import tracker as tr

PROG, CFG = b"dht-prog", b"cfg"
IH = sc.hash_data(b"dht-swarm")


class Net:
    """A converged network of registered nodes: every node has observed every
    other, so routing tables are as full as the bucket cap allows.  All nodes
    share one chain and read reputations from the same tracker contract."""

    def __init__(self, n, seed=0, k=20, alpha=3, ttl=2,
                 min_rep=Fraction(1, 4)):
        self.world = encl.world_new(seed=seed)
        self.world.allowlist.add(encl.measure(PROG, CFG))
        self.chain = ct.chain_new(self.world.allowlist, self.world.hw_root_pk)
        self.pp = tr.setup(128, min_rep, 4096, random.Random(seed))
        self.tracker = tr.Tracker.launch(self.world, self.chain, self.pp, PROG, CFG)
        assert self.tracker is not None
        self.params = dht.DhtParams(k=k, alpha=alpha, ttl_epochs=ttl)
        self.net = dht.DhtNet(params=self.params, rng=random.Random(seed + 1))
        self.nodes = []
        for i in range(n):
            kp = sc.keygen(sc.hash_data(b"dht-node-%d-%d" % (seed, i)))
            uid = b"n%03d" % i
            assert self.tracker.register(
                uid, kp.pk, sc.sign(kp.sk, tr.register_msg(self.pp.iid, uid)))
            node = dht.DhtNode(
                kp=kp, uid=uid, ip="10.1.%d.%d" % (i // 256, i % 256),
                port=6881 + i, chain=self.chain, addr_rep=self.tracker.addr,
                min_rep=min_rep, params=self.params)
            self.net.add_node(node)
            self.nodes.append(node)
        for a in self.nodes:
            for b in self.nodes:
                if a is not b:
                    a.observe((b.nid, b.ip, b.port))

    def record(self, i, infohash=IH):
        node = self.nodes[i]
        return dht.make_record(node.kp, node.uid, infohash, node.ip, node.port)

    def slash(self, i):
        """Push node i's on-chain ratio to zero (below any positive gate)."""
        node = self.nodes[i]
        assert self.tracker._write(node.uid, node.kp.pk, 0, 4096)


def nid_at_bucket(base: bytes, i: int, salt: int = 0) -> bytes:
    """A node id landing in *base*'s bucket i (distance bit_length i+1)."""
    v = int.from_bytes(base, "big") ^ (1 << i)
    if i:
        v ^= salt % (1 << i)
    return v.to_bytes(dht.ID_LEN, "big")


def table(node):
    """Every contact in *node*'s routing table."""
    return [c for bucket in node.buckets for c in bucket]


def bare_node(seed=0, k=2):
    # routing-table mechanics never touch the chain, so none is wired up
    kp = sc.keygen(sc.hash_data(b"bare-%d" % seed))
    return dht.DhtNode(kp=kp, uid=b"bare", ip="10.9.9.9", port=1, chain=None,
                       addr_rep=b"", min_rep=0, params=dht.DhtParams(k=k))


def lossy_net(n=96, k=8, seed=61, dead=6):
    """Routing-only nodes that joined one by one through node 0, so tables
    are partial; then 5% of RPCs are lost and the last *dead* nodes never
    answer, so lookups take several rounds and evict as they go."""
    params = dht.DhtParams(k=k)
    net = dht.DhtNet(params=params, rng=random.Random(seed))
    nodes = []
    for i in range(n):
        kp = sc.keygen(sc.hash_data(b"lossy-%d-%d" % (seed, i)))
        node = dht.DhtNode(kp=kp, uid=b"l%03d" % i, ip="10.6.%d.%d" % (i // 256, i % 256),
                           port=7000 + i, chain=None, addr_rep=b"", min_rep=0, params=params)
        if nodes:
            dht.bootstrap(net, node, [(nodes[0].ip, nodes[0].port)])
        else:
            net.add_node(node)
        nodes.append(node)
    net.drop_rate = 0.05
    net.dead.update(x.nid for x in nodes[n - dead:])
    return net, nodes


# Recorded before closest_contacts walked the buckets (it ranked the whole
# table then): 200 lookups' contacts, rounds and running rpc_count, and every
# node's buckets afterwards.
GOLDEN_LOOKUPS = "22b2b3e25c0cefe2bd57fabca081c527e9a29727177c4282c98e25af614423b6"


class TestIds:
    def test_node_id_is_truncated_key_hash(self):
        kp = sc.keygen(b"\x07" * 32)
        assert dht.node_id(kp.pk) == sc.hash_data(kp.pk)[: dht.ID_LEN]
        assert len(dht.node_id(kp.pk)) == 20

    def test_torrent_key_truncates_infohash(self):
        assert dht.torrent_key(IH) == IH[:20]

    @settings(max_examples=200)
    @given(st.binary(min_size=20, max_size=20),
           st.binary(min_size=20, max_size=20),
           st.binary(min_size=20, max_size=20))
    def test_xor_metric(self, a, b, c):
        assert dht.xor_distance(a, a) == 0
        assert dht.xor_distance(a, b) == dht.xor_distance(b, a)
        assert (dht.xor_distance(a, b) == 0) == (a == b)
        # XOR geometry: d(a,c) = d(a,b) ^ d(b,c), which bounds d(a,c) by
        # d(a,b) + d(b,c) -- the triangle inequality
        assert dht.xor_distance(a, c) == (
            dht.xor_distance(a, b) ^ dht.xor_distance(b, c))


class TestRecords:
    def test_record_signs_the_announce_message(self):
        kp = sc.keygen(b"\x09" * 32)
        r = dht.make_record(kp, b"u", IH, "10.0.0.1", 6881)
        msg = dht.announce_record_msg(r.infohash, r.pk, r.ip, r.port)
        assert sc.verify(kp.pk, msg, r.sig)

    @pytest.mark.parametrize("field,value", [
        ("infohash", sc.hash_data(b"other")),
        ("ip", "10.0.0.2"),
        ("port", 6882),
    ])
    def test_signature_covers_endpoint_claims(self, field, value):
        kp = sc.keygen(b"\x0a" * 32)
        r = replace(dht.make_record(kp, b"u", IH, "10.0.0.1", 6881),
                    **{field: value})
        msg = dht.announce_record_msg(r.infohash, r.pk, r.ip, r.port)
        assert not sc.verify(r.pk, msg, r.sig)


class TestRoutingTable:
    def test_bucket_is_lru_with_newcomer_drop(self):
        node = bare_node(k=2)
        c = [
            (nid_at_bucket(node.nid, 150, salt=j), "10.2.0.%d" % j, 7000 + j)
            for j in range(3)
        ]
        assert len({x[0] for x in c}) == 3
        node.observe(c[0])
        node.observe(c[1])
        bucket = node._bucket_of(c[0][0])
        assert bucket == [c[0], c[1]]
        node.observe(c[2])  # full bucket: newcomer dropped
        assert bucket == [c[0], c[1]]
        node.observe(c[0])  # seen again: moves to most-recent position
        assert bucket == [c[1], c[0]]
        node.evict(c[1][0])
        assert bucket == [c[0]]
        node.observe(c[2])  # room again
        assert bucket == [c[0], c[2]]

    def test_never_stores_itself(self):
        node = bare_node(k=4)
        node.observe((node.nid, node.ip, node.port))
        assert table(node) == []

    def test_closest_contacts_sorted_by_distance(self):
        node = bare_node(seed=3, k=8)
        rng = random.Random(5)
        seen = [(bytes(rng.randrange(256) for _ in range(20)), "10.3.0.1", 1)
                for _ in range(30)]
        for c in seen:
            node.observe(c)
        key = bytes(rng.randrange(256) for _ in range(20))
        got = node.closest_contacts(key, 10)
        want = sorted(table(node),
                      key=lambda c: dht.xor_distance(c[0], key))[:10]
        assert got == want
        dists = [dht.xor_distance(c[0], key) for c in got]
        assert dists == sorted(dists)

    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    def test_bucket_walk_equals_full_ranking(self, k):
        node = bare_node(seed=k, k=k)
        rng = random.Random(k)
        for i in range(dht.ID_BITS):  # every bucket, up to 3 contacts each
            for salt in range(3):
                node.observe((nid_at_bucket(node.nid, i, salt=rng.getrandbits(160) + salt),
                              "10.4.0.1", i))
        for _ in range(40):  # random ids crowd the top buckets
            node.observe((rng.randbytes(dht.ID_LEN), "10.4.0.2", 1))
        contacts = table(node)
        own = int.from_bytes(node.nid, "big")
        keys = [node.nid, contacts[0][0], contacts[-1][0]]
        for p in range(dht.ID_BITS):  # shares exactly a p-bit prefix with the own id
            v = own ^ (1 << (dht.ID_BITS - 1 - p)) ^ rng.getrandbits(dht.ID_BITS - 1 - p)
            keys.append(v.to_bytes(dht.ID_LEN, "big"))
        keys += [rng.randbytes(dht.ID_LEN) for _ in range(20)]
        for key in keys:
            ranked = sorted(contacts, key=lambda c: dht.xor_distance(c[0], key))
            for count in (0, 1, k, len(contacts) + 5):
                assert node.closest_contacts(key, count) == ranked[:count]


class TestLookup:
    @pytest.mark.parametrize("n,seed", [(10, 1), (40, 2)])
    def test_matches_brute_force_k_nearest(self, n, seed):
        env = Net(n, seed=seed, k=8)
        rng = random.Random(seed)
        for _ in range(25):
            key = bytes(rng.randrange(256) for _ in range(20))
            who = env.nodes[rng.randrange(n)]
            got, rounds = dht.find_closest(env.net, who, key)
            want = sorted((x.nid for x in env.nodes),
                          key=lambda nid: dht.xor_distance(nid, key))[:8]
            assert [c[0] for c in got] == want
            assert rounds <= 4 * math.log2(n)

    def test_k_override(self):
        env = Net(12, seed=3, k=3)
        got, _ = dht.find_closest(env.net, env.nodes[0], IH[:20])
        assert len(got) == 3

    def test_dead_node_pruned_and_evicted(self):
        env = Net(8, seed=4)
        dead = env.nodes[5]
        env.net.dead.add(dead.nid)
        got, _ = dht.find_closest(env.net, env.nodes[0], dead.nid)
        live = [x.nid for x in env.nodes if x.nid != dead.nid]
        want = sorted(live, key=lambda nid: dht.xor_distance(nid, dead.nid))
        assert [c[0] for c in got] == want[: env.params.k]
        assert dead.nid not in [c[0] for c in table(env.nodes[0])]

    def test_lookups_on_a_lossy_net_match_the_recording(self):
        net, nodes = lossy_net()
        live = [x for x in nodes if x.nid not in net.dead]
        rng, h = random.Random(62), hashlib.sha256()
        for _ in range(200):
            got, rounds = dht.find_closest(net, rng.choice(live), rng.randbytes(dht.ID_LEN))
            h.update(repr((got, rounds, net.rpc_count)).encode())
        for x in nodes:
            h.update(repr(x.buckets).encode())
        assert h.hexdigest() == GOLDEN_LOOKUPS

    def test_rpcs_are_counted(self):
        env = Net(6, seed=5)
        before = env.net.rpc_count
        dht.find_closest(env.net, env.nodes[0], IH[:20])
        assert env.net.rpc_count > before


class TestStoreGating:
    def test_registered_peer_accepted(self):
        env = Net(5, seed=11)
        r = env.record(1)
        ok, why = env.nodes[0].handle_store(r, 7)
        assert (ok, why) == (True, None)
        assert env.nodes[0].store[IH][r.pk] == (r, 7)

    def test_unregistered_uid_rejected(self):
        env = Net(5, seed=12)
        r = replace(env.record(1), uid=b"ghost")
        assert env.nodes[0].handle_store(r, 0) == (False, "unknown_uid")

    def test_uid_must_resolve_to_the_signing_key(self):
        # valid signature, but the routing hint points at someone else's
        # registration: the chain cross-check catches it
        env = Net(5, seed=13)
        r = replace(env.record(1), uid=env.nodes[2].uid)
        assert env.nodes[0].handle_store(r, 0) == (False, "pk_mismatch")

    def test_low_rep_rejected(self):
        env = Net(5, seed=14)
        env.slash(1)
        assert env.nodes[0].handle_store(env.record(1), 0) == (False, "low_rep")

    def test_bad_signature_rejected_after_chain_checks(self):
        env = Net(5, seed=15)
        r = replace(env.record(1), port=9999)
        assert env.nodes[0].handle_store(r, 0) == (False, "bad_sig")

    def test_rejects_tallied_on_the_bus(self):
        env = Net(5, seed=16)
        bad = replace(env.record(1), port=9999)
        assert env.net.rpc_store(env.nodes[1], env.nodes[0].nid, bad) is False
        assert env.net.store_rejects == {"bad_sig": 1}

    def test_low_rep_announcer_accepted_nowhere(self):
        env = Net(5, seed=17)
        env.slash(1)
        assert dht.dht_announce(env.net, env.nodes[1], IH) == 0
        assert env.net.store_rejects.get("low_rep", 0) >= 4

    def test_slash_seen_by_a_store_at_an_earlier_epoch(self):
        # every check reads the chain as it stands, whatever epoch the
        # caller names: an earlier read is never served again
        env = Net(3, seed=25)
        n0 = env.nodes[0]
        assert n0.handle_store(env.record(1), 5) == (True, None)
        env.slash(1)
        assert n0.handle_store(env.record(1), 4) == (False, "low_rep")


class TestRecordReuse:
    @staticmethod
    def count_signs(monkeypatch):
        calls = []
        sign = sc.sign
        monkeypatch.setattr(sc, "sign", lambda sk, msg: calls.append(msg) or sign(sk, msg))
        return calls

    def test_one_signature_for_four_announces(self, monkeypatch):
        env = Net(6, seed=71)
        calls = self.count_signs(monkeypatch)
        for epoch in range(4):
            env.net.now_epoch = epoch
            assert dht.dht_announce(env.net, env.nodes[1], IH) == 6
        assert len(calls) == 1

    def test_reused_record_is_the_fresh_one(self, monkeypatch):
        env = Net(6, seed=72)
        offered = []
        store = env.net.rpc_store
        monkeypatch.setattr(env.net, "rpc_store",
                            lambda src, dst, r: offered.append(r) or store(src, dst, r))
        dht.dht_announce(env.net, env.nodes[1], IH)
        offered.clear()
        assert dht.dht_announce(env.net, env.nodes[1], IH) == 6
        fresh = env.record(1)
        assert offered and all(r is env.nodes[1].signed[IH] for r in offered)
        assert offered[0] == fresh and offered[0].sig == fresh.sig

    def test_new_port_signs_anew_and_is_served(self, monkeypatch):
        env = Net(6, seed=73)
        calls = self.count_signs(monkeypatch)
        node = env.nodes[1]
        assert dht.dht_announce(env.net, node, IH) == 6
        node.port = 7777
        assert dht.dht_announce(env.net, node, IH) == 6
        assert len(calls) == 2
        got = dht.dht_get_peers(env.net, env.nodes[4], IH)
        assert [(r.pk, r.port) for r in got] == [(node.kp.pk, 7777)]

    def test_reuse_skips_no_holder_check(self, monkeypatch):
        env = Net(6, seed=74)
        calls = self.count_signs(monkeypatch)
        assert dht.dht_announce(env.net, env.nodes[1], IH) == 6
        env.slash(1)
        assert dht.dht_announce(env.net, env.nodes[1], IH) == 0
        assert len(calls) == 1
        assert env.net.store_rejects == {"low_rep": 5}  # every holder but itself

    def test_two_torrents_keep_two_records(self, monkeypatch):
        env = Net(6, seed=75)
        calls = self.count_signs(monkeypatch)
        other = sc.hash_data(b"dht-swarm-2")
        for _ in range(2):
            for ih in (IH, other):
                assert dht.dht_announce(env.net, env.nodes[1], ih) == 6
        assert len(calls) == 2
        assert env.nodes[1].signed == {IH: env.record(1), other: env.record(1, other)}


class TestTtl:
    def test_expiry_boundary(self):
        env = Net(3, seed=31)  # ttl_epochs=2
        n0 = env.nodes[0]
        assert n0.handle_store(env.record(1), 7)[0]
        assert len(n0.stored_records(IH, 8)) == 1
        assert n0.stored_records(IH, 9) == []  # 9 >= 7 + 2
        assert IH not in n0.store  # emptied buckets are pruned

    def test_sweep_counts_evictions(self):
        env = Net(4, seed=32)
        n0 = env.nodes[0]
        assert n0.handle_store(env.record(1), 0)[0]
        assert n0.handle_store(env.record(2), 1)[0]
        assert n0.sweep(2) == 1  # only the epoch-0 record has aged out
        left = n0.store[IH]
        assert set(left) == {env.nodes[2].kp.pk}

    def test_restore_refreshes_the_clock(self):
        env = Net(3, seed=33)
        n0 = env.nodes[0]
        assert n0.handle_store(env.record(1), 0)[0]
        assert n0.handle_store(env.record(1), 1)[0]  # re-announce
        assert len(n0.stored_records(IH, 2)) == 1    # would have expired at 2
        assert n0.stored_records(IH, 3) == []


class TestRetrieve:
    def test_announce_then_get_round_trip(self):
        env = Net(6, seed=41)
        assert dht.dht_announce(env.net, env.nodes[1], IH) == 6
        got = dht.dht_get_peers(env.net, env.nodes[4], IH)
        one = env.nodes[1]
        assert [(r.pk, r.ip, r.port) for r in got] == [(one.kp.pk, one.ip, one.port)]

    def test_tampered_stored_record_never_enters_a_view(self):
        env = Net(6, seed=42)
        good = env.record(1)
        forged = replace(good, port=4444)
        for holder in env.nodes:  # plant everywhere, bypassing handle_store
            holder.store[IH] = {forged.pk: (forged, 0)}
        assert dht.dht_get_peers(env.net, env.nodes[3], IH) == []  # nothing to add

    def test_one_lying_holder_cannot_hide_a_valid_record(self):
        env = Net(6, seed=42)
        assert dht.dht_announce(env.net, env.nodes[1], IH) == 6
        key = dht.torrent_key(IH)
        closest = min(env.nodes, key=lambda n: dht.xor_distance(n.nid, key))
        good, epoch = closest.store[IH][env.nodes[1].kp.pk]
        closest.store[IH][good.pk] = (replace(good, port=4444), epoch)
        got = dht.dht_get_peers(env.net, env.nodes[3], IH)
        assert [(r.pk, r.ip, r.port) for r in got] == [(good.pk, good.ip, good.port)]

    def test_retrieval_rechecks_reputation(self):
        # stored while in good standing, slashed afterwards: the stale copy
        # is still served by holders but dropped by every requester
        env = Net(6, seed=43)
        assert dht.dht_announce(env.net, env.nodes[1], IH) == 6
        env.slash(1)
        requester, checked = env.nodes[2], []
        check = requester.check_record
        requester.check_record = lambda r: checked.append(r) or check(r)
        assert dht.dht_get_peers(env.net, requester, IH) == []
        assert len(checked) == 1  # the holders' equal copies cost one chain read

    def test_copies_stored_in_different_epochs_are_checked_once(self):
        # the store epoch is the holder's bookkeeping, not part of the record
        env = Net(6, seed=43, ttl=4)
        assert dht.dht_announce(env.net, env.nodes[1], IH) == 6  # epoch 0
        record = env.nodes[1].signed[IH]
        for holder in env.nodes[3:]:
            assert holder.handle_store(record, 1) == (True, None)
        env.net.now_epoch = 1
        env.slash(1)
        requester, checked = env.nodes[2], []
        check = requester.check_record
        requester.check_record = lambda r: checked.append(r) or check(r)
        assert dht.dht_get_peers(env.net, requester, IH) == []
        assert len(checked) == 1
        assert checked == [record]

    def test_unregistered_record_dropped_on_retrieval(self):
        env = Net(5, seed=44)
        kp = sc.keygen(b"\x55" * 32)
        ghost = dht.make_record(kp, b"ghost", IH, "10.8.8.8", 1111)
        for holder in env.nodes:
            holder.store[IH] = {ghost.pk: (ghost, 0)}
        assert dht.dht_get_peers(env.net, env.nodes[0], IH) == []


class TestJoin:
    def _newcomer(self, env, seed):
        kp = sc.keygen(sc.hash_data(b"newcomer-%d" % seed))
        uid = b"newcomer"
        assert env.tracker.register(
            uid, kp.pk, sc.sign(kp.sk, tr.register_msg(env.pp.iid, uid)))
        return dht.DhtNode(
            kp=kp, uid=uid, ip="10.7.0.1", port=9000, chain=env.chain,
            addr_rep=env.tracker.addr, min_rep=env.pp.min_rep,
            params=env.params)

    def test_all_contact_points_dead_raises(self):
        env = Net(3, seed=51)
        node = self._newcomer(env, 51)
        with pytest.raises(dht.JoinError):
            dht.bootstrap(env.net, node, [("10.254.0.1", 1), ("10.254.0.2", 1)])
        assert node.nid not in env.net.nodes

    def test_dead_contact_point_is_skipped(self):
        env = Net(5, seed=52)
        node = self._newcomer(env, 52)
        live = (env.nodes[0].ip, env.nodes[0].port)
        assert dht.bootstrap(env.net, node, [("10.254.0.1", 1), live]) == 1
        assert env.net.nodes[node.nid] is node
        assert len(table(node)) > 0
        # the newcomer is now discoverable
        got, _ = dht.find_closest(env.net, env.nodes[2], node.nid)
        assert got[0][0] == node.nid

    def test_total_packet_loss_looks_dead(self):
        env = Net(3, seed=53)
        env.net.drop_rate = 1.0
        node = self._newcomer(env, 53)
        with pytest.raises(dht.JoinError):
            dht.bootstrap(env.net, node, [(env.nodes[0].ip, env.nodes[0].port)])

