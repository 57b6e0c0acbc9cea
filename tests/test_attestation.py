"""Receipts, batching, sessions, epochs, and attestation policies."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from pbts import attestation as at
from pbts import contract as ct
from pbts import dht
from pbts import enclave as encl
from pbts import sigcrypto as sc
from pbts import tracker as tr

EP = at.EpochParams()  # window 3600, delta 2


def make_meta(n=8, piece_size=512, short_last=100, name="t"):
    contents = [sc.hash_data(b"%s-%d" % (name.encode(), i)) for i in range(n)]
    meta = at.make_torrent(
        name, [sc.hash_data(c) for c in contents], piece_size,
        length=piece_size * n - short_last,
    )
    return meta, contents


class TestEpochs:
    def test_epoch_of(self):
        assert at.epoch_of(0, EP) == 0
        assert at.epoch_of(3599, EP) == 0
        assert at.epoch_of(3600, EP) == 1
        with pytest.raises(ValueError):
            at.epoch_of(-1, EP)

    @given(st.integers(0, 3), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=300)
    def test_window_rule(self, delta, e, now):
        p = at.EpochParams(window=100, delta=delta)
        assert at.epoch_in_window(e, now, p) == (now - delta <= e <= now)

    def test_exhaustive_windows(self):
        # every (delta, lag) combination near the boundary
        for delta in range(4):
            p = at.EpochParams(window=10, delta=delta)
            for lag in range(3 * delta + 2):
                now = 20
                e = now - lag
                assert at.epoch_in_window(e, now, p) == (lag <= delta)
            # no future epoch
            assert not at.epoch_in_window(now + 1, now, p)


class TestTorrentMeta:
    def test_infohash_binds_name_size_hashes_not_length(self):
        hashes = [sc.hash_data(b"%d" % i) for i in range(4)]
        base = at.make_torrent("a", hashes, 256)
        assert at.make_torrent("b", hashes, 256).infohash != base.infohash
        assert at.make_torrent("a", hashes, 512).infohash != base.infohash
        assert at.make_torrent("a", hashes[::-1], 256).infohash != base.infohash
        # length describes the same pieces, so it is not part of the identity
        assert at.make_torrent("a", hashes, 256, length=4 * 256 - 10).infohash == base.infohash

    def test_piece_len_partial_last(self):
        meta, _ = make_meta(n=5, piece_size=512, short_last=100)
        assert [at.piece_len(meta, i) for i in range(5)] == [512, 512, 512, 512, 412]
        assert sum(at.piece_len(meta, i) for i in range(5)) == meta.length
        with pytest.raises(IndexError):
            at.piece_len(meta, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            at.make_torrent("x", [], 256)
        with pytest.raises(ValueError):
            at.make_torrent("x", [b"short"], 256)
        with pytest.raises(ValueError):
            at.make_torrent("x", [sc.hash_data(b"p")], 256, length=257)
        with pytest.raises(ValueError):
            at.make_torrent("x", [sc.hash_data(b"p")] * 2, 256, length=256)


class TestReceipts:
    def setup_method(self):
        self.recv = sc.keygen(b"\x21" * 32)
        self.send = sc.keygen(b"\x22" * 32)
        self.meta, self.contents = make_meta()
        self.now = 10 * EP.window + 50

    def attest(self, i=0, t=None):
        return at.attest(self.recv, self.meta.infohash, self.send.pk,
                         self.contents[i], i, t if t is not None else self.now, EP)

    def test_round_trip(self):
        r = self.attest(i=3)
        assert r.epoch == 10
        assert at.verify_receipt(r, self.meta, self.now, EP)
        assert at.verify_receipt(r, None, self.now, EP)  # without meta binding

    def test_every_field_is_bound(self):
        r = self.attest(i=2)
        other_meta, _ = make_meta(name="other")
        mutations = [
            dataclasses.replace(r, infohash=other_meta.infohash),
            dataclasses.replace(r, sender_pk=self.recv.pk),
            dataclasses.replace(r, receiver_pk=self.send.pk),
            dataclasses.replace(r, piece_hash=self.meta.piece_hashes[3]),
            dataclasses.replace(r, index=3),
            dataclasses.replace(r, epoch=r.epoch - 1),
            dataclasses.replace(r, sig=b"\x00" * 96),
        ]
        for bad in mutations:
            assert not at.verify_receipt(bad, self.meta, self.now, EP), bad

    def test_mixed_population(self):
        """A shuffled pile of valid and tampered receipts sorts perfectly."""
        rng = random.Random(31)
        pile = []
        for i in range(50):
            pile.append((self.attest(i=i % 8), True))
        fields = ("index", "epoch", "sig", "piece_hash")
        for i in range(150):
            r = self.attest(i=i % 8)
            which = fields[i % 4]
            if which == "index":
                bad = dataclasses.replace(r, index=(r.index + 1) % 8)
            elif which == "epoch":
                bad = dataclasses.replace(r, epoch=r.epoch + rng.choice([-1, 1]))
            elif which == "sig":
                sig = bytearray(r.sig)
                sig[rng.randrange(96)] ^= rng.randint(1, 255)
                bad = dataclasses.replace(r, sig=bytes(sig))
            else:
                bad = dataclasses.replace(r, piece_hash=sc.hash_data(b"?%d" % i))
            pile.append((bad, False))
        rng.shuffle(pile)
        for r, expect in pile:
            assert at.verify_receipt(r, self.meta, self.now, EP) == expect

    def test_expiry(self):
        r = self.attest()
        ok_until = self.now + EP.delta * EP.window
        assert at.verify_receipt(r, self.meta, ok_until, EP)
        assert not at.verify_receipt(r, self.meta, ok_until + EP.window, EP)

    def test_future_receipt_rejected(self):
        r = self.attest(t=self.now + EP.window)
        assert not at.verify_receipt(r, self.meta, self.now, EP)

    def test_wrong_meta_rejected(self):
        r = self.attest()
        other, _ = make_meta(name="other")
        assert not at.verify_receipt(r, other, self.now, EP)
        # the same pieces under another name: only the infohash tells them apart
        twin = at.make_torrent("twin", self.meta.piece_hashes, self.meta.piece_size,
                               self.meta.length)
        assert not at.verify_receipt(r, twin, self.now, EP)

    def test_piece_ids_distinguish(self):
        def ids(r):
            return at.piece_ids(r.infohash, r.sender_pk, r.receiver_pk, r.pieces, r.epoch)

        a = self.attest(i=0)
        b = self.attest(i=1)
        assert ids(a) != ids(b)
        assert ids(a) == ids(self.attest(i=0))
        assert ids(a) == [(a.infohash, a.sender_pk, a.receiver_pk, 0, a.piece_hash, a.epoch)]

    def test_per_piece_message_is_the_one_leaf_batch_message(self):
        h = self.meta.piece_hashes[2]
        msg = at.receipt_msg(self.meta.infohash, self.send.pk, h, 2, 10)
        assert msg == at.pieces_msg(self.meta.infohash, self.send.pk, ((2, h),), 10)
        fields = sc.canonical_decode(msg)
        assert fields[0] == (sc.TAG_ATOM, b"batch-receipt")
        assert fields[3] == (sc.TAG_DIGEST, at._merkle_leaf(2, h))

    def test_one_piece_attest_and_batch_attest_sign_alike(self):
        r = self.attest(i=3)
        br = at.batch_attest(self.recv, self.meta.infohash, self.send.pk,
                             {3: self.contents[3]}, self.now, EP)

        def msg(x):
            return at.signed_msg(x.infohash, x.sender_pk, x.pieces, x.epoch, self.meta)

        assert msg(r) == msg(br) is not None
        assert r.sig == br.sig
        assert r.pieces == br.pieces == ((3, self.meta.piece_hashes[3]),)
        assert at.piece_ids(r.infohash, r.sender_pk, r.receiver_pk, r.pieces, r.epoch) == \
            at.piece_ids(br.infohash, br.sender_pk, br.receiver_pk, br.pieces, br.epoch)
        # so a report carries either one as the same record
        assert tr.build_report(b"s", self.send.pk, self.meta, [(r, b"r")]) == \
            tr.build_report(b"s", self.send.pk, self.meta, [(br, b"r")])

    def test_signed_message_atoms_are_distinct(self):
        """Every signed message opens with its own atom, so none can be
        replayed as another."""
        ih, pk, h = self.meta.infohash, self.send.pk, self.meta.piece_hashes[0]
        cert, skp = at.open_session(self.recv, ih, pk, self.now, EP)
        sr = at.session_attest(skp.sk, cert, self.contents[0], 0, self.now, EP)
        msgs = [
            at.receipt_msg(ih, pk, h, 0, 10),
            at.cert_msg(ih, pk, cert.session_pk, cert.epoch),
            at.session_receipt_msg(ih, pk, sr.piece_hash, 0, sr.epoch),
            tr.register_msg(b"iid", b"uid"),
            tr.announce_msg(b"uid", ih, "started"),
            dht.announce_record_msg(ih, pk, "10.0.0.1", 6881),
            ct.init_payload(b"iid", None, pk),
            ct.write_payload(b"addr", [(b"uid", pk, 1, 2)]),
            encl._quote_msg(h, b"nonce"),
        ]
        heads = [sc.canonical_decode(m)[0] for m in msgs]
        assert all(tag == sc.TAG_ATOM for tag, _ in heads)
        assert len({atom for _, atom in heads}) == len(msgs)


class TestAdaptiveCoverage:
    @staticmethod
    def covered(n, head, stride, tail):
        pol = at.AdaptivePolicy(head, stride, tail)
        return [i for i in range(n) if pol.covers(i, n)]

    def test_reference_count_is_frozen(self):
        idx = self.covered(2560, 100, 10, 100)
        # 100 head + 100 tail + ceil(2360 / 10) interior samples
        assert len(idx) == 100 + 100 + 236 == 436

    @given(st.integers(1, 4000), st.integers(1, 50), st.integers(1, 20), st.integers(1, 50))
    @settings(max_examples=300)
    def test_formula(self, n, head, stride, tail):
        idx = self.covered(n, head, stride, tail)
        assert idx == sorted(set(idx))
        assert all(0 <= i < n for i in idx)
        covered = head + tail
        if n <= covered:
            expect = n
        else:
            expect = covered + -(-(n - covered) // stride)
        assert len(idx) == expect
        assert len(idx) == at.AdaptivePolicy(head, stride, tail).signatures(n)

    def test_head_and_tail_always_covered(self):
        idx = set(self.covered(1000, 5, 7, 5))
        assert {0, 1, 2, 3, 4} <= idx
        assert {995, 996, 997, 998, 999} <= idx


def _ref_merkle(leaves):
    """Independent reference: same promote-last-odd rule, built from scratch
    with hashlib only."""
    def node(a, b):
        blob = (b"\x00\x00\x00\x02"
                + b"\x03\x00\x00\x00\x20" + a
                + b"\x03\x00\x00\x00\x20" + b)
        return hashlib.sha256(blob).digest()
    level = list(leaves)
    while len(level) > 1:
        nxt = [node(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


class TestMerkle:
    def test_three_leaf_frozen(self):
        hashes = [hashlib.sha256(b"piece-%d" % i).digest() for i in range(3)]
        leaves = [at._merkle_leaf(i, h) for i, h in enumerate(hashes)]
        root = at.merkle_root(leaves)
        assert root == _ref_merkle(leaves)
        assert root.hex() == "a90e0cc7fa5680bdcdb3201e52484ce6c0a03e3bfc182b1bfee4ec3761efd0f2"

    def test_single_leaf_is_root(self):
        leaf = at._merkle_leaf(0, sc.hash_data(b"only"))
        assert at.merkle_root([leaf]) == leaf

    @given(st.integers(1, 33))
    @settings(max_examples=60)
    def test_matches_reference(self, n):
        leaves = [at._merkle_leaf(i, sc.hash_data(b"%d" % i)) for i in range(n)]
        assert at.merkle_root(leaves) == _ref_merkle(leaves)

    def test_leaf_binds_position(self):
        h = sc.hash_data(b"same")
        assert at._merkle_leaf(0, h) != at._merkle_leaf(1, h)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            at.merkle_root([])


# a batch signature recorded before per-piece receipts became batches of one;
# the batch message did not change
GOLDEN_BATCH_SIG = (
    "809667c8096d79b73074261b60f5a2281bfb22ea2bd67f442e8d37d321180e176d8262fa77a7532569cef3598edf766708"
    "b60a37b6cbb5365b0d2f5862362d099ce446b6e47186517f74cc43e644f4961413a01a8dca6cad3ccdadb029c8468a")


class TestBatchReceipts:
    def setup_method(self):
        self.recv = sc.keygen(b"\x23" * 32)
        self.send = sc.keygen(b"\x24" * 32)
        self.meta, self.contents = make_meta(n=10)
        self.now = 7 * EP.window

    def test_round_trip(self):
        pieces = {i: self.contents[i] for i in (1, 4, 7)}
        br = at.batch_attest(self.recv, self.meta.infohash, self.send.pk, pieces, self.now, EP)
        assert br.indices == (1, 4, 7)
        assert at.verify_receipt(br, self.meta, self.now, EP)
        assert at.verify_receipt(br, None, self.now, EP)

    def test_tamper_rejected(self):
        pieces = {i: self.contents[i] for i in range(4)}
        br = at.batch_attest(self.recv, self.meta.infohash, self.send.pk, pieces, self.now, EP)
        cases = [
            dataclasses.replace(br, indices=(0, 1, 2, 4)),
            dataclasses.replace(br, piece_hashes=br.piece_hashes[:3] + (sc.hash_data(b"?"),)),
            dataclasses.replace(br, epoch=br.epoch + 1),
            dataclasses.replace(br, indices=(0, 1, 2)),              # length mismatch
            dataclasses.replace(br, indices=(0, 1, 2, 2)),           # duplicate
            dataclasses.replace(br, indices=(0, 2, 1, 3)),           # unsorted
            dataclasses.replace(br, sender_pk=self.recv.pk),
        ]
        for bad in cases:
            assert not at.verify_receipt(bad, self.meta, self.now, EP)

    def test_subset_claim_fails(self):
        # dropping one piece changes the root, so partial claims don't verify
        pieces = {i: self.contents[i] for i in range(4)}
        br = at.batch_attest(self.recv, self.meta.infohash, self.send.pk, pieces, self.now, EP)
        sub = dataclasses.replace(br, indices=br.indices[:3], piece_hashes=br.piece_hashes[:3])
        assert not at.verify_receipt(sub, self.meta, self.now, EP)

    def test_recorded_batch_signature_still_verifies(self):
        pieces = {i: self.contents[i] for i in (1, 4, 7)}
        br = at.batch_attest(self.recv, self.meta.infohash, self.send.pk, pieces, self.now, EP)
        assert br.sig.hex() == GOLDEN_BATCH_SIG
        assert at.verify_receipt(dataclasses.replace(br, sig=bytes.fromhex(GOLDEN_BATCH_SIG)),
                                 self.meta, self.now, EP)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            at.batch_attest(self.recv, self.meta.infohash, self.send.pk, {}, self.now, EP)


class TestSessions:
    def setup_method(self):
        self.recv = sc.keygen(b"\x25" * 32)
        self.send = sc.keygen(b"\x26" * 32)
        self.meta, self.contents = make_meta(n=6)
        self.now = 4 * EP.window + 9

    def report(self, cert, srs, reporter=None):
        """A one-session report of *cert* and *srs* by *reporter* (the
        sender by default)."""
        return tr.build_session_report(b"s", (reporter or self.send).pk, self.meta,
                                       [(cert, b"r", srs)])

    def test_cert_and_receipts(self):
        cert, skp = at.open_session(self.recv, self.meta.infohash, self.send.pk, self.now, EP)
        srs = [at.session_attest(skp.sk, cert, self.contents[i], i, self.now, EP)
               for i in range(6)]
        for sr in srs:
            assert at.verify_session_receipt(cert, sr, self.meta, self.now, EP)
        assert tr.signatures_hold(self.report(cert, srs), self.meta)

    def test_reopen_same_epoch_reuses_key(self):
        c1, k1 = at.open_session(self.recv, self.meta.infohash, self.send.pk, self.now, EP)
        c2, k2 = at.open_session(self.recv, self.meta.infohash, self.send.pk, self.now + 1, EP)
        assert c1 == c2 and k1 == k2
        c3, k3 = at.open_session(
            self.recv, self.meta.infohash, self.send.pk, self.now + EP.window, EP)
        assert k3 != k1 and c3.epoch == c1.epoch + 1

    def test_cert_binds_participants(self):
        cert, skp = at.open_session(self.recv, self.meta.infohash, self.send.pk, self.now, EP)
        sr = at.session_attest(skp.sk, cert, self.contents[0], 0, self.now, EP)
        honest = self.report(cert, [sr])
        assert tr.signatures_hold(honest, self.meta)
        other = sc.keygen(b"\x27" * 32)
        other_session_pk = sc.session_keygen(b"\x28" * 32).pk
        (uid, pk, session_pk, epoch, srs), = honest.sessions
        swapped = [
            dataclasses.replace(honest, pk=other.pk),  # sender
            dataclasses.replace(honest, sessions=((uid, other.pk, session_pk, epoch, srs),)),
            dataclasses.replace(honest, sessions=((uid, pk, other_session_pk, epoch, srs),)),
        ]
        for bad in swapped:
            assert not tr.signatures_hold(bad, self.meta)

    def test_receipt_not_valid_under_other_session(self):
        cert, skp = at.open_session(self.recv, self.meta.infohash, self.send.pk, self.now, EP)
        other_send = sc.keygen(b"\x29" * 32)
        cert2, skp2 = at.open_session(self.recv, self.meta.infohash, other_send.pk, self.now, EP)
        sr = at.session_attest(skp.sk, cert, self.contents[0], 0, self.now, EP)
        assert tr.signatures_hold(
            self.report(cert2, [at.session_attest(skp2.sk, cert2, self.contents[0], 0,
                                                  self.now, EP)], other_send), self.meta)
        assert not tr.signatures_hold(self.report(cert2, [sr], other_send), self.meta)

    def test_session_receipt_meta_binding(self):
        cert, skp = at.open_session(self.recv, self.meta.infohash, self.send.pk, self.now, EP)
        sr = at.session_attest(skp.sk, cert, self.contents[2], 2, self.now, EP)
        bad_idx = dataclasses.replace(sr, index=3)
        assert not at.verify_session_receipt(cert, bad_idx, self.meta, self.now, EP)
        stale = dataclasses.replace(sr, epoch=sr.epoch - EP.delta - 1)
        assert not at.verify_session_receipt(cert, stale, self.meta, self.now, EP)

    def test_aggregated_certs(self):
        senders = [sc.keygen(bytes([0x30 + i]) * 32) for i in range(3)]
        certs = [at.open_session(self.recv, self.meta.infohash, s.pk, self.now, EP)[0]
                 for s in senders]
        agg = sc.aggregate(c.sig for c in certs)

        def pairs(cs):
            return [(c.receiver_pk, at.cert_msg(c.infohash, c.sender_pk, c.session_pk, c.epoch))
                    for c in cs]

        assert sc.aggregate_verify(pairs(certs), agg)
        # swap one cert for an unaggregated one
        impostor, _ = at.open_session(
            sc.keygen(b"\x3f" * 32), self.meta.infohash, senders[0].pk, self.now, EP)
        assert not sc.aggregate_verify(pairs([impostor] + certs[1:]), agg)
        # the signed message binds the cert's epoch
        moved = dataclasses.replace(certs[1], epoch=certs[1].epoch + 1)
        assert not sc.aggregate_verify(pairs([certs[0], moved, certs[2]]), agg)


class TestPolicies:
    @pytest.mark.parametrize("policy,n,expect", [
        (at.PerPiecePolicy(), 2560, 2560),
        (at.AdaptivePolicy(), 2560, 436),
        (at.BatchPolicy(k=10), 2560, 256),
        (at.BatchPolicy(k=16), 100, 7),
        (at.SessionPolicy(), 2560, 2560),
        (at.NullPolicy(), 2560, 0),
        (at.AdaptivePolicy(), 150, 150),   # short torrent: full coverage
        (at.PerPiecePolicy(), 0, 0),
    ])
    def test_signature_counts(self, policy, n, expect):
        assert policy.signatures(n) == expect

    @pytest.mark.parametrize("policy", [
        at.PerPiecePolicy(), at.AdaptivePolicy(), at.BatchPolicy(), at.SessionPolicy(),
        at.NullPolicy(),
    ])
    def test_negative_piece_count_rejected(self, policy):
        with pytest.raises(ValueError):
            policy.signatures(-1)

    @pytest.mark.parametrize("policy,covered", [
        (at.PerPiecePolicy(), [0, 1, 2, 3, 4, 5, 6]),
        (at.AdaptivePolicy(head=1, stride=3, tail=1), [0, 1, 4, 6]),
        (at.BatchPolicy(k=3), [0, 1, 2, 3, 4, 5, 6]),
        (at.SessionPolicy(), [0, 1, 2, 3, 4, 5, 6]),
        (at.NullPolicy(), []),
    ])
    def test_coverage(self, policy, covered):
        assert [i for i in range(7) if policy.covers(i, 7)] == covered

    def test_only_session_signs_with_the_session_scheme(self):
        assert at.SessionPolicy().session
        for pol in (at.PerPiecePolicy(), at.AdaptivePolicy(), at.BatchPolicy(),
                    at.NullPolicy()):
            assert not pol.session

    @pytest.mark.parametrize("policy", [
        at.PerPiecePolicy(),
        at.AdaptivePolicy(head=7, stride=3, tail=9),
        at.BatchPolicy(k=5),
        at.SessionPolicy(),
        at.NullPolicy(),
    ])
    def test_json_round_trip(self, policy):
        assert at.policy_from_json(at.policy_to_json(policy)) == policy

    def test_json_form(self):
        assert at.policy_to_json(at.AdaptivePolicy(head=7, stride=3, tail=9)) == {
            "policy": "adaptive", "head": 7, "stride": 3, "tail": 9}
        assert at.policy_to_json(at.BatchPolicy(k=5)) == {"policy": "batch", "k": 5}
        assert at.policy_to_json(at.NullPolicy()) == {"policy": "null"}

    def test_omitted_fields_take_defaults(self):
        assert at.policy_from_json({"policy": "batch"}) == at.BatchPolicy()
        assert at.policy_from_json({"policy": "adaptive", "stride": 4}) == \
            at.AdaptivePolicy(stride=4)

    def test_unknown_policy_name(self):
        with pytest.raises(ValueError):
            at.policy_from_json({"policy": "mystery"})

    @pytest.mark.parametrize("doc", [
        {"policy": "batch", "K": 4},
        {"policy": "adaptive", "head": 1, "strides": 2},
        {"policy": "per-piece", "k": 16},
    ])
    def test_unknown_policy_fields_rejected(self, doc):
        with pytest.raises(ValueError):
            at.policy_from_json(doc)

    @pytest.mark.parametrize("make", [
        lambda: at.BatchPolicy(k=0),
        lambda: at.AdaptivePolicy(stride=0),
        lambda: at.AdaptivePolicy(head=-1),
        lambda: at.AdaptivePolicy(tail=-1),
        lambda: at.policy_from_json({"policy": "batch", "k": 0}),
    ])
    def test_bad_parameters_rejected_at_construction(self, make):
        with pytest.raises(ValueError):
            make()
