"""Attested tracker state machine: registration, announces, reports, and
migration between instances."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from pbts import attestation as at
from pbts import contract as ct
from pbts import enclave as encl
from pbts import sigcrypto as sc
from pbts import tracker as tr

PROG, CFG = b"tracker-prog", b"cfg"
W = at.DEFAULT_EPOCH_WINDOW
NOW = 6 * W + 30


def test_setup_params():
    pp = tr.setup(128, Fraction(1, 2), 500, random.Random(0))
    assert len(pp.iid) == 16 and pp.init_credit == 500
    assert tr.setup(256, Fraction(1, 2), 0, random.Random(0)).lam == 256
    with pytest.raises(ValueError):
        tr.setup(100, Fraction(1, 2), 0, random.Random(0))


def test_rep_ratio():
    assert tr.rep(0, 0) == math.inf
    assert tr.rep(100, 0) == math.inf
    assert tr.rep(3, 4) == Fraction(3, 4)
    assert tr.rep(10, 0) > Fraction(10**9, 1)  # seeds always clear the gate


class Env:
    def __init__(self, min_rep=Fraction(1, 2), init_credit=4096, users=4, epoch=None,
                 chain_path=None):
        self.world = encl.world_new(seed=55)
        self.world.allowlist.add(encl.measure(PROG, CFG))
        self.chain = ct.chain_new(self.world.allowlist, self.world.hw_root_pk, chain_path)
        self.pp = tr.setup(128, min_rep, init_credit, random.Random(9))
        self.t = tr.Tracker.launch(self.world, self.chain, self.pp, PROG, CFG, epoch=epoch)
        assert self.t is not None
        self.users = []
        for _ in range(users):
            self.join()
        self.contents = [sc.hash_data(b"tracker-piece-%d" % i) for i in range(12)]
        self.meta = at.make_torrent(
            "swarm", [sc.hash_data(c) for c in self.contents], 700, length=700 * 12 - 30)
        self.t.add_torrent(self.meta)

    def join(self):
        """Register the next user, u<i>."""
        i = len(self.users)
        kp = sc.keygen(bytes([0x40 + i]) * 32)
        uid = b"u%d" % i
        assert self.t.register(uid, kp.pk, self.reg_sig(kp, uid))
        self.users.append((uid, kp))

    def reg_sig(self, kp, uid):
        return sc.sign(kp.sk, tr.register_msg(self.pp.iid, uid))

    def ann_sig(self, kp, uid, event):
        return sc.sign(kp.sk, tr.announce_msg(uid, self.meta.infohash, event))

    def receipt(self, recv_i, send_i, piece, t=NOW):
        uid_r, kp_r = self.users[recv_i]
        _, kp_s = self.users[send_i]
        return at.attest(kp_r, self.meta.infohash, kp_s.pk,
                         self.contents[piece], piece, t, self.t.epoch)

    def report_for(self, send_i, entries, t=NOW):
        uid_s, kp_s = self.users[send_i]
        return tr.build_report(uid_s, kp_s.pk, self.meta, entries, self.t.epoch)


@pytest.fixture()
def env():
    return Env()


def test_launch_requires_allowlisted_measurement():
    world = encl.world_new(seed=56)  # empty allowlist
    chain = ct.chain_new(world.allowlist, world.hw_root_pk)
    pp = tr.setup(128, Fraction(1, 2), 0, random.Random(1))
    assert tr.Tracker.launch(world, chain, pp, PROG, CFG) is None


class TestRegister:
    def test_initial_credit(self, env):
        uid, _ = env.users[0]
        rec = ct.sc_read(env.chain, env.t.addr, uid)
        assert (rec.up, rec.down) == (4096, 0)

    def test_duplicate_uid_rejected(self, env):
        _, kp = env.users[0]
        kp2 = sc.keygen(b"\x4f" * 32)
        assert not env.t.register(b"u0", kp2.pk, env.reg_sig(kp2, b"u0"))

    def test_signature_must_match_key_and_uid(self, env):
        kp = sc.keygen(b"\x4e" * 32)
        wrong_uid = env.reg_sig(kp, b"someone-else")
        assert not env.t.register(b"fresh", kp.pk, wrong_uid)
        other = sc.keygen(b"\x4d" * 32)
        assert not env.t.register(b"fresh", kp.pk, env.reg_sig(other, b"fresh"))
        assert env.t.register(b"fresh", kp.pk, env.reg_sig(kp, b"fresh"))


class TestAnnounce:
    def test_join_and_view(self, env):
        pks = []
        for uid, kp in env.users[:3]:
            sample = env.t.announce(uid, kp.pk, env.ann_sig(kp, uid, "started"),
                                    env.meta.infohash, "started", "1.2.3.4", 100)
            # each joiner sees exactly the peers already in the swarm
            assert {pk for pk, _, _ in sample} == set(pks)
            pks.append(kp.pk)

    def test_stopped_removes(self, env):
        for uid, kp in env.users[:3]:
            env.t.announce(uid, kp.pk, env.ann_sig(kp, uid, "started"),
                           env.meta.infohash, "started", "1.2.3.4", 100)
        uid0, kp0 = env.users[0]
        env.t.announce(uid0, kp0.pk, env.ann_sig(kp0, uid0, "stopped"),
                       env.meta.infohash, "stopped", "1.2.3.4", 100)
        uid3, kp3 = env.users[3]
        sample = env.t.announce(uid3, kp3.pk, env.ann_sig(kp3, uid3, "started"),
                                env.meta.infohash, "started", "1.2.3.4", 103)
        pks = {pk for pk, _, _ in sample}
        assert kp0.pk not in pks and len(pks) == 2

    def test_low_rep_blocked_from_started_only(self):
        e = Env(min_rep=Fraction(2, 1), init_credit=100)
        uid, kp = e.users[0]
        # drive u0's ratio below the threshold: down credit without uploads
        rec = ct.sc_read(e.chain, e.t.addr, uid)
        e.t._write(uid, kp.pk, rec.up, rec.up)  # ratio exactly 1 < 2
        assert e.t.announce(uid, kp.pk, e.ann_sig(kp, uid, "started"),
                            e.meta.infohash, "started", "ip", 1) == []
        assert kp.pk not in e.t.swarms.get(e.meta.infohash, {})
        # leaving and finishing stay possible — the gate is on joining
        e.t.announce(uid, kp.pk, e.ann_sig(kp, uid, "completed"),
                     e.meta.infohash, "completed", "ip", 1)
        assert kp.pk in e.t.swarms[e.meta.infohash]

    def test_bad_signature_or_unknown_user(self, env):
        uid, kp = env.users[0]
        assert env.t.announce(uid, kp.pk, b"\x00" * 96, env.meta.infohash,
                              "started", "ip", 1) == []
        ghost = sc.keygen(b"\x4c" * 32)
        assert env.t.announce(b"ghost", ghost.pk, env.ann_sig(ghost, b"ghost", "started"),
                              env.meta.infohash, "started", "ip", 1) == []
        # registered uid with someone else's key
        _, kp1 = env.users[1]
        assert env.t.announce(uid, kp1.pk, env.ann_sig(kp1, uid, "started"),
                              env.meta.infohash, "started", "ip", 1) == []

    def test_unknown_event(self, env):
        uid, kp = env.users[0]
        assert env.t.announce(uid, kp.pk, env.ann_sig(kp, uid, "started"),
                              env.meta.infohash, "scrape", "ip", 1) == []

    def test_sample_respects_cap(self, monkeypatch):
        e = Env(users=8)
        monkeypatch.setattr(tr, "DEFAULT_SAMPLE_CAP", 3)
        for uid, kp in e.users[:7]:
            e.t.announce(uid, kp.pk, e.ann_sig(kp, uid, "started"),
                         e.meta.infohash, "started", "ip", 1)
        uid, kp = e.users[7]
        sample = e.t.announce(uid, kp.pk, e.ann_sig(kp, uid, "started"),
                              e.meta.infohash, "started", "ip", 1)
        assert len(sample) == 3
        assert kp.pk not in {pk for pk, _, _ in sample}


# a register or announce field of the wrong type or range: the fields it
# changes in a well-formed request
MALFORMED_PEER_INPUT = {
    "register_uid_none": ("register", lambda a: {"uid": None}),
    "register_uid_list": ("register", lambda a: {"uid": [1]}),
    "register_pk_none": ("register", lambda a: {"pk": None}),
    "register_sig_none": ("register", lambda a: {"sig": None}),
    "announce_uid_list": ("announce", lambda a: {"uid": [1]}),
    "announce_pk_bytearray": ("announce", lambda a: {"pk": bytearray(a["pk"])}),
    "announce_tid_none": ("announce", lambda a: {"tid": None}),
    "announce_tid_list": ("announce", lambda a: {"tid": [1]}),
    "announce_sig_none": ("announce", lambda a: {"sig": None}),
    "announce_ip_int_port_str": ("announce", lambda a: {"ip": 5, "port": "x"}),
    "announce_port_zero": ("announce", lambda a: {"port": 0}),
    "announce_port_past_65535": ("announce", lambda a: {"port": 1 << 16}),
    "announce_port_bool": ("announce", lambda a: {"port": True}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PEER_INPUT))
def test_malformed_peer_input_refused(env, case):
    call, change = MALFORMED_PEER_INPUT[case]
    if call == "register":
        kp = sc.keygen(b"\x4b" * 32)
        args = dict(uid=b"fresh", pk=kp.pk, sig=env.reg_sig(kp, b"fresh"))
    else:
        uid, kp = env.users[0]
        args = dict(uid=uid, pk=kp.pk, sig=env.ann_sig(kp, uid, "started"),
                    tid=env.meta.infohash, event="started", ip="1.2.3.4", port=100)
    digest, swarms = ct.state_digest(env.chain), dict(env.t.swarms)
    assert getattr(env.t, call)(**{**args, **change(args)}) == ([] if call == "announce" else False)
    assert ct.state_digest(env.chain) == digest and env.t.swarms == swarms
    # the same request, well formed, is accepted
    assert getattr(env.t, call)(**args) or kp.pk in env.t.swarms[env.meta.infohash]


@pytest.mark.parametrize("record", [
    (b"u9", b"pk", -1, 0), (b"u9", b"pk", 0, -5), (b"u9", b"pk", 1 << 64, 0),
    (b"u9", "not-bytes", 1, 0), ("u9", b"pk", 1, 0), (b"u9", b"pk", "700", 0),
    (b"u9", b"pk", 700.0, 0), (b"u9", b"pk", True, 0), (b"u9", b"pk", 1)])
def test_write_refuses_a_record_no_payload_carries(env, record):
    # the whole write, the well-formed first record included
    uid, kp = env.users[0]
    digest = ct.state_digest(env.chain)
    assert not env.t._write(uid, kp.pk, 1, 1, record)
    assert ct.state_digest(env.chain) == digest


class TestReport:
    def test_happy_path_credits_both_sides(self, env):
        r = env.receipt(recv_i=1, send_i=0, piece=2)
        payload = env.report_for(0, [(r, b"u1")])
        assert env.t.report(payload, NOW)
        up0 = ct.sc_read(env.chain, env.t.addr, b"u0")
        down1 = ct.sc_read(env.chain, env.t.addr, b"u1")
        assert up0.up == 4096 + 700 and down1.down == 700

    def test_partial_last_piece_credits_true_bytes(self, env):
        r = env.receipt(recv_i=1, send_i=0, piece=11)
        assert env.t.report(env.report_for(0, [(r, b"u1")]), NOW)
        assert ct.sc_read(env.chain, env.t.addr, b"u0").up == 4096 + 670

    def test_rejections_leave_state_untouched(self, env):
        digest = ct.state_digest(env.chain)
        r1 = env.receipt(1, 0, 2)
        r2 = env.receipt(2, 0, 3)

        payload = env.report_for(0, [(r1, b"u1"), (r2, b"u2")])
        bad_delta = dataclasses.replace(payload, delta_up=payload.delta_up + 1)
        assert not env.t.report(bad_delta, NOW)

        bad_agg = dataclasses.replace(
            payload, agg_sig=sc.AggregateSignature(b"\x11" * 96, 2))
        assert not env.t.report(bad_agg, NOW)

        dup = env.report_for(0, [(r1, b"u1"), (r1, b"u1")])
        assert not env.t.report(dup, NOW)

        wrong_uid = env.report_for(0, [(r1, b"u3")])  # pk/uid cross-check
        assert not env.t.report(wrong_uid, NOW)

        other_meta = at.make_torrent("other", [sc.hash_data(b"q")], 700)
        foreign = tr.ReportPayload(  # torrent the tracker never indexed
            uid=b"u0", pk=env.users[0][1].pk, infohash=other_meta.infohash,
            receipts=((b"u1", r1.receiver_pk, r1.epoch, r1.pieces),),
            agg_sig=sc.aggregate([r1.sig]), delta_up=700)
        assert not env.t.report(foreign, NOW)

        stale = env.report_for(0, [(env.receipt(1, 0, 4, t=NOW - 3 * W), b"u1")])
        assert not env.t.report(stale, NOW)

        assert ct.state_digest(env.chain) == digest

    def test_empty_report_rejected(self, env):
        payload = tr.ReportPayload(
            uid=b"u0", pk=env.users[0][1].pk, infohash=env.meta.infohash, receipts=(),
            agg_sig=sc.AggregateSignature(b"\x00" * 96, 0), delta_up=0)
        assert not env.t.report(payload, NOW)

    def test_self_receipt_rejected(self, env):
        uid0, kp0 = env.users[0]
        r = at.attest(kp0, env.meta.infohash, kp0.pk, env.contents[0], 0, NOW, env.t.epoch)
        payload = env.report_for(0, [(r, uid0)])
        assert not env.t.report(payload, NOW)

    def test_duplicate_across_reports_rejected(self, env):
        r = env.receipt(1, 0, 5)
        assert env.t.report(env.report_for(0, [(r, b"u1")]), NOW)
        before = ct.sc_read(env.chain, env.t.addr, b"u1").down
        assert not env.t.report(env.report_for(0, [(r, b"u1")]), NOW)
        assert ct.sc_read(env.chain, env.t.addr, b"u1").down == before

    def test_expired_receipt_rejected_even_after_gc(self, env):
        r = env.receipt(1, 0, 6)
        assert env.t.report(env.report_for(0, [(r, b"u1")]), NOW)
        [rid] = at.piece_ids(r.infohash, r.sender_pk, r.receiver_pk, r.pieces, r.epoch)
        assert rid in env.t.recent
        later = NOW + (env.t.epoch.delta + 2) * W
        env.t.gc_recent(later)
        assert rid not in env.t.recent
        assert not env.t.report(env.report_for(0, [(r, b"u1")]), later)

    def test_reporter_download_unchanged(self, env):
        # a report credits the reporter's upload only; its download grows
        # through other peers' receipts
        uid0, kp0 = env.users[0]
        before = ct.sc_read(env.chain, env.t.addr, uid0)
        assert env.t._write(uid0, kp0.pk, before.up, 350)
        assert env.t.report(env.report_for(0, [(env.receipt(1, 0, 8), b"u1")]), NOW)
        rec = ct.sc_read(env.chain, env.t.addr, uid0)
        assert (rec.up, rec.down) == (before.up + 700, 350)


class TestGc:
    def test_boundaries(self):
        e = Env(epoch=at.EpochParams(window=100, delta=2))
        t1 = 500  # epoch 5
        r = e.receipt(1, 0, 0, t=t1)
        assert e.t.report(e.report_for(0, [(r, b"u1")], t=t1), t1)
        rid = next(iter(e.t.recent))
        # retained through epoch insertion+delta+1; gone one epoch later
        assert e.t.gc_recent((5 + 3) * 100) == 0
        assert rid in e.t.recent
        assert e.t.gc_recent((5 + 4) * 100) == 1
        assert rid not in e.t.recent


class TestSessionReport:
    def test_happy_path(self, env):
        uid1, kp1 = env.users[1]
        uid0, kp0 = env.users[0]
        cert, skp = at.open_session(kp1, env.meta.infohash, kp0.pk, NOW, env.t.epoch)
        srs = [at.session_attest(skp.sk, cert, env.contents[i], i, NOW, env.t.epoch)
               for i in range(3)]
        payload = tr.build_session_report(uid0, kp0.pk, env.meta, [(cert, uid1, srs)])
        assert env.t.report_session(payload, NOW)
        assert ct.sc_read(env.chain, env.t.addr, uid0).up == 4096 + 3 * 700
        # replaying any subset of the same session items is dead
        payload2 = tr.build_session_report(uid0, kp0.pk, env.meta, [(cert, uid1, srs[:1])])
        assert not env.t.report_session(payload2, NOW)

    def test_session_messages_are_built_after_the_cheap_checks(self, env, monkeypatch):
        uid1, kp1 = env.users[1]
        uid0, kp0 = env.users[0]
        cert, skp = at.open_session(kp1, env.meta.infohash, kp0.pk, NOW, env.t.epoch)
        srs = [at.session_attest(skp.sk, cert, env.contents[i], i, NOW, env.t.epoch)
               for i in range(3)]
        payload = tr.build_session_report(uid0, kp0.pk, env.meta, [(cert, uid1, srs)])
        built, msg = [], at.session_receipt_msg
        monkeypatch.setattr(at, "session_receipt_msg", lambda *a: built.append(a) or msg(*a))
        assert not env.t.report(dataclasses.replace(payload, delta_up=payload.delta_up + 1), NOW)
        doubled = sc.aggregate([cert.sig, cert.sig])
        assert not env.t.report(dataclasses.replace(payload, agg_sig=doubled), NOW)
        assert built == []
        assert env.t.report(payload, NOW)
        assert len(built) == 3

    def test_cert_sender_mismatch(self, env):
        uid1, kp1 = env.users[1]
        uid0, kp0 = env.users[0]
        _, kp2 = env.users[2]
        cert, skp = at.open_session(kp1, env.meta.infohash, kp2.pk, NOW, env.t.epoch)
        sr = at.session_attest(skp.sk, cert, env.contents[0], 0, NOW, env.t.epoch)
        # u1 certified a session with u2; u0 reports it as its own
        payload = tr.SessionReportPayload(
            uid=uid0, pk=kp0.pk, infohash=env.meta.infohash,
            sessions=((uid1, kp1.pk, cert.session_pk, cert.epoch, (sr,)),),
            agg_sig=sc.aggregate([cert.sig]), delta_up=700)
        assert not env.t.report_session(payload, NOW)


class TestBatchReport:
    def test_happy_path(self, env):
        uid1, kp1 = env.users[1]
        uid0, kp0 = env.users[0]
        br = at.batch_attest(kp1, env.meta.infohash, kp0.pk,
                             {i: env.contents[i] for i in range(4)}, NOW, env.t.epoch)
        payload = tr.build_batch_report(uid0, kp0.pk, env.meta, [(br, uid1)])
        assert env.t.report_batch(payload, NOW)
        assert ct.sc_read(env.chain, env.t.addr, uid1).down == 4 * 700
        assert not env.t.report_batch(payload, NOW)  # dedup by piece

    def test_wrong_piece_hash_rejected(self, env):
        uid1, kp1 = env.users[1]
        uid0, kp0 = env.users[0]
        br = at.batch_attest(kp1, env.meta.infohash, kp0.pk,
                             {0: b"not the real content"}, NOW, env.t.epoch)
        payload = tr.build_batch_report(uid0, kp0.pk, env.meta, [(br, uid1)])
        digest = ct.state_digest(env.chain)
        assert not env.t.report_batch(payload, NOW)
        assert ct.state_digest(env.chain) == digest


class TestMigrate:
    def migrate(self, e):
        return tr.migrate(e.world, e.chain, e.t.addr, e.pp, PROG, CFG, epoch=e.t.epoch)

    def test_records_survive_one_hop(self, env):
        r = env.receipt(1, 0, 2)
        assert env.t.report(env.report_for(0, [(r, b"u1")]), NOW)
        old_addr = env.t.addr
        new = self.migrate(env)
        assert new is not None and new.addr != old_addr
        assert ct.get_referrer(env.chain, new.addr) == old_addr
        rec = ct.sc_read(env.chain, new.addr, b"u0")
        assert rec.up == 4096 + 700

    def test_reports_resolve_through_the_referrer(self, env):
        new = self.migrate(env)
        new.add_torrent(env.meta)
        r = env.receipt(1, 0, 3)
        payload = env.report_for(0, [(r, b"u1")])
        assert new.report(payload, NOW)
        assert ct.sc_read(env.chain, new.addr, b"u1").down == 700

    def test_two_migrations_back_unreachable(self, env):
        new1 = self.migrate(env)
        env.t = new1
        new2 = self.migrate(env)
        # u0 was written only at the original contract, two hops from new2
        assert ct.sc_read(env.chain, new1.addr, b"u0") is not None
        assert ct.sc_read(env.chain, new2.addr, b"u0") is None

    def test_unattested_world_cannot_migrate(self, env):
        stranger = encl.world_new(seed=777)
        assert tr.migrate(stranger, env.chain, env.t.addr, env.pp, PROG, CFG) is None

    @pytest.mark.parametrize("cause", ["unknown_referrer", "off_chain_allowlist", "foreign_world"])
    def test_refused_migration_changes_nothing(self, tmp_path, cause):
        """``sc_init`` is the one check of a migration, and it refuses
        before anything is written or logged."""
        path = tmp_path / "chain.log"
        env = Env(users=1, chain_path=str(path))
        world, cfg, ref = env.world, CFG, env.t.addr
        if cause == "unknown_referrer":
            ref = b"\x00" * 20
        elif cause == "off_chain_allowlist":  # the KMS releases a key, the chain refuses
            cfg = b"cfg-2"
            world.allowlist.add(encl.measure(PROG, cfg))
        else:  # allowlisted by its own hardware root, which the chain does not know
            world = encl.world_new(seed=777)
            world.allowlist.add(encl.measure(PROG, CFG))
        state, log = ct.serialize_state(env.chain), path.read_bytes()
        assert tr.migrate(world, env.chain, ref, env.pp, PROG, cfg) is None
        assert ct.serialize_state(env.chain) == state
        assert path.read_bytes() == log
        env.chain.close()


# ---------------------------------------------------------------------------
# the same refusals through every report kind

KINDS = ("report", "report_batch", "report_session")


def tx(recv_i, pieces, t=NOW, uid=None, garbled=False):
    """One transfer from u0 to user *recv_i*: the pieces it covers, when the
    downloader signed for it, the uid the report claims for the downloader,
    and whether the first piece was signed over the wrong content."""
    return recv_i, pieces, t, uid, garbled


HONEST = (tx(1, (2, 5)), tx(2, (3, 6)), tx(3, (4, 7)))


def make_report(env, kind, transfers=HONEST):
    """u0's report of *transfers* in the payload format of *kind*."""
    uid0, kp0 = env.users[0]
    ih, ep = env.meta.infohash, env.t.epoch
    entries = []
    for recv_i, pieces, t, uid, garbled in transfers:
        uid_r, kp_r = env.users[recv_i]
        content = {j: env.contents[j] for j in pieces}
        if garbled:
            content[pieces[0]] = b"not the real content"
        if kind == "report":
            entries += [(at.attest(kp_r, ih, kp0.pk, content[j], j, t, ep), uid or uid_r)
                        for j in pieces]
        elif kind == "report_batch":
            entries.append((at.batch_attest(kp_r, ih, kp0.pk, content, t, ep), uid or uid_r))
        else:
            cert, skp = at.open_session(kp_r, ih, kp0.pk, t, ep)
            srs = [at.session_attest(skp.sk, cert, content[j], j, t, ep) for j in pieces]
            entries.append((cert, uid or uid_r, srs))
    if kind == "report":
        return tr.build_report(uid0, kp0.pk, env.meta, entries, ep)
    if kind == "report_batch":
        return tr.build_batch_report(uid0, kp0.pk, env.meta, entries)
    return tr.build_session_report(uid0, kp0.pk, env.meta, entries)


def _replayed(env, kind):
    # the middle transfer was already credited by an earlier report
    assert getattr(env.t, kind)(make_report(env, kind, HONEST[1:2]), NOW)
    return make_report(env, kind)


def _with(**change):
    """The honest report with some fields replaced; a callable computes the
    new value from the honest payload."""
    def case(env, kind):
        p = make_report(env, kind)
        return dataclasses.replace(
            p, **{k: v(p) if callable(v) else v for k, v in change.items()})
    return case


def _records(edit):
    """The honest report with its records replaced by edit(records, i), i
    being the middle transfer's first record: the per-piece report's third
    receipt, the other kinds' second record.  A receipt's record is (uid,
    pk, epoch, pieces), a session's (uid, pk, session pk, epoch, receipts)."""
    def case(env, kind):
        p = make_report(env, kind)
        field = "sessions" if kind == "report_session" else "receipts"
        return dataclasses.replace(
            p, **{field: edit(list(getattr(p, field)), 2 if kind == "report" else 1)})
    return case


def _middle(edit):
    """The honest report with the middle transfer's first record replaced by
    edit(record)."""
    def records(rs, i):
        rs[i] = edit(rs[i])
        return tuple(rs)
    return _records(records)


def _epoch(epoch):
    """The honest report with the middle transfer claiming *epoch*, which no
    signed message can encode."""
    return _middle(lambda r: r[:-2] + (epoch, r[-1]))


def _first_piece(edit):
    """The honest report with the middle transfer's first piece, an (index,
    piece hash) pair or a session receipt, replaced by edit(piece)."""
    return _middle(lambda r: r[:-1] + ((edit(r[-1][0]),) + r[-1][1:],))


def _first_index(index):
    """The honest report with the middle transfer's first piece at *index*."""
    def edit(piece):
        if isinstance(piece, at.SessionReceipt):
            return dataclasses.replace(piece, index=index)
        return (index, piece[1])
    return _first_piece(edit)


def _another_reporter(env, kind):
    """The honest report resubmitted by u4, registered but the sender of
    none of it: the aggregate over messages rebuilt with u4's key fails."""
    env.join()
    uid4, kp4 = env.users[4]
    return dataclasses.replace(make_report(env, kind), uid=uid4, pk=kp4.pk)


def _credited_through(shift):
    """The honest report after piece 3 of the middle transfer was credited
    through another kind, the one *shift* places after it in ``KINDS``."""
    def case(env, kind):
        other = KINDS[(KINDS.index(kind) + shift) % len(KINDS)]
        assert getattr(env.t, other)(make_report(env, other, (tx(2, (3,)),)), NOW)
        return make_report(env, kind)
    return case


REFUSALS = {
    "unknown_torrent": _with(infohash=at.make_torrent("other", [sc.hash_data(b"q")], 700).infohash),
    "reporter_uid_mismatch": _with(uid=b"u3"),
    "delta_up_off_by_one": _with(delta_up=lambda p: p.delta_up + 1),
    "transfer_to_self": lambda env, kind: make_report(
        env, kind, (HONEST[0], tx(0, (3, 6)), HONEST[2])),
    "epoch_outside_window": lambda env, kind: make_report(
        env, kind, (HONEST[0], tx(2, (3, 6), t=NOW - 3 * W), HONEST[2])),
    "duplicate_within_report": lambda env, kind: make_report(
        env, kind, HONEST + HONEST[:1]),
    "replay_across_reports": _replayed,
    "downloader_uid_mismatch": lambda env, kind: make_report(
        env, kind, (HONEST[0], tx(2, (3, 6), uid=b"u1"), HONEST[2])),
    "garbage_aggregate": _with(
        agg_sig=lambda p: sc.AggregateSignature(b"\x11" * 96, p.agg_sig.count)),
    "bad_claim_in_the_middle": lambda env, kind: make_report(
        env, kind, (HONEST[0], tx(2, (3, 6), garbled=True), HONEST[2])),
    "epoch_negative": _epoch(-1),
    "epoch_not_encodable": _epoch(1 << 64),
    "receipts_of_another_reporter": _another_reporter,
    # peer-fed fields of the wrong type or shape
    "epoch_float": _epoch(6.0),
    "piece_index_str": _first_index("3"),
    "piece_index_float": _first_index(3.0),
    "record_none": _middle(lambda r: None),
    "piece_none": _first_piece(lambda piece: None),
    "records_none": _records(lambda rs, i: None),
    "downloader_uid_list": _middle(lambda r: ([r[0]],) + r[1:]),
    "reporter_uid_list": _with(uid=lambda p: [p.uid]),
    "infohash_list": _with(infohash=lambda p: list(p.infohash)),
    "delta_up_float": _with(delta_up=lambda p: float(p.delta_up)),
    "piece_credited_through_next_kind": _credited_through(1),
    "piece_credited_through_previous_kind": _credited_through(2),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_refusal_leaves_chain_and_dedup_untouched(env, kind, refusal):
    payload = REFUSALS[refusal](env, kind)
    digest, recent = ct.state_digest(env.chain), dict(env.t.recent)
    assert not getattr(env.t, kind)(payload, NOW)
    assert ct.state_digest(env.chain) == digest
    assert env.t.recent == recent


@pytest.mark.parametrize("kind", KINDS)
def test_refused_write_spends_no_receipt(env, kind):
    payload = make_report(env, kind)
    digest, recent = ct.state_digest(env.chain), dict(env.t.recent)
    env.chain.allowlist.discard(env.t.quote.measurement)  # contract writes now fail
    assert not getattr(env.t, kind)(payload, NOW)
    assert ct.state_digest(env.chain) == digest
    assert env.t.recent == recent
    env.chain.allowlist.add(env.t.quote.measurement)
    assert getattr(env.t, kind)(payload, NOW)
    assert ct.sc_read(env.chain, env.t.addr, b"u0").up == 4096 + 6 * 700
    for uid in (b"u1", b"u2", b"u3"):
        assert ct.sc_read(env.chain, env.t.addr, uid).down == 2 * 700


@pytest.mark.parametrize("kind", KINDS)
def test_credit_past_uint64_refused(kind):
    # the reporter's counter would reach 2^64, which no write can encode
    env = Env(init_credit=2**64 - 1)
    payload = make_report(env, kind, HONEST[:1])
    digest, recent = ct.state_digest(env.chain), dict(env.t.recent)
    assert not getattr(env.t, kind)(payload, NOW)
    assert ct.state_digest(env.chain) == digest
    assert env.t.recent == recent


@pytest.mark.parametrize("kind", KINDS)
def test_one_key_under_two_uids_reports_as_either(env, kind):
    # a uid's identity is its record on chain, as for announces
    uid0, kp0 = env.users[0]
    assert env.t.register(b"u0-bis", kp0.pk, env.reg_sig(kp0, b"u0-bis"))
    env.users.append((b"u0-bis", kp0))  # user 4
    report = getattr(env.t, kind)
    assert report(make_report(env, kind, HONEST[:1]), NOW)
    assert report(dataclasses.replace(make_report(env, kind, HONEST[1:2]), uid=b"u0-bis"), NOW)
    for uid in (b"u0", b"u0-bis"):
        assert ct.sc_read(env.chain, env.t.addr, uid).up == 4096 + 2 * 700
    # crediting the key's other uid is a transfer to oneself
    digest, recent = ct.state_digest(env.chain), dict(env.t.recent)
    assert not report(make_report(env, kind, (HONEST[2], tx(4, (8, 9)))), NOW)
    assert ct.state_digest(env.chain) == digest
    assert env.t.recent == recent


def test_chain_log_cut_at_any_entry_replays_to_a_whole_request(tmp_path):
    """Each request is one log entry, so a crash between any two appends
    leaves a log that replays to the state after some whole request: never
    a reporter credited and a downloader not."""
    path = tmp_path / "chain.log"
    env = Env(users=0, chain_path=str(path))
    whole = {ct.state_digest(ct.chain_new(env.world.allowlist, env.world.hw_root_pk)),
             ct.state_digest(env.chain)}
    for _ in range(4):
        env.join()
        whole.add(ct.state_digest(env.chain))
    for k, kind in enumerate(KINDS):  # each credits three downloaders, in its own epoch
        transfers = [tx(recv_i, pieces, t=NOW - k * W) for recv_i, pieces, *_ in HONEST]
        assert getattr(env.t, kind)(make_report(env, kind, transfers), NOW)
        whole.add(ct.state_digest(env.chain))
    env.chain.close()
    lines = path.read_bytes().splitlines(keepends=True)
    for cut in range(len(lines) + 1):
        copy = tmp_path / ("cut-%d.log" % cut)
        copy.write_bytes(b"".join(lines[:cut]))
        chain = ct.chain_new(env.world.allowlist, env.world.hw_root_pk, str(copy))
        assert ct.state_digest(chain) in whole, cut
        chain.close()
    assert len(lines) == 1 + 4 + len(KINDS)


def test_piece_credited_once_whatever_kind_carries_it(env):
    """u1 signs for piece 3 four times in one epoch: per piece, in a batch over
    {3, 4}, in a batch over {3} and in a session.  Only the first is credited."""
    (uid0, kp0), (uid1, kp1) = env.users[0], env.users[1]
    ih, ep = env.meta.infohash, env.t.epoch
    per_piece = env.report_for(0, [(env.receipt(1, 0, 3), uid1)])
    batches = [tr.build_batch_report(uid0, kp0.pk, env.meta, [(
        at.batch_attest(kp1, ih, kp0.pk, {j: env.contents[j] for j in js}, NOW, ep), uid1)])
        for js in ((3, 4), (3,))]
    cert, skp = at.open_session(kp1, ih, kp0.pk, NOW, ep)
    session = tr.build_session_report(
        uid0, kp0.pk, env.meta,
        [(cert, uid1, [at.session_attest(skp.sk, cert, env.contents[3], 3, NOW, ep)])])
    assert env.t.report(per_piece, NOW)
    assert not env.t.report_batch(batches[0], NOW)
    assert not env.t.report_batch(batches[1], NOW)
    assert not env.t.report_session(session, NOW)
    assert ct.sc_read(env.chain, env.t.addr, uid1).down == 700
    assert ct.sc_read(env.chain, env.t.addr, uid0).up == 4096 + 700


# ---------------------------------------------------------------------------
# session certs: each is checked for itself, whether or not a receipt uses it


def session_report(env, sessions):
    """u0's session report; each session is (recv_i, pieces, cert time,
    downloader uid or None).  Receipts are signed at NOW whatever the cert's
    time, and a session with no pieces contributes a cert no receipt uses."""
    uid0, kp0 = env.users[0]
    ih, ep = env.meta.infohash, env.t.epoch
    entries = []
    for recv_i, pieces, t_cert, uid in sessions:
        uid_r, kp_r = env.users[recv_i]
        cert, skp = at.open_session(kp_r, ih, kp0.pk, t_cert, ep)
        srs = [at.session_attest(skp.sk, cert, env.contents[j], j, NOW, ep) for j in pieces]
        entries.append((cert, uid or uid_r, srs))
    return tr.build_session_report(uid0, kp0.pk, env.meta, entries)


USED = [(1, (2, 5), NOW, None), (2, (3, 6), NOW, None)]

CERT_REFUSALS = {
    "cert_outside_window": [USED[0], (2, (3, 6), NOW - 3 * W, None)],
    "unused_cert_outside_window": USED + [(3, (), NOW - 3 * W, None)],
    "unused_cert_downloader_uid_mismatch": USED + [(3, (), NOW, b"u1")],
    "unused_cert_to_self": USED + [(0, (), NOW, None)],
}


@pytest.mark.parametrize("refusal", sorted(CERT_REFUSALS))
def test_session_cert_refusal_leaves_chain_and_dedup_untouched(env, refusal):
    payload = session_report(env, CERT_REFUSALS[refusal])
    digest, recent = ct.state_digest(env.chain), dict(env.t.recent)
    assert not env.t.report_session(payload, NOW)
    assert ct.state_digest(env.chain) == digest
    assert env.t.recent == recent
    # the same receipts without the faulty cert are credited
    assert env.t.report_session(session_report(env, USED), NOW)
