"""Simulated on-chain reputation layer: deploy, read/write, auth, the
append-only log, and crash recovery."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbts import contract as ct
from pbts import enclave as encl
from pbts import sigcrypto as sc

PROG, CFG = b"ledger-prog", b"cfg"
IID = b"\xaa" * 16


def make_owner(world):
    """Attested contract owner: (auth keypair, quote bound to the auth key)."""
    m = encl.measure(PROG, CFG)
    root = encl.kms_derive(world, encl.attest_quote(world, m, b"\x00" * encl.NONCE_LEN))
    auth_kp = encl.derive_contract_auth_keys(root)
    quote = encl.attest_quote(world, m, ct.auth_nonce_for(auth_kp.pk))
    return auth_kp, quote


@pytest.fixture()
def log_path(tmp_path):
    """The chain log that *env*'s chain appends to."""
    return str(tmp_path / "chain.log")


@pytest.fixture()
def env(log_path):
    world = encl.world_new(seed=77)
    world.allowlist.add(encl.measure(PROG, CFG))
    chain = ct.chain_new(world.allowlist, world.hw_root_pk, path=log_path)
    auth_kp, quote = make_owner(world)
    yield world, chain, auth_kp, quote
    chain.close()


def deploy(chain, auth_kp, quote, ref=None, iid=IID):
    payload = ct.init_payload(iid, ref, auth_kp.pk)
    addr = ct.sc_init(chain, payload, ct.make_auth(quote, auth_kp.sk, payload))
    assert addr is not None and len(addr) == ct.ADDR_LEN
    return addr


def write(chain, addr, auth_kp, quote, *records):
    """One owner-signed write of (uid, pk, up, down) *records*."""
    payload = ct.write_payload(addr, records)
    return ct.sc_write(chain, addr, payload, ct.make_auth(quote, auth_kp.sk, payload))


def test_deploy_and_read_write(env):
    _, chain, auth_kp, quote = env
    addr = deploy(chain, auth_kp, quote)
    assert ct.sc_read(chain, addr, b"alice") is None
    assert write(chain, addr, auth_kp, quote, (b"alice", b"pk-a", 10, 3))
    rec = ct.sc_read(chain, addr, b"alice")
    assert (rec.pk, rec.up, rec.down) == (b"pk-a", 10, 3)
    assert write(chain, addr, auth_kp, quote, (b"alice", b"pk-a", 12, 3))
    assert ct.sc_read(chain, addr, b"alice").up == 12


def test_addresses_unique(env):
    _, chain, auth_kp, quote = env
    a1 = deploy(chain, auth_kp, quote)
    a2 = deploy(chain, auth_kp, quote)
    assert a1 != a2  # same payload, different deployment nonce


def test_referrer_one_hop_only(env):
    _, chain, auth_kp, quote = env
    a0 = deploy(chain, auth_kp, quote)
    assert write(chain, a0, auth_kp, quote, (b"old-user", b"pk", 5, 1))
    a1 = deploy(chain, auth_kp, quote, ref=a0)
    a2 = deploy(chain, auth_kp, quote, ref=a1)
    assert ct.get_referrer(chain, a1) == a0
    # one hop: a1 sees a0's record
    assert ct.sc_read(chain, a1, b"old-user").up == 5
    # two hops: a2 -> a1 -> a0 is out of reach by design
    assert ct.sc_read(chain, a2, b"old-user") is None
    # local write shadows the inherited record
    assert write(chain, a1, auth_kp, quote, (b"old-user", b"pk", 9, 1))
    assert ct.sc_read(chain, a1, b"old-user").up == 9
    assert ct.sc_read(chain, a0, b"old-user").up == 5


def test_unknown_referrer_rejected(env):
    _, chain, auth_kp, quote = env
    payload = ct.init_payload(IID, b"\x01" * 20, auth_kp.pk)
    assert ct.sc_init(chain, payload, ct.make_auth(quote, auth_kp.sk, payload)) is None


def test_unknown_contract(env):
    _, chain, auth_kp, quote = env
    with pytest.raises(ct.ChainError):
        ct.sc_read(chain, b"\x02" * 20, b"u")
    assert not write(chain, b"\x02" * 20, auth_kp, quote, (b"u", b"pk", 1, 1))


class TestAuth:
    def test_wrong_signer_rejected(self, env):
        world, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        rogue = sc.session_keygen(b"\x13" * 32)
        payload = ct.write_payload(addr, [(b"u", b"pk", 1, 0)])
        assert not ct.sc_write(chain, addr, payload, ct.make_auth(quote, rogue.sk, payload))

    def test_quote_not_bound_to_owner_key_rejected(self, env):
        world, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        # valid quote, but its nonce commits to a different key
        m = encl.measure(PROG, CFG)
        other = sc.session_keygen(b"\x14" * 32)
        stray = encl.attest_quote(world, m, ct.auth_nonce_for(other.pk))
        payload = ct.write_payload(addr, [(b"u", b"pk", 1, 0)])
        assert not ct.sc_write(chain, addr, payload, ct.make_auth(stray, auth_kp.sk, payload))

    def test_unallowlisted_enclave_rejected(self, env):
        world, chain, auth_kp, quote = env
        rogue_m = encl.measure(b"rogue", CFG)
        rogue_quote = encl.attest_quote(world, rogue_m, ct.auth_nonce_for(auth_kp.pk))
        payload = ct.init_payload(IID, None, auth_kp.pk)
        assert ct.sc_init(chain, payload, ct.make_auth(rogue_quote, auth_kp.sk, payload)) is None

    def test_auth_not_transferable_across_payloads(self, env):
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        payload = ct.write_payload(addr, [(b"u", b"pk", 1, 0)])
        auth = ct.make_auth(quote, auth_kp.sk, payload)
        assert ct.sc_write(chain, addr, payload, auth)
        # same token replayed for a different value must fail
        assert not ct.sc_write(chain, addr, ct.write_payload(addr, [(b"u", b"pk", 99, 0)]), auth)

    def test_negative_values_rejected(self):
        # no payload carries these records, so none reaches sc_write; the
        # tracker's writer refuses them (test_tracker.py::test_write_refuses_*)
        for record in [(b"u", b"pk", -1, 0), (b"u", b"pk", 0, -5),
                       (b"u", "not-bytes", 1, 0), (b"u", b"pk", 1)]:
            with pytest.raises((TypeError, ValueError)):
                ct.write_payload(b"\x07" * ct.ADDR_LEN, [record])


def log_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def append_entry(path, seq, op, addr, payload):
    """Append a log entry as the chain would, with a dummy auth fingerprint."""
    entry = {"seq": seq, "op": op, "addr": addr.hex(), "payload": payload.hex(),
             "auth_fp": "00"}
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")


class TestAtomicWrite:
    GOOD = [(b"u0", b"pk-0", 1, 0), (b"u1", b"pk-1", 2, 0)]
    BAD = {
        "negative_counter": (b"u2", b"pk-2", -1, 0),
        "counter_past_uint64": (b"u2", b"pk-2", 1 << 64, 0),
        "pk_not_bytes": (b"u2", "pk-2", 1, 0),
        "uid_not_bytes": ("u2", b"pk-2", 1, 0),
        "counter_not_int": (b"u2", b"pk-2", "700", 0),
        "counter_float": (b"u2", b"pk-2", 700.0, 0),
        "counter_bool": (b"u2", b"pk-2", True, 0),
        "repeated_uid": (b"u0", b"pk-0", 7, 7),
    }

    def test_every_record_lands_in_one_entry(self, env, log_path):
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        assert write(chain, addr, auth_kp, quote, *self.GOOD)
        recs = [ct.sc_read(chain, addr, uid) for uid, *_ in self.GOOD]
        assert [(r.uid, r.pk, r.up, r.down) for r in recs] == self.GOOD
        assert [e["op"] for e in ct.read_log(log_path)] == ["init", "write"]

    def test_single_record_payload_unchanged(self, env):
        # the one-record write encodes as it always has, so old logs replay
        addr = b"\x07" * ct.ADDR_LEN
        assert ct.write_payload(addr, [(b"u", b"pk", 3, 4)]) == sc.canonical_encode([
            (sc.TAG_ATOM, b"sc-write"), (sc.TAG_BYTES, addr), (sc.TAG_BYTES, b"u"),
            (sc.TAG_PUBKEY, b"pk"), (sc.TAG_UINT, sc.enc_uint(3)),
            (sc.TAG_UINT, sc.enc_uint(4))])

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_one_bad_record_refuses_the_whole_write(self, env, log_path, bad):
        # a record no payload carries never encodes (the tracker's writer then
        # refuses: test_tracker.py::test_write_refuses_*); a repeated uid
        # encodes, and the contract refuses it though its owner signed it
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        state, log = ct.serialize_state(chain), log_bytes(log_path)
        records = self.GOOD + [self.BAD[bad]]
        if bad == "repeated_uid":
            assert not write(chain, addr, auth_kp, quote, *records)
        else:
            with pytest.raises((TypeError, ValueError)):
                ct.write_payload(addr, records)
        assert ct.serialize_state(chain) == state and log_bytes(log_path) == log

    def test_empty_write_refused(self, env, log_path):
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        state, log = ct.serialize_state(chain), log_bytes(log_path)
        assert not write(chain, addr, auth_kp, quote)
        assert ct.serialize_state(chain) == state and log_bytes(log_path) == log

    def test_wrong_auth_refuses_every_record(self, env, log_path):
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        state, log = ct.serialize_state(chain), log_bytes(log_path)
        rogue = sc.session_keygen(b"\x16" * 32)
        payload = ct.write_payload(addr, self.GOOD)
        assert not ct.sc_write(chain, addr, payload, ct.make_auth(quote, rogue.sk, payload))
        # nor does a token for one record carry the other
        one = ct.make_auth(quote, auth_kp.sk, ct.write_payload(addr, self.GOOD[:1]))
        assert not ct.sc_write(chain, addr, payload, one)
        assert ct.serialize_state(chain) == state and log_bytes(log_path) == log

    @pytest.mark.parametrize("n_fields", [2, 3, 5, 7, 9])
    def test_write_entry_of_partial_records_is_corrupt(self, env, log_path, n_fields):
        world, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        assert write(chain, addr, auth_kp, quote, *self.GOOD)
        chain.close()
        fields = sc.canonical_decode(ct.write_payload(addr, self.GOOD))[:n_fields]
        append_entry(log_path, 3, "write", addr, sc.canonical_encode(fields))
        with pytest.raises(ct.ChainLogCorrupt) as exc:
            ct.chain_new(world.allowlist, world.hw_root_pk, path=log_path)
        assert exc.value.seq == 3


def _good_fields(addr):
    return sc.canonical_decode(ct.write_payload(addr, TestAtomicWrite.GOOD))


# (op, payload built from the contract's address and its owner's key) that
# the one parser refuses, whether the owner sends it live or the log holds it
MALFORMED = {
    "truncated": ("write", lambda addr, pk: ct.write_payload(addr, TestAtomicWrite.GOOD)[:-1]),
    "wrong_atom": ("write", lambda addr, pk: sc.canonical_encode(
        [(sc.TAG_ATOM, b"sc-init")] + _good_fields(addr)[1:])),
    "wrong_addr_field": ("write", lambda addr, pk: ct.write_payload(
        b"\x09" * ct.ADDR_LEN, TestAtomicWrite.GOOD)),
    "partial_record": ("write", lambda addr, pk: sc.canonical_encode(_good_fields(addr)[:-1])),
    "short_counter": ("write", lambda addr, pk: sc.canonical_encode(
        _good_fields(addr)[:-1] + [(sc.TAG_UINT, b"\x00" * 7)])),
    "counter_not_tagged_uint": ("write", lambda addr, pk: sc.canonical_encode(
        _good_fields(addr)[:-1] + [(sc.TAG_BYTES, b"\x00" * 8)])),
    "repeated_uid": ("write", lambda addr, pk: ct.write_payload(
        addr, TestAtomicWrite.GOOD + TestAtomicWrite.GOOD[:1])),
    "unknown_referrer": ("init", lambda addr, pk: ct.init_payload(IID, b"\x01" * ct.ADDR_LEN, pk)),
}


class TestOneParser:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_refused_live(self, env, log_path, case):
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        op, build = MALFORMED[case]
        payload = build(addr, auth_kp.pk)
        auth = ct.make_auth(quote, auth_kp.sk, payload)  # the owner signs, so the parser decides
        state, log = ct.serialize_state(chain), log_bytes(log_path)
        if op == "init":
            assert ct.sc_init(chain, payload, auth) is None
        else:
            assert ct.sc_write(chain, addr, payload, auth) is False
        assert ct.serialize_state(chain) == state and log_bytes(log_path) == log

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_refused_on_replay(self, env, log_path, case):
        world, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        assert write(chain, addr, auth_kp, quote, *TestAtomicWrite.GOOD)
        chain.close()
        op, build = MALFORMED[case]
        payload = build(addr, auth_kp.pk)
        # an init entry names the address the factory derives for it at nonce 1
        append_entry(log_path, 3, op, ct._derive_addr(1, payload) if op == "init" else addr,
                     payload)
        with pytest.raises(ct.ChainLogCorrupt) as exc:
            ct.chain_new(world.allowlist, world.hw_root_pk, path=log_path)
        assert exc.value.seq == 3

    def test_payload_not_bytes_refused(self, env):
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        payload = ct.write_payload(addr, TestAtomicWrite.GOOD)
        auth = ct.make_auth(quote, auth_kp.sk, payload)
        for bad in (bytearray(payload), payload.hex(), None):
            assert ct.sc_write(chain, addr, bad, auth) is False

    def test_any_owner_signed_bytes_get_a_bool(self, env):
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        head = [(sc.TAG_ATOM, b"sc-write"), (sc.TAG_BYTES, addr)]
        field = st.tuples(st.sampled_from([sc.TAG_ATOM, sc.TAG_BYTES, sc.TAG_PUBKEY, sc.TAG_UINT]),
                          st.binary(max_size=9))
        counter = st.binary(min_size=8, max_size=8) | st.binary(max_size=9)
        record = st.tuples(st.binary(max_size=2), st.binary(max_size=2), counter, counter).map(
            lambda r: list(zip([sc.TAG_BYTES, sc.TAG_PUBKEY, sc.TAG_UINT, sc.TAG_UINT], r)))
        payloads = st.one_of(
            st.binary(max_size=64),
            st.lists(field, max_size=10).map(lambda fs: sc.canonical_encode(head + fs)),
            st.lists(record, max_size=4).map(lambda rs: sc.canonical_encode(head + sum(rs, []))))

        @settings(max_examples=200, deadline=None)
        @given(payloads)
        def check(payload):
            auth = ct.make_auth(quote, auth_kp.sk, payload)
            assert type(ct.sc_write(chain, addr, payload, auth)) is bool

        check()


class TestPersistence:
    def populate(self, chain, auth_kp, quote, ops=60, seed=8):
        rng = random.Random(seed)
        addrs = [deploy(chain, auth_kp, quote)]
        for _ in range(ops):
            if rng.random() < 0.1:
                ref = rng.choice(addrs) if rng.random() < 0.5 else None
                addrs.append(deploy(chain, auth_kp, quote, ref=ref))
            else:
                addr = rng.choice(addrs)
                uids = rng.sample(range(10), rng.randint(1, 3))  # 1-3 records, one entry
                assert write(chain, addr, auth_kp, quote, *(
                    (b"user-%d" % u, b"pk-%d" % rng.randrange(4), rng.randrange(1000),
                     rng.randrange(1000)) for u in uids))
        return addrs

    def test_reload_is_byte_identical(self, env, log_path):
        world, chain, auth_kp, quote = env
        self.populate(chain, auth_kp, quote)
        before = ct.serialize_state(chain)
        chain.close()
        reloaded = ct.chain_new(world.allowlist, world.hw_root_pk, path=log_path)
        assert ct.serialize_state(reloaded) == before
        assert ct.state_digest(reloaded) == sc.hash_data(before)
        # and the reloaded chain keeps accepting writes
        addr = next(iter(reloaded.contracts))
        assert write(reloaded, addr, auth_kp, quote, (b"post-reload", b"pk", 1, 2))
        reloaded.close()

    def test_truncation_detected_at_exact_entry(self, env, log_path):
        world, chain, auth_kp, quote = env
        self.populate(chain, auth_kp, quote, ops=20)
        chain.close()
        with open(log_path, "rb") as fh:
            lines = fh.readlines()
        cut = len(lines) // 2
        with open(log_path, "wb") as fh:
            fh.writelines(lines[:cut])
            fh.write(lines[cut][: len(lines[cut]) // 2])  # half an entry
        with pytest.raises(ct.ChainLogCorrupt) as exc:
            ct.chain_new(world.allowlist, world.hw_root_pk, path=log_path)
        assert exc.value.seq == cut + 1
        with pytest.raises(ct.ChainLogCorrupt) as exc:
            ct.read_log(log_path)
        assert exc.value.seq == cut + 1

    def test_seq_gap_detected(self, env, log_path):
        world, chain, auth_kp, quote = env
        self.populate(chain, auth_kp, quote, ops=10)
        chain.close()
        with open(log_path) as fh:
            entries = [json.loads(line) for line in fh]
        entries[4]["seq"] = 99
        with open(log_path, "w") as fh:
            for e in entries:
                fh.write(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(ct.ChainLogCorrupt) as exc:
            ct.chain_new(world.allowlist, world.hw_root_pk, path=log_path)
        assert exc.value.seq == 5

    def test_garbage_line_detected(self, env, log_path):
        world, chain, auth_kp, quote = env
        deploy(chain, auth_kp, quote)
        chain.close()
        with open(log_path, "a") as fh:
            fh.write("not json at all\n")
        with pytest.raises(ct.ChainLogCorrupt) as exc:
            ct.chain_new(world.allowlist, world.hw_root_pk, path=log_path)
        assert exc.value.seq == 2

    def test_read_log_structure(self, env, log_path):
        _, chain, auth_kp, quote = env
        addr = deploy(chain, auth_kp, quote)
        write(chain, addr, auth_kp, quote, (b"u", b"pk", 3, 4))
        chain.close()
        entries = ct.read_log(log_path)
        assert [e["seq"] for e in entries] == [1, 2]
        assert entries[0]["op"] == "init" and entries[1]["op"] == "write"
        assert entries[0]["addr"] == addr.hex()


def test_state_digest_tracks_content(env):
    _, chain, auth_kp, quote = env
    addr = deploy(chain, auth_kp, quote)
    d0 = ct.state_digest(chain)
    assert write(chain, addr, auth_kp, quote, (b"u", b"pk", 1, 1))
    d1 = ct.state_digest(chain)
    assert d0 != d1
    # failed write leaves the digest untouched
    rogue = sc.session_keygen(b"\x15" * 32)
    payload = ct.write_payload(addr, [(b"u", b"pk", 2, 2)])
    assert not ct.sc_write(chain, addr, payload, ct.make_auth(env[3], rogue.sk, payload))
    assert ct.state_digest(chain) == d1


def test_successor_records_stay_out_of_the_referrer(env):
    _, chain, auth_kp, quote = env
    a0 = deploy(chain, auth_kp, quote)
    write(chain, a0, auth_kp, quote, (b"u0", b"pk", 1, 0))
    a1 = deploy(chain, auth_kp, quote, ref=a0)
    write(chain, a1, auth_kp, quote, (b"u1", b"pk", 2, 0))
    assert ct.sc_read(chain, a1, b"u1").up == 2 and ct.sc_read(chain, a1, b"u0").up == 1
    assert ct.sc_read(chain, a0, b"u1") is None and ct.sc_read(chain, a0, b"u0").up == 1
