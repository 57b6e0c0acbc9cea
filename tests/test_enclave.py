"""Mocked TEE layer: measurements, quotes, KMS derivation."""

import dataclasses
import random

import pytest

from pbts import enclave as encl
from pbts import sigcrypto as sc

PROG, CFG = b"some-program", b"config-v3"


@pytest.fixture()
def world():
    w = encl.world_new(seed=99)
    w.allowlist.add(encl.measure(PROG, CFG))
    return w


def test_world_determinism():
    a = encl.world_new(seed=5)
    b = encl.world_new(seed=5)
    assert a.hw_root == b.hw_root
    assert a.kms_secret == b.kms_secret
    assert encl.world_new(seed=6).hw_root != a.hw_root


def test_measure_commits_to_program_and_config():
    m = encl.measure(PROG, CFG)
    assert len(m) == 32
    assert m == encl.measure(PROG, CFG)
    assert m != encl.measure(PROG, CFG + b"!")
    assert m != encl.measure(PROG + b"!", CFG)
    # measurement framing is not plain concatenation
    assert encl.measure(b"ab", b"c") != encl.measure(b"a", b"bc")


def test_honest_quote_verifies(world):
    m = encl.measure(PROG, CFG)
    q = encl.attest_quote(world, m, b"\x22" * encl.NONCE_LEN)
    assert encl.verify_quote(q, world.allowlist, world.hw_root_pk)


def test_unallowlisted_measurement_rejected(world):
    rogue = encl.measure(b"evil-program", CFG)
    q = encl.attest_quote(world, rogue, b"\x00" * encl.NONCE_LEN)
    assert not encl.verify_quote(q, world.allowlist, world.hw_root_pk)


def test_wrong_hardware_root_rejected(world):
    m = encl.measure(PROG, CFG)
    q = encl.attest_quote(world, m, b"\x00" * encl.NONCE_LEN)
    impostor = encl.world_new(seed=1234)
    assert not encl.verify_quote(q, world.allowlist, impostor.hw_root_pk)


def test_tampered_fields_rejected(world):
    m = encl.measure(PROG, CFG)
    q = encl.attest_quote(world, m, b"\x33" * encl.NONCE_LEN)
    other_m = encl.measure(PROG, b"other")
    world.allowlist.add(other_m)
    swapped = encl.AttestationQuote(measurement=other_m, nonce=q.nonce, sig=q.sig)
    assert not encl.verify_quote(swapped, world.allowlist, world.hw_root_pk)
    renonced = encl.AttestationQuote(measurement=m, nonce=b"\x44" * encl.NONCE_LEN, sig=q.sig)
    assert not encl.verify_quote(renonced, world.allowlist, world.hw_root_pk)


def test_verify_never_aborts_on_fuzzed_quotes(world):
    """Quotes with flipped bytes in their measurement, nonce or signature
    fail to verify — no exception escapes, and none may come out valid."""
    m = encl.measure(PROG, CFG)
    q = encl.attest_quote(world, m, b"\x55" * encl.NONCE_LEN)
    rng = random.Random(4242)
    accepted = 0
    for _ in range(3000):
        name = rng.choice(("measurement", "nonce", "sig"))
        mutated = bytearray(getattr(q, name))
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] ^= rng.randint(1, 255)
        bad = dataclasses.replace(q, **{name: bytes(mutated)})
        if bad == q:
            continue  # mutations cancelled out
        if encl.verify_quote(bad, world.allowlist, world.hw_root_pk):
            accepted += 1
    assert accepted == 0


class TestKms:
    def test_gated_on_allowlist(self, world):
        rogue = encl.measure(b"evil", CFG)
        q = encl.attest_quote(world, rogue, b"\x00" * encl.NONCE_LEN)
        assert encl.kms_derive(world, q) is None

    def test_key_recovery_is_stateless(self, world):
        m = encl.measure(PROG, CFG)
        q1 = encl.attest_quote(world, m, b"\x01" * encl.NONCE_LEN)
        q2 = encl.attest_quote(world, m, b"\x02" * encl.NONCE_LEN)
        r1 = encl.kms_derive(world, q1)
        r2 = encl.kms_derive(world, q2)
        # nonce-independent: a restarted instance derives the same root key
        assert r1 is not None and r1 == r2

    def test_distinct_measurements_distinct_keys(self, world):
        m1 = encl.measure(PROG, CFG)
        m2 = encl.measure(PROG, b"config-v4")
        world.allowlist.add(m2)
        r1 = encl.kms_derive(world, encl.attest_quote(world, m1, b"\x00" * 16))
        r2 = encl.kms_derive(world, encl.attest_quote(world, m2, b"\x00" * 16))
        assert r1 != r2

    def test_distinct_worlds_distinct_keys(self):
        m = encl.measure(PROG, CFG)
        keys = []
        for seed in (1, 2):
            w = encl.world_new(seed=seed)
            w.allowlist.add(m)
            keys.append(encl.kms_derive(w, encl.attest_quote(w, m, b"\x00" * 16)))
        assert keys[0] != keys[1]

    def test_forged_quote_rejected(self, world):
        m = encl.measure(PROG, CFG)
        fake = encl.AttestationQuote(measurement=m, nonce=b"\x00" * 16, sig=b"\x00" * 64)
        assert encl.kms_derive(world, fake) is None


def test_contract_auth_keys_usable(world):
    m = encl.measure(PROG, CFG)
    root = encl.kms_derive(world, encl.attest_quote(world, m, b"\x00" * 16))
    auth = encl.derive_contract_auth_keys(root)
    assert auth == encl.derive_contract_auth_keys(root)  # stable across restarts
    sig = sc.session_sign(auth.sk, b"payload")
    assert sc.session_verify(auth.pk, b"payload", sig)
