"""Mocked trusted-execution layer: measurements, quotes and key derivation.

The simulation stands in for real TEE hardware with three pieces of state,
bundled in an :class:`EnclaveWorld`:

* a "hardware root" signing keypair whose public half everyone knows — quotes
  are session-scheme signatures by this key over (measurement, nonce);
* a KMS secret from which per-measurement tracker root keys are derived, so
  any instance running the same program + config recovers the *same* key with
  no stored state;
* an allowlist of trusted measurements.

A measurement commits to the program identity and its configuration, so a
tracker with altered code or config measures differently, fails allowlist
checks, and derives unrelated keys.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass, field
from functools import lru_cache

from . import sigcrypto as sc

NONCE_LEN = 16


@dataclass(frozen=True)
class AttestationQuote:
    measurement: bytes  # 32 bytes
    nonce: bytes  # 16 bytes, caller-chosen (binds the quote to a context)
    sig: bytes  # session-scheme signature by the hardware root

    def to_bytes(self) -> bytes:
        return sc.canonical_encode(
            [
                (sc.TAG_DIGEST, self.measurement),
                (sc.TAG_BYTES, self.nonce),
                (sc.TAG_SIG, self.sig),
            ]
        )


@dataclass
class EnclaveWorld:
    """Simulated hardware trust anchor shared by one deployment."""

    hw_root: sc.KeyPair
    kms_secret: bytes
    allowlist: set = field(default_factory=set)

    @property
    def hw_root_pk(self) -> bytes:
        return self.hw_root.pk


def world_new(seed: bytes | int | None = None) -> EnclaveWorld:
    if seed is None:
        seed = os.urandom(32)
    elif isinstance(seed, int):
        seed = seed.to_bytes(8, "big")
    return EnclaveWorld(
        hw_root=sc.session_keygen(hashlib.sha256(b"hw-root" + seed).digest()),
        kms_secret=hashlib.sha256(b"kms-secret" + seed).digest(),
    )


def measure(program_id: bytes, config: bytes) -> bytes:
    """Measurement digest committing to code identity and configuration."""
    return sc.hash_data(
        sc.canonical_encode([(sc.TAG_BYTES, program_id), (sc.TAG_BYTES, config)])
    )


def _quote_msg(measurement: bytes, nonce: bytes) -> bytes:
    return sc.canonical_encode(
        [(sc.TAG_ATOM, b"quote"), (sc.TAG_DIGEST, measurement), (sc.TAG_BYTES, nonce)]
    )


def attest_quote(world: EnclaveWorld, measurement: bytes, nonce: bytes) -> AttestationQuote:
    """Issue a quote; only possible with the simulated hardware root secret."""
    if len(nonce) != NONCE_LEN:
        raise ValueError("nonce must be 16 bytes")
    if len(measurement) != 32:
        raise ValueError("measurement must be 32 bytes")
    sig = sc.session_sign(world.hw_root.sk, _quote_msg(measurement, nonce))
    return AttestationQuote(measurement=measurement, nonce=nonce, sig=sig)


@lru_cache(maxsize=4096)
def _verify_quote_cached(measurement: bytes, nonce: bytes, sig: bytes, hw_root_pk: bytes) -> bool:
    if len(measurement) != 32 or len(nonce) != NONCE_LEN:
        return False
    return sc.session_verify(hw_root_pk, _quote_msg(measurement, nonce), sig)


def verify_quote(quote: AttestationQuote, allowlist, hw_root_pk: bytes) -> bool:
    """1 iff the quote is signed by the hardware root and its measurement is
    allowlisted.  Malformed input -> 0."""
    try:
        if quote.measurement not in allowlist:
            return False
        return _verify_quote_cached(
            bytes(quote.measurement), bytes(quote.nonce), bytes(quote.sig), bytes(hw_root_pk)
        )
    except Exception:
        return False


def kms_derive(world: EnclaveWorld, quote: AttestationQuote) -> sc.KeyPair | None:
    """Release the per-measurement root key, gated on quote verification.

    Derivation is a deterministic function of (KMS secret, measurement):
    a re-spawned instance with identical code + config gets the same key and
    can resume with no persistent state of its own.
    """
    if not verify_quote(quote, world.allowlist, world.hw_root_pk):
        return None
    seed = hmac.new(world.kms_secret, b"tracker-root" + quote.measurement, hashlib.sha256).digest()
    return sc.keygen(seed)


def derive_contract_auth_keys(root: sc.KeyPair) -> sc.KeyPair:
    """Session keypair for authenticating contract writes, derived from the
    root key so it also survives stateless restarts."""
    seed = hashlib.sha256(b"contract-auth" + root.sk).digest()
    return sc.session_keygen(seed)
