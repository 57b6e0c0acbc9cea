"""ECDSA over secp256k1 with RFC 6979 deterministic nonces.

Backs the ephemeral session-signature scheme: short 64-byte signatures that
are roughly an order of magnitude cheaper to produce than the pairing-based
ones.  The group law is :mod:`pbts.weierstrass`, shared with the BLS12-381
G1, and every field element is a plain int.  Signing uses the fixed-base
table of the generator; verification caches each public key's wNAF table
(the same keys recur constantly inside a session, and contract owners
re-sign every write).

Signatures are (r || s), 32 bytes each, with the low-s normalization so the
encoding is canonical.  Public keys are 33-byte compressed SEC1.
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache

from . import weierstrass as wei

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
B = 7
_HALF_N = N >> 1

_GEN_TABLE = wei.gen_table((GX, GY), P)


def mul_gen(k):
    """k * G via the fixed-base table; returns affine or None."""
    return wei.mul_gen(_GEN_TABLE, k % N, P)


@lru_cache(maxsize=512)
def _odd_multiples(pt):
    return wei.odd_multiples(pt, P)


def mul_point(pt, k):
    """k * pt for affine pt, with pt's wNAF table cached."""
    k %= N
    if pt is None or k == 0:
        return None
    return wei.mul(_odd_multiples(pt), k, P)


def point_add(p1, p2):
    if p1 is None:
        return p2
    return wei.to_affine(wei.madd((p1[0], p1[1], 1), p2, P), P)


def is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + B)) % P == 0


# ---------------------------------------------------------------------------
# serialization

def point_to_bytes(pt) -> bytes:
    if pt is None:
        raise ValueError("cannot encode the point at infinity")
    x, y = pt
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


@lru_cache(maxsize=8192)
def point_from_bytes(data: bytes):
    if len(data) != 33 or data[0] not in (2, 3):
        raise ValueError("bad compressed point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ValueError("x out of range")
    y2 = (x * x % P * x + B) % P
    y = pow(y2, (P + 1) >> 2, P)
    if y * y % P != y2:
        raise ValueError("x not on curve")
    if (y & 1) != data[0] - 2:
        y = -y % P
    return (x, y)


# ---------------------------------------------------------------------------
# ECDSA

def keygen(seed: bytes):
    """Derive (sk_int, pk_point) from seed bytes."""
    d = 0
    ctr = 0
    while not 1 <= d < N:
        digest = hashlib.sha256(b"ecdsa-keygen" + seed + bytes([ctr])).digest()
        d = int.from_bytes(digest + hashlib.sha256(digest).digest(), "big") % N
        ctr += 1
    return d, mul_gen(d)


def _rfc6979_k(d, e):
    h1 = e.to_bytes(32, "big")
    x = d.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        cand = int.from_bytes(v, "big")
        if 1 <= cand < N:
            return cand
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign(d: int, message: bytes) -> bytes:
    """Sign with the secret scalar d, an int in [1, N)."""
    e = int.from_bytes(hashlib.sha256(message).digest(), "big") % N
    k = _rfc6979_k(d, e)
    while True:
        r = mul_gen(k)[0] % N
        if r == 0:  # pragma: no cover - probability ~2^-256
            k = (k + 1) % N
            continue
        s = pow(k, -1, N) * (e + r * d) % N
        if s == 0:  # pragma: no cover
            k = (k + 1) % N
            continue
        if s > _HALF_N:
            s = N - s
        return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def verify(pk_point, message: bytes, sig: bytes) -> bool:
    if pk_point is None or len(sig) != 64:
        return False
    r = int.from_bytes(sig[:32], "big")
    s = int.from_bytes(sig[32:], "big")
    if not (1 <= r < N and 1 <= s < N):
        return False
    if not is_on_curve(pk_point):
        return False
    e = int.from_bytes(hashlib.sha256(message).digest(), "big") % N
    w = pow(s, -1, N)
    u1 = e * w % N
    u2 = r * w % N
    pt = point_add(mul_gen(u1), mul_point(pk_point, u2))
    if pt is None:
        return False
    return pt[0] % N == r
