"""Signature schemes and canonical message framing.

Two schemes live here:

* the long-term scheme: aggregatable pairing signatures on BLS12-381
  (48-byte public keys in G1, 96-byte signatures in G2, order-independent
  aggregation into a single 96-byte value).  Signing is deterministic —
  sig = sk * H(m) with a deterministic hash-to-curve — so golden files are
  stable across runs;
* the session scheme: ECDSA/secp256k1 with RFC 6979 nonces (33-byte public
  keys, 64-byte signatures), roughly 30x cheaper to sign.  Non-aggregatable.

``canonical_encode`` provides the injective framing used for every signed
message in the protocol: a 4-byte big-endian field count, then per field a
1-byte type tag, a 4-byte big-endian length and the raw bytes.  Ambiguity of
plain concatenation (``a || bc`` vs ``ab || c``) is what this exists to kill.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import lru_cache

from . import bls12381 as _bls
from . import secp256k1 as _ec

SIG_LEN = 96
DIGEST_LEN = 32

# field type tags for canonical_encode
TAG_ATOM = 0x01      # fixed protocol strings ("register", "announce", ...)
TAG_BYTES = 0x02     # opaque identifiers (uid, iid, nonces, addresses)
TAG_DIGEST = 0x03    # 32-byte hashes
TAG_PUBKEY = 0x04    # serialized public keys, either scheme
TAG_UINT = 0x05      # 8-byte big-endian unsigned integers
TAG_SIG = 0x06       # serialized signatures


def hash_data(data: bytes) -> bytes:
    """Protocol hash (SHA-256), 32-byte digest."""
    return hashlib.sha256(data).digest()


def canonical_encode(fields) -> bytes:
    """Injectively encode a sequence of (tag, bytes) fields."""
    out = [len(fields).to_bytes(4, "big")]
    for tag, data in fields:
        if not 0 <= tag <= 0xFF:
            raise ValueError("tag out of range")
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("field data must be bytes")
        out.append(bytes([tag]) + len(data).to_bytes(4, "big") + bytes(data))
    return b"".join(out)


def canonical_decode(blob: bytes):
    """Inverse of canonical_encode; rejects trailing or truncated input."""
    if len(blob) < 4:
        raise ValueError("truncated header")
    count = int.from_bytes(blob[:4], "big")
    pos = 4
    fields = []
    for _ in range(count):
        if pos + 5 > len(blob):
            raise ValueError("truncated field header")
        tag = blob[pos]
        length = int.from_bytes(blob[pos + 1:pos + 5], "big")
        pos += 5
        if pos + length > len(blob):
            raise ValueError("truncated field data")
        fields.append((tag, blob[pos:pos + length]))
        pos += length
    if pos != len(blob):
        raise ValueError("trailing bytes after last field")
    return fields


def fits_uint(n: int) -> bool:
    """Whether ``enc_uint`` can encode n: an int, not a bool or float, below 2^64."""
    return type(n) is int and 0 <= n < 1 << 64


def enc_uint(n: int) -> bytes:
    if not fits_uint(n):
        raise ValueError("uint out of range")
    return n.to_bytes(8, "big")


def dec_uint(b: bytes) -> int:
    if len(b) != 8:
        raise ValueError("bad uint encoding")
    return int.from_bytes(b, "big")


@dataclass(frozen=True)
class KeyPair:
    sk: bytes
    pk: bytes


@dataclass(frozen=True)
class AggregateSignature:
    data: bytes
    count: int


# ---------------------------------------------------------------------------
# long-term scheme

def keygen(seed: bytes | None = None) -> KeyPair:
    """Long-term keypair; deterministic when seed is given."""
    if seed is None:
        seed = os.urandom(32)
    sk = 0
    ctr = 0
    while not 1 <= sk < _bls.R:
        d0 = hashlib.sha256(b"bls-keygen/0" + seed + bytes([ctr])).digest()
        d1 = hashlib.sha256(b"bls-keygen/1" + seed + bytes([ctr])).digest()
        sk = int.from_bytes(d0 + d1, "big") % int(_bls.R)
        ctr += 1
    pk = _bls.g1_to_bytes(_bls.g1_mul_gen(sk))
    return KeyPair(sk=sk.to_bytes(32, "big"), pk=pk)


def _load_sk(sk: bytes) -> int:
    if not isinstance(sk, (bytes, bytearray)) or len(sk) != 32:
        raise ValueError("malformed secret key")
    val = int.from_bytes(sk, "big")
    if not 1 <= val < _bls.R:
        raise ValueError("secret key out of range")
    return val


def sign(sk: bytes, message: bytes) -> bytes:
    """Deterministic signature: sk * H(message) in G2, 96 bytes."""
    val = _load_sk(sk)
    return _bls.g2_to_bytes(_bls.g2_mul(_bls.hash_to_g2(bytes(message)), val))


@lru_cache(maxsize=4096)
def _verify_uncached(pk: bytes, message: bytes, sig: bytes) -> bool:
    return aggregate_verify(((pk, message),), AggregateSignature(sig, 1))


def verify(pk: bytes, message: bytes, sig: bytes) -> bool:
    """1 iff sig is valid for (pk, message); malformed anything -> 0.

    This is ``aggregate_verify`` on the one pair: single and aggregate
    checks are one code path.  Results are memoized — many simulated nodes
    re-checking the same announce record costs one pairing.
    """
    if not all(isinstance(x, (bytes, bytearray, memoryview)) for x in (pk, message, sig)):
        return False
    return _verify_uncached(bytes(pk), bytes(message), bytes(sig))


def clear_memos() -> None:
    """Empty the hashing, decoding and verification memos (cold benchmarks)."""
    for memo in (_bls.hash_to_g2, _bls.g1_from_bytes, _bls.g2_from_bytes, _verify_uncached):
        memo.cache_clear()


def aggregate(sigs) -> AggregateSignature:
    """Combine signatures; order-independent.  Raises on empty or garbage."""
    pts = [_bls.g2_from_bytes(bytes(s)) for s in sigs]
    if not pts:
        raise ValueError("nothing to aggregate")
    if any(pt is None for pt in pts):
        raise ValueError("cannot aggregate the zero signature")
    return AggregateSignature(data=_bls.g2_to_bytes(_bls.g2_add(*pts)), count=len(pts))


def aggregate_verify(pairs, agg: AggregateSignature) -> bool:
    """1 iff agg validates every (pk, message) pair; count mismatch -> 0.

    The package's one signature check (``verify`` passes one pair).  Cost:
    one Miller pair per distinct signer, plus one for the aggregate, and one
    final exponentiation.  A signer's several messages are mapped to the
    twist, summed projectively and cleared into G2 once, so the check is
    prod_i e(pk_i, clear(sum_j map(m_ij))) == e(G1, agg): the per-message
    product, as the pairing is bilinear and clearing a group homomorphism
    (Budroni-Pintore, eprint 2017/419).  A one-message signer takes the
    memoised ``hash_to_g2``, the same point, so a message signed in this
    process is not hashed again.  Aggregates over one signer's messages are
    safe because registration demands proof of possession of each key,
    which rules out rogue keys (Boneh-Drijvers-Neven, eprint 2018/483).
    """
    try:
        pairs = list(pairs)
        if agg.count != len(pairs) or not pairs:
            return False
        agg_pt = _bls.g2_from_bytes(bytes(agg.data))
        if agg_pt is None:
            return False
        msgs = {}  # signer's pk point -> its messages, first-seen order
        for pk, msg in pairs:
            pk_pt = _bls.g1_from_bytes(bytes(pk))
            if pk_pt is None:
                return False
            msgs.setdefault(pk_pt, []).append(bytes(msg))
        args = [(_bls.g1_neg(_bls.G1_GEN), agg_pt)]
        args += [(pk_pt, _bls.hash_to_g2(ms[0]) if len(ms) == 1
                  else _bls.g2_clear_cofactor(*map(_bls.map_to_curve, ms)))
                 for pk_pt, ms in msgs.items()]
        return _bls.multi_pairing_is_one(args)
    except Exception:
        return False


# ---------------------------------------------------------------------------
# session scheme

def session_keygen(seed: bytes | None = None) -> KeyPair:
    if seed is None:
        seed = os.urandom(32)
    d, q = _ec.keygen(seed)
    return KeyPair(sk=int(d).to_bytes(32, "big"), pk=_ec.point_to_bytes(q))


def session_sign(sk: bytes, message: bytes) -> bytes:
    if not isinstance(sk, (bytes, bytearray)) or len(sk) != 32:
        raise ValueError("malformed secret key")
    d = int.from_bytes(sk, "big")
    if not 1 <= d < _ec.N:
        raise ValueError("secret key out of range")
    return _ec.sign(d, bytes(message))


def session_verify(pk: bytes, message: bytes, sig: bytes) -> bool:
    try:
        return _ec.verify(_ec.point_from_bytes(bytes(pk)), bytes(message), bytes(sig))
    except Exception:
        return False
