"""Simulated reputation chain: factory contracts with attested writes.

Each contract is a per-tracker-instance reputation store mapping uid ->
(pk, uploaded, downloaded).  Writes require an auth token proving the writer
is the attested owner; reads are free and unauthenticated.  A contract may
name a referrer (its predecessor before a migration): reads fall through to
the referrer's *local* records — exactly one hop, so state two migrations
back is deliberately unreachable.

Every accepted operation is one entry of a JSON-lines log (a deployment, or
a write of one or more records, applied all or none).  It travels as the
payload its owner signed, and a live request is checked, not only applied,
by the code that replays the log.  The log is the persistence format: a log
cut at any entry boundary rebuilds the state after some whole operation,
and corruption is reported with the first bad seq.

The auth token is an attestation quote plus a session-scheme signature over
the operation payload by the key bound into the quote's nonce field
(nonce = H(signing pk)[:16]).  Splicing a genuine quote onto a different key
breaks the nonce binding; writing with a key whose quote fails the allowlist
check is rejected outright.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from . import enclave as encl
from . import sigcrypto as sc

ADDR_LEN = 20


class ChainError(Exception):
    pass


class ChainLogCorrupt(ChainError):
    def __init__(self, seq: int, reason: str):
        super().__init__(f"chain log corrupt at seq {seq}: {reason}")
        self.seq = seq
        self.reason = reason


@dataclass(frozen=True)
class ReputationRecord:
    uid: bytes
    pk: bytes
    up: int
    down: int


@dataclass(frozen=True)
class AuthToken:
    quote: encl.AttestationQuote
    sig: bytes

    def to_bytes(self) -> bytes:
        return sc.canonical_encode(
            [(sc.TAG_BYTES, self.quote.to_bytes()), (sc.TAG_SIG, self.sig)]
        )

    def fingerprint(self) -> bytes:
        return sc.hash_data(self.to_bytes())


def make_auth(quote: encl.AttestationQuote, auth_sk: bytes, payload: bytes) -> AuthToken:
    return AuthToken(quote=quote, sig=sc.session_sign(auth_sk, payload))


def auth_nonce_for(pk: bytes) -> bytes:
    """The quote nonce that binds an attestation to a contract signing key."""
    return sc.hash_data(pk)[: encl.NONCE_LEN]


@dataclass
class Contract:
    addr: bytes
    iid: bytes
    referrer: bytes | None
    owner_pk: bytes
    data: dict = field(default_factory=dict)  # uid -> (pk, up, down)


@dataclass
class Chain:
    allowlist: set
    hw_root_pk: bytes
    contracts: dict = field(default_factory=dict)
    nonce: int = 0  # factory deployment counter
    _seq: int = 0
    _fh: object = None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def init_payload(iid: bytes, ref_addr: bytes | None, pk: bytes) -> bytes:
    """The payload of a deployment, which the owner *pk* signs for ``sc_init``."""
    return sc.canonical_encode(
        [
            (sc.TAG_ATOM, b"sc-init"),
            (sc.TAG_BYTES, iid),
            (sc.TAG_BYTES, ref_addr or b""),
            (sc.TAG_PUBKEY, pk),
        ]
    )


def write_payload(addr: bytes, records) -> bytes:
    """The payload of a write of (uid, pk, up, down) *records*, which the
    owner signs for ``sc_write``.  Raises TypeError or ValueError on a record
    the encoding cannot carry."""
    fields = [(sc.TAG_ATOM, b"sc-write"), (sc.TAG_BYTES, addr)]
    for uid, pk, up, down in records:
        fields += [(sc.TAG_BYTES, uid), (sc.TAG_PUBKEY, pk),
                   (sc.TAG_UINT, sc.enc_uint(up)), (sc.TAG_UINT, sc.enc_uint(down))]
    return sc.canonical_encode(fields)


_HEAD_TAGS = (sc.TAG_ATOM, sc.TAG_BYTES)
_INIT_TAGS = _HEAD_TAGS + (sc.TAG_BYTES, sc.TAG_PUBKEY)
_RECORD_TAGS = (sc.TAG_BYTES, sc.TAG_PUBKEY, sc.TAG_UINT, sc.TAG_UINT)


def _derive_addr(nonce: int, init_payload: bytes) -> bytes:
    return sc.hash_data(
        sc.canonical_encode([(sc.TAG_UINT, sc.enc_uint(nonce)), (sc.TAG_BYTES, init_payload)])
    )[:ADDR_LEN]


def _parse(chain: Chain, op: str, addr: bytes | None, payload: bytes):
    """The one judge of a contract operation, live or replayed: what *op*
    with the signed *payload* changes, as (contract, {uid: (pk, up, down)}).
    An init yields its new contract at the factory's next address, which must
    equal *addr* unless that is None (a live deployment); a write yields the
    contract at *addr*.  Raises ValueError naming the first rule broken."""
    fields = sc.canonical_decode(payload)
    tags, values = zip(*fields) if fields else ((), ())
    if op == "init" and tags == _INIT_TAGS and values[0] == b"sc-init":
        _, iid, ref, pk = values
        if ref and ref not in chain.contracts:
            raise ValueError("unknown referrer")
        new = _derive_addr(chain.nonce, payload)
        if addr not in (None, new):
            raise ValueError("address does not match factory nonce")
        return Contract(addr=new, iid=iid, referrer=ref or None, owner_pk=pk), {}
    n = (len(fields) - 2) // 4
    if op != "write" or n < 1 or tags != _HEAD_TAGS + _RECORD_TAGS * n or values[0] != b"sc-write":
        raise ValueError(f"bad {op!r} payload shape")
    if values[1] != addr or addr not in chain.contracts:
        raise ValueError("write to unknown contract")
    records = {values[i]: (values[i + 1], sc.dec_uint(values[i + 2]), sc.dec_uint(values[i + 3]))
               for i in range(2, len(values), 4)}
    if len(records) != n:
        raise ValueError("a uid named twice")
    return chain.contracts[addr], records


def _apply(chain: Chain, op: str, contract: Contract, records: dict) -> None:
    if op == "init":
        chain.contracts[contract.addr] = contract
        chain.nonce += 1
    contract.data.update(records)


def _check_auth(chain: Chain, owner_pk: bytes, payload: bytes, auth: AuthToken) -> bool:
    try:
        if not encl.verify_quote(auth.quote, chain.allowlist, chain.hw_root_pk):
            return False
        if auth.quote.nonce != auth_nonce_for(owner_pk):
            return False
        return sc.session_verify(owner_pk, payload, auth.sig)
    except Exception:
        return False


def _append_log(chain: Chain, op: str, addr: bytes, payload: bytes, auth: AuthToken) -> None:
    chain._seq += 1
    if chain._fh is None:
        return
    entry = {
        "seq": chain._seq,
        "op": op,
        "addr": addr.hex(),
        "payload": payload.hex(),
        "auth_fp": auth.fingerprint().hex(),
    }
    chain._fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
    chain._fh.flush()


def chain_new(allowlist, hw_root_pk: bytes, path: str | None = None) -> Chain:
    """Fresh chain, or one replayed from an existing log file at *path*."""
    chain = Chain(allowlist=set(allowlist), hw_root_pk=bytes(hw_root_pk))
    if path is not None and os.path.exists(path) and os.path.getsize(path) > 0:
        _replay(chain, path)
    if path is not None:
        chain._fh = open(path, "a", encoding="ascii")
    return chain


def _log_entries(path: str):
    """The one parser of a log file: yields (entry dict, op, addr, payload)
    per line, in seq order; raises ChainLogCorrupt at the first entry that does
    not parse or is out of sequence."""
    with open(path, "rb") as fh:
        raw = fh.read()
    expect = 0
    for line in raw.split(b"\n"):
        if line == b"":
            continue
        expect += 1
        try:
            entry = json.loads(line)
            seq, op = entry["seq"], entry["op"]
            addr = bytes.fromhex(entry["addr"])
            payload = bytes.fromhex(entry["payload"])
            bytes.fromhex(entry["auth_fp"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ChainLogCorrupt(expect, f"unparseable entry ({exc.__class__.__name__})")
        if seq != expect:
            raise ChainLogCorrupt(expect, f"sequence number {seq} where {expect} expected")
        yield entry, op, addr, payload


def _replay(chain: Chain, path: str) -> None:
    for entry, op, addr, payload in _log_entries(path):
        try:
            contract, records = _parse(chain, op, addr, payload)
        except ValueError as exc:
            raise ChainLogCorrupt(entry["seq"], str(exc))
        _apply(chain, op, contract, records)
        chain._seq = entry["seq"]


def _submit(chain: Chain, op: str, addr: bytes | None, payload: bytes, auth: AuthToken):
    """Log and apply a live operation that ``_parse`` accepts and its
    owner's auth token covers; returns the contract's address, else None."""
    try:
        contract, records = _parse(chain, op, addr, payload)
    except (TypeError, ValueError):  # TypeError: a payload that is not bytes
        return None
    if not _check_auth(chain, contract.owner_pk, payload, auth):
        return None
    _append_log(chain, op, contract.addr, payload, auth)
    _apply(chain, op, contract, records)
    return contract.addr


def sc_init(chain: Chain, payload: bytes, auth: AuthToken):
    """Deploy the contract an ``init_payload`` describes; its address, or None
    if the payload is refused or *auth* proves no attested owner of its key."""
    return _submit(chain, "init", None, payload, auth)


def sc_read(chain: Chain, addr: bytes, uid: bytes):
    """Record for uid, following at most one referrer hop; None if absent."""
    try:
        contract = chain.contracts[addr]
    except KeyError:
        raise ChainError(f"unknown contract {addr.hex()}")
    for c in (contract, chain.contracts.get(contract.referrer)):
        if c is not None and uid in c.data:
            return ReputationRecord(uid, *c.data[uid])
    return None


def sc_write(chain: Chain, addr: bytes, payload: bytes, auth: AuthToken) -> bool:
    """Owner-only write of the records ``write_payload`` *payload* carries,
    all or none; False on any failure."""
    return _submit(chain, "write", addr, payload, auth) is not None


def get_referrer(chain: Chain, addr: bytes):
    try:
        return chain.contracts[addr].referrer
    except KeyError:
        raise ChainError(f"unknown contract {addr.hex()}")


def serialize_state(chain: Chain) -> bytes:
    """Canonical byte serialization of all contract state (for equality and
    digest checks; independent of log or file-handle details)."""
    doc = {
        "nonce": chain.nonce,
        "contracts": {
            addr.hex(): {
                "iid": c.iid.hex(),
                "referrer": c.referrer.hex() if c.referrer else None,
                "owner_pk": c.owner_pk.hex(),
                "records": {
                    uid.hex(): [pk.hex(), up, down] for uid, (pk, up, down) in c.data.items()
                },
            }
            for addr, c in chain.contracts.items()
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def state_digest(chain: Chain) -> bytes:
    return sc.hash_data(serialize_state(chain))


def read_log(path: str):
    """A chain log file's entry dicts (used by the CLI dump); raises
    ChainLogCorrupt as replay would."""
    return [entry for entry, *_ in _log_entries(path)]
