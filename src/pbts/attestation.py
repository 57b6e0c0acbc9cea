"""Receipted piece transfers: per-piece, adaptive, batched, and session modes.

A receipt is a downloader's signed statement that it received pieces of a
torrent from a particular sender during an epoch.  Epochs discretize time
into fixed windows; verifiers accept receipts from the current window and the
``delta`` preceding ones, so a receipt is replayable only inside a bounded
horizon and the deduplication set kept by the tracker needs to cover exactly
that horizon.

Attestation policies trade signature count against verification cost:

* per-piece -- one long-term signature per piece (n signatures).
* adaptive  -- full coverage of the first and last runs of pieces plus a
               strided sample in between.
* batch     -- one signature per k pieces.
* session   -- one long-term signature certifying an ephemeral session key,
               then one cheap session signature per piece.

The first three issue one kind of long-term receipt: a signature over a
Merkle root of position-bound piece digests, with one message
(``pieces_msg``) and one per-receipt check (``verify_receipt``).  A per-piece
receipt is the batch of one, whose root is its one leaf; whoever checks a
report rebuilds the message (``signed_msg``) from torrent, reporter and record.
A session cert signs ``cert_msg`` and each session receipt signs
``session_receipt_msg``; both take their fields, so whoever checks a report
rebuilds them from torrent, reporter and record as well.  Whatever kind
carries a piece, its replay id is the same (``piece_ids``), so a piece is
credited at most once inside the window.

A policy's rules (JSON name, signature count, coverage, scheme, batch size)
live on its class; no other module tests a policy's type to learn them.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields, replace
from typing import ClassVar

from . import sigcrypto as sc

DEFAULT_EPOCH_WINDOW = 3600
DEFAULT_EPOCH_DELTA = 2


@dataclass(frozen=True)
class EpochParams:
    window: int = DEFAULT_EPOCH_WINDOW
    delta: int = DEFAULT_EPOCH_DELTA


def epoch_of(t: int, params: EpochParams) -> int:
    if t < 0:
        raise ValueError("time must be non-negative")
    return int(t) // params.window


def epoch_in_window(epoch: int, now_epoch: int, params: EpochParams) -> bool:
    """Acceptance window for a claimed epoch: the current epoch and the
    ``delta`` before it."""
    return now_epoch - params.delta <= epoch <= now_epoch


# ---------------------------------------------------------------------------
# torrent metadata


@dataclass(frozen=True)
class TorrentMeta:
    name: str
    piece_size: int
    length: int
    piece_hashes: tuple
    infohash: bytes

    @property
    def num_pieces(self) -> int:
        return len(self.piece_hashes)


def make_torrent(name: str, piece_hashes, piece_size: int, length: int | None = None) -> TorrentMeta:
    hashes = tuple(bytes(h) for h in piece_hashes)
    if not hashes:
        raise ValueError("a torrent needs at least one piece")
    if any(len(h) != sc.DIGEST_LEN for h in hashes):
        raise ValueError("piece hashes must be digests")
    if length is None:
        length = piece_size * len(hashes)
    if not (piece_size * (len(hashes) - 1) < length <= piece_size * len(hashes)):
        raise ValueError("length inconsistent with piece count")
    fields = [(sc.TAG_ATOM, name.encode()), (sc.TAG_UINT, sc.enc_uint(piece_size))]
    fields += [(sc.TAG_DIGEST, h) for h in hashes]
    infohash = sc.hash_data(sc.canonical_encode(fields))
    return TorrentMeta(
        name=name, piece_size=piece_size, length=length, piece_hashes=hashes, infohash=infohash
    )


def piece_matches(meta: TorrentMeta, index: int, piece_hash: bytes) -> bool:
    """The torrent has a piece at *index* and its digest is *piece_hash*."""
    return 0 <= index < meta.num_pieces and piece_hash == meta.piece_hashes[index]


def piece_len(meta: TorrentMeta, index: int) -> int:
    if not 0 <= index < meta.num_pieces:
        raise IndexError(index)
    if index == meta.num_pieces - 1:
        return meta.length - meta.piece_size * (meta.num_pieces - 1)
    return meta.piece_size


# ---------------------------------------------------------------------------
# long-term receipts: one signature over a Merkle root of the pieces


def _merkle_leaf(index: int, piece_hash: bytes) -> bytes:
    return sc.hash_data(
        sc.canonical_encode([(sc.TAG_UINT, sc.enc_uint(index)), (sc.TAG_DIGEST, piece_hash)])
    )


def _merkle_node(left: bytes, right: bytes) -> bytes:
    return sc.hash_data(
        sc.canonical_encode([(sc.TAG_DIGEST, left), (sc.TAG_DIGEST, right)])
    )


def merkle_root(leaves) -> bytes:
    """Root of a binary Merkle tree; an unpaired last node is promoted to the
    next level unchanged."""
    level = list(leaves)
    if not level:
        raise ValueError("empty leaf set")
    while len(level) > 1:
        nxt = [_merkle_node(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


@dataclass(frozen=True)
class Receipt:
    """A long-term receipt for one piece: the batch of one."""

    infohash: bytes
    sender_pk: bytes
    receiver_pk: bytes
    piece_hash: bytes
    index: int
    epoch: int
    sig: bytes

    @property
    def pieces(self) -> tuple:
        return ((self.index, self.piece_hash),)


@dataclass(frozen=True)
class BatchReceipt:
    infohash: bytes
    sender_pk: bytes
    receiver_pk: bytes
    indices: tuple
    piece_hashes: tuple
    epoch: int
    sig: bytes

    @property
    def pieces(self) -> tuple:
        """((index, piece hash), ...), or () when the two columns differ in
        length, which no signed message describes."""
        if len(self.indices) != len(self.piece_hashes):
            return ()
        return tuple(zip(self.indices, self.piece_hashes))


def pieces_msg(infohash: bytes, sender_pk: bytes, pieces, epoch: int) -> bytes:
    """The message every long-term receipt signs: the torrent, the sender,
    the epoch and the Merkle root of position-bound (index, piece hash)
    leaves.  Over one leaf the root is that leaf, so a per-piece receipt is
    the batch of one."""
    root = merkle_root([_merkle_leaf(i, h) for i, h in pieces])
    return sc.canonical_encode(
        [
            (sc.TAG_ATOM, b"batch-receipt"),
            (sc.TAG_BYTES, infohash),
            (sc.TAG_PUBKEY, sender_pk),
            (sc.TAG_DIGEST, root),
            (sc.TAG_UINT, sc.enc_uint(epoch)),
        ]
    )


def receipt_msg(infohash: bytes, sender_pk: bytes, piece_hash: bytes, index: int, epoch: int) -> bytes:
    return pieces_msg(infohash, sender_pk, ((index, piece_hash),), epoch)


def signed_msg(infohash: bytes, sender_pk: bytes, pieces, epoch: int,
               meta: TorrentMeta | None):
    """The message a long-term receipt over *pieces* signs, or None when the
    claim is malformed (no pieces, unsorted or repeated indices, an epoch
    that does not fit 8 bytes) or, given *meta*, names a piece the torrent
    does not have.  The caller vouches for *infohash* and *sender_pk*."""
    indices = [i for i, _ in pieces]
    if not pieces or indices != sorted(set(indices)) or not sc.fits_uint(epoch):
        return None
    if meta is not None and not all(piece_matches(meta, i, h) for i, h in pieces):
        return None
    return pieces_msg(infohash, sender_pk, pieces, epoch)


def attest(receiver: sc.KeyPair, infohash: bytes, sender_pk: bytes, piece: bytes,
           index: int, t: int, params: EpochParams) -> Receipt:
    """Sign a receipt for a received piece at wall-clock time *t*."""
    r = Receipt(infohash, sender_pk, receiver.pk, sc.hash_data(piece), index,
                epoch_of(t, params), b"")
    return replace(r, sig=sc.sign(receiver.sk, pieces_msg(infohash, sender_pk, r.pieces, r.epoch)))


def batch_attest(receiver: sc.KeyPair, infohash: bytes, sender_pk: bytes,
                 pieces: dict, t: int, params: EpochParams) -> BatchReceipt:
    """One signature covering several pieces; *pieces* maps index -> content."""
    if not pieces:
        raise ValueError("empty batch")
    indices = tuple(sorted(pieces))
    br = BatchReceipt(infohash, sender_pk, receiver.pk, indices,
                      tuple(sc.hash_data(pieces[i]) for i in indices), epoch_of(t, params), b"")
    return replace(br, sig=sc.sign(receiver.sk, pieces_msg(infohash, sender_pk, br.pieces, br.epoch)))


def verify_receipt(r, meta: TorrentMeta | None, t_now: int, params: EpochParams) -> bool:
    """Check a long-term receipt of either shape.  With *meta* the receipt's
    torrent and each piece digest are bound to it; without it only the
    signature and the epoch window are checked."""
    try:
        if not epoch_in_window(r.epoch, epoch_of(t_now, params), params):
            return False
        if meta is not None and r.infohash != meta.infohash:
            return False
        msg = signed_msg(r.infohash, r.sender_pk, r.pieces, r.epoch, meta)
        return msg is not None and sc.verify(r.receiver_pk, msg, r.sig)
    except Exception:
        return False


def piece_ids(infohash: bytes, sender_pk: bytes, receiver_pk: bytes, pieces, epoch: int):
    """The replay id of each piece a receipt of any kind credits.  Two credits
    with one id are the same transfer, whichever kind carried them."""
    return [(infohash, sender_pk, receiver_pk, i, h, epoch) for i, h in pieces]


# ---------------------------------------------------------------------------
# session mode: certify an ephemeral key once, then sign cheaply per piece


@dataclass(frozen=True)
class SessionCert:
    infohash: bytes
    sender_pk: bytes
    receiver_pk: bytes
    session_pk: bytes
    epoch: int
    sig: bytes


@dataclass(frozen=True)
class SessionReceipt:
    piece_hash: bytes
    index: int
    epoch: int
    sig: bytes


def cert_msg(infohash: bytes, sender_pk: bytes, session_pk: bytes, epoch: int) -> bytes:
    """The message a session cert's long-term signature covers."""
    return sc.canonical_encode(
        [
            (sc.TAG_ATOM, b"session-cert"),
            (sc.TAG_BYTES, infohash),
            (sc.TAG_PUBKEY, sender_pk),
            (sc.TAG_BYTES, session_pk),
            (sc.TAG_UINT, sc.enc_uint(epoch)),
        ]
    )


def session_receipt_msg(infohash: bytes, sender_pk: bytes, piece_hash: bytes,
                        index: int, epoch: int) -> bytes:
    """The message a session receipt's session signature covers."""
    return sc.canonical_encode(
        [
            (sc.TAG_ATOM, b"session-receipt"),
            (sc.TAG_BYTES, infohash),
            (sc.TAG_PUBKEY, sender_pk),
            (sc.TAG_DIGEST, piece_hash),
            (sc.TAG_UINT, sc.enc_uint(index)),
            (sc.TAG_UINT, sc.enc_uint(epoch)),
        ]
    )


def open_session(receiver: sc.KeyPair, infohash: bytes, sender_pk: bytes,
                 t: int, params: EpochParams):
    """Mint a session key for one (torrent, sender) exchange and certify it
    with the receiver's long-term key.  Returns (cert, session keypair).  The
    session key is derived deterministically so a re-opened session in the
    same epoch reuses the same key."""
    epoch = epoch_of(t, params)
    seed = hashlib.sha256(
        b"session-key" + receiver.sk + infohash + sender_pk + sc.enc_uint(epoch)
    ).digest()
    skp = sc.session_keygen(seed)
    sig = sc.sign(receiver.sk, cert_msg(infohash, sender_pk, skp.pk, epoch))
    return SessionCert(infohash, sender_pk, receiver.pk, skp.pk, epoch, sig), skp


def session_attest(session_sk: bytes, cert: SessionCert, piece: bytes,
                   index: int, t: int, params: EpochParams) -> SessionReceipt:
    piece_hash = sc.hash_data(piece)
    epoch = epoch_of(t, params)
    msg = session_receipt_msg(cert.infohash, cert.sender_pk, piece_hash, index, epoch)
    return SessionReceipt(
        piece_hash=piece_hash, index=index, epoch=epoch, sig=sc.session_sign(session_sk, msg)
    )


def verify_session_receipt(cert: SessionCert, sr: SessionReceipt, meta: TorrentMeta | None,
                           t_now: int, params: EpochParams) -> bool:
    """Check one session receipt under *cert*'s session key.  The cert's own
    signature is not checked here: a report checks it in its aggregate."""
    try:
        if meta is not None:
            if cert.infohash != meta.infohash:
                return False
            if not piece_matches(meta, sr.index, sr.piece_hash):
                return False
        if not epoch_in_window(sr.epoch, epoch_of(t_now, params), params):
            return False
        msg = session_receipt_msg(cert.infohash, cert.sender_pk, sr.piece_hash, sr.index, sr.epoch)
        return sc.session_verify(cert.session_pk, msg, sr.sig)
    except Exception:
        return False


# ---------------------------------------------------------------------------
# policies
#
# Each policy class is the one definition of its mode: ``name`` is its JSON
# tag, ``signatures(n)`` the long-term-equivalent signatures a downloader
# issues for an n-piece torrent, ``covers(index, n)`` whether piece *index*
# earns credit through a receipt, and ``session`` whether the per-piece
# signatures use the cheap session scheme.  A long-term policy's ``k`` is the
# covered pieces per receipt, a class constant 1 but for batch.  Every
# parameter is an integer.


def _piece_count(n: int) -> int:
    if n < 0:
        raise ValueError("negative piece count")
    return n


@dataclass(frozen=True)
class PerPiecePolicy:
    name: ClassVar[str] = "per-piece"
    session: ClassVar[bool] = False
    k: ClassVar[int] = 1

    def signatures(self, n: int) -> int:
        return _piece_count(n)

    def covers(self, index: int, n: int) -> bool:
        return True


@dataclass(frozen=True)
class AdaptivePolicy:
    """Receipts for the first *head* pieces, the last *tail*, and every
    *stride*-th one in between."""

    name: ClassVar[str] = "adaptive"
    session: ClassVar[bool] = False
    k: ClassVar[int] = 1
    head: int = 100
    stride: int = 10
    tail: int = 100

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("adaptive stride must be at least 1")
        if self.head < 0 or self.tail < 0:
            raise ValueError("adaptive head and tail must be non-negative")

    def signatures(self, n: int) -> int:
        covered = self.head + self.tail
        if _piece_count(n) <= covered:
            return n
        return covered + -(-(n - covered) // self.stride)

    def covers(self, index: int, n: int) -> bool:
        return (n <= self.head + self.tail or index < self.head
                or index >= n - self.tail or (index - self.head) % self.stride == 0)


@dataclass(frozen=True)
class BatchPolicy:
    """One receipt per *k* pieces from the same sender; every piece is
    credited through the batch that carries it."""

    name: ClassVar[str] = "batch"
    session: ClassVar[bool] = False
    k: int = 16

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("batch size k must be at least 1")

    def signatures(self, n: int) -> int:
        return -(-_piece_count(n) // self.k)

    def covers(self, index: int, n: int) -> bool:
        return True


@dataclass(frozen=True)
class SessionPolicy:
    """n cheap per-piece signatures; the one long-term signature on the
    session certificate is counted separately by the cost model."""

    name: ClassVar[str] = "session"
    session: ClassVar[bool] = True

    def signatures(self, n: int) -> int:
        return _piece_count(n)

    def covers(self, index: int, n: int) -> bool:
        return True


@dataclass(frozen=True)
class NullPolicy:
    """No receipts at all — the insecure baseline a swarm runs without
    transfer attestation.  Useful as a control in overhead comparisons."""

    name: ClassVar[str] = "null"
    session: ClassVar[bool] = False

    def signatures(self, n: int) -> int:
        _piece_count(n)
        return 0

    def covers(self, index: int, n: int) -> bool:
        return False


_POLICY_CLASSES = {cls.name: cls for cls in
                   (PerPiecePolicy, AdaptivePolicy, BatchPolicy, SessionPolicy, NullPolicy)}


def policy_to_json(policy) -> dict:
    return {"policy": policy.name, **asdict(policy)}


def json_int(value, what: str) -> int:
    """*value* if it is a JSON integer; a bool, float or string is refused
    rather than converted."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def policy_from_json(doc: dict):
    if type(doc) is not dict or "policy" not in doc:
        raise ValueError(f"a policy must be an object with a 'policy' name, not {doc!r}")
    params = dict(doc)
    name = params.pop("policy")
    cls = _POLICY_CLASSES.get(name)
    if cls is None:
        raise ValueError(f"unknown policy name {name!r}")
    unknown = set(params) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} policy fields: {sorted(unknown)}")
    return cls(**{k: json_int(v, f"{name} policy field {k!r}") for k, v in params.items()})
