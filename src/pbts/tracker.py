"""Enclave-resident tracker: registration, gated announces, receipted reports.

The tracker runs inside an attested enclave and owns one reputation contract.
Registration writes a user's key and starting credit on chain; announces gate
swarm admission on the up/down ratio and hand back peer samples; reports
carry receipt-backed upload claims that are verified in aggregate, credited
exactly, and deduplicated over a bounded epoch horizon.  There are two report
kinds: long-term receipts, where a per-piece receipt is a batch of one, and
session receipts under a certified key.  Both spend one replay id per piece,
so a piece credited through either cannot be credited again inside the
window, and a report overlapping a credited piece is refused whole.

A report carries each fact once: the reporter's uid and key, the torrent's
infohash, per receipt or cert a record of what its signature does not take
from the report (downloader uid and key, epoch, pieces or session key), the
one aggregate that replaces the long-term signatures, and the upload
claimed.  The tracker rebuilds each signed message from its torrent and the
reporter's key.  Each kind has one expander that turns a payload into its
claims, the pairs its aggregate covers and the checks of the signatures it
does not (session receipts); ``signatures_hold`` runs those signature
checks, and a sender runs it too, on each report it builds.  Nobody
reports their own download: others' receipts credit it.

Migration spins up a successor instance whose contract names the old one as
referrer, so one previous generation of records stays readable.

All mutating entry points are serial; a rejected call leaves tracker and
contract state exactly as it found them.  Every check runs before the
request's one contract write, which carries the reporter's record and every
credited downloader's and lands whole or not at all; receipts are spent only
once it has landed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import attestation as at
from . import contract as ct
from . import enclave as encl
from . import sigcrypto as sc

DEFAULT_SAMPLE_CAP = 50

EVENTS = ("started", "stopped", "completed", "none")


@dataclass(frozen=True)
class PublicParams:
    lam: int
    iid: bytes
    min_rep: Fraction
    init_credit: int


def setup(lam: int, min_rep, init_credit: int, rng: random.Random) -> PublicParams:
    if lam not in (128, 256):
        raise ValueError("unsupported security parameter")
    iid = rng.getrandbits(lam).to_bytes(lam // 8, "big")
    return PublicParams(
        lam=lam, iid=iid, min_rep=Fraction(min_rep), init_credit=int(init_credit)
    )


def rep(up: int, down: int):
    """Upload/download ratio; infinite when nothing has been downloaded, so a
    freshly registered user always clears the admission threshold."""
    if up < 0 or down < 0:
        raise ValueError("negative byte counters")
    if down == 0:
        return math.inf
    return Fraction(up, down)


def register_msg(iid: bytes, uid: bytes) -> bytes:
    return sc.canonical_encode(
        [(sc.TAG_ATOM, b"register"), (sc.TAG_BYTES, iid), (sc.TAG_BYTES, uid)]
    )


def announce_msg(uid: bytes, tid: bytes, event: str) -> bytes:
    return sc.canonical_encode(
        [
            (sc.TAG_ATOM, b"announce"),
            (sc.TAG_BYTES, uid),
            (sc.TAG_BYTES, tid),
            (sc.TAG_ATOM, event.encode()),
        ]
    )


# ---------------------------------------------------------------------------
# report payloads


@dataclass(frozen=True)
class ReportPayload:
    uid: bytes
    pk: bytes
    infohash: bytes
    receipts: tuple       # (downloader uid, downloader pk, epoch, ((index, piece hash), ...))
    agg_sig: sc.AggregateSignature
    delta_up: int         # the upload claimed, which the receipts must add up to


@dataclass(frozen=True)
class SessionReportPayload:
    uid: bytes
    pk: bytes
    infohash: bytes
    sessions: tuple       # (downloader uid, pk, session pk, cert epoch, (SessionReceipt, ...))
    agg_sig: sc.AggregateSignature
    delta_up: int


def build_report(uid: bytes, pk: bytes, meta: at.TorrentMeta, entries,
                 _params=None) -> ReportPayload:
    """Assemble a report from (long-term receipt, downloader uid) pairs the
    reporter collected while seeding: a record per receipt, and one aggregate
    for their signatures.  Pieces are the aggregate check's to judge; one the
    torrent lacks counts no bytes.  *_params* is unused (epoch parameters)."""
    records, sigs = [], []
    total = 0
    for r, peer_uid in entries:
        if r.sender_pk != pk or r.infohash != meta.infohash:
            raise ValueError("receipt does not belong to this reporter/torrent")
        records.append((peer_uid, r.receiver_pk, r.epoch, r.pieces))
        sigs.append(r.sig)
        total += sum(at.piece_len(meta, j) for j, _ in r.pieces if 0 <= j < meta.num_pieces)
    return ReportPayload(uid=uid, pk=pk, infohash=meta.infohash, receipts=tuple(records),
                         agg_sig=sc.aggregate(sigs), delta_up=total)


def build_batch_report(uid: bytes, pk: bytes, meta: at.TorrentMeta, entries) -> ReportPayload:
    return build_report(uid, pk, meta, entries)


def build_session_report(uid: bytes, pk: bytes, meta: at.TorrentMeta,
                         sessions) -> SessionReportPayload:
    """*sessions* is an iterable of (cert, downloader uid, [session receipts]).
    Each cert travels as its record; the aggregate replaces their signatures."""
    out, sigs = [], []
    total = 0
    for cert, peer_uid, srs in sessions:
        if cert.sender_pk != pk or cert.infohash != meta.infohash:
            raise ValueError("cert does not belong to this reporter/torrent")
        out.append((peer_uid, cert.receiver_pk, cert.session_pk, cert.epoch, tuple(srs)))
        sigs.append(cert.sig)
        total += sum(at.piece_len(meta, sr.index) for sr in srs)
    return SessionReportPayload(uid=uid, pk=pk, infohash=meta.infohash, sessions=tuple(out),
                                agg_sig=sc.aggregate(sigs), delta_up=total)


def _receipt_claims(p: ReportPayload, meta: at.TorrentMeta):
    """Each record is its own claim; its pair is (downloader pk, the message
    rebuilt from the torrent and the reporter's key).  None if a record names
    no message."""
    pairs = []
    for _, pk_j, e_j, pieces in p.receipts:
        msg = at.signed_msg(meta.infohash, p.pk, pieces, e_j, meta)
        if msg is None:
            return None
        pairs.append((pk_j, msg))
    return p.receipts, pairs, ()


def _session_claims(p: SessionReportPayload, meta: at.TorrentMeta):
    """One claim per session receipt, then one per cert for the cert's own
    epoch and downloader: a cert is checked even when no receipt uses it.
    The aggregate covers the certs, rebuilt from the torrent and the
    reporter's key; each receipt's session signature is an item check, whose
    message is built only when the check runs."""
    claims = []
    for uid_j, pk_j, _, epoch, srs in p.sessions:
        if not sc.fits_uint(epoch):
            return None
        for sr in srs:
            if not at.piece_matches(meta, sr.index, sr.piece_hash):
                return None
            claims.append((uid_j, pk_j, sr.epoch, ((sr.index, sr.piece_hash),)))
    claims += [(uid_j, pk_j, epoch, ()) for uid_j, pk_j, _, epoch, _ in p.sessions]
    pairs = [(pk_j, at.cert_msg(meta.infohash, p.pk, session_pk, epoch))
             for _, pk_j, session_pk, epoch, _ in p.sessions]
    item_checks = (sc.session_verify(session_pk, at.session_receipt_msg(
                       meta.infohash, p.pk, sr.piece_hash, sr.index, sr.epoch), sr.sig)
                   for _, _, session_pk, _, srs in p.sessions for sr in srs)
    return claims, pairs, item_checks


def _expand(p, meta: at.TorrentMeta):
    """What a report of either kind claims, given its torrent: None when a
    binding of the kind's own fails, else (claims, pairs, item_checks).
    Claims are (downloader uid, pk, epoch, pieces) in payload order, pieces
    being ((index, piece hash), ...) already matched against the torrent;
    one with no pieces credits nothing but is checked all the same.  The
    aggregate must cover *pairs*; item_checks yields the outcome of each
    signature the aggregate does not cover."""
    expand = _session_claims if isinstance(p, SessionReportPayload) else _receipt_claims
    return expand(p, meta)


def signatures_hold(p, meta: at.TorrentMeta) -> bool:
    """Whether every signature report *p* carries holds: its aggregate over
    the messages its records name, and each item check.  The tracker's
    signature check, which a sender also runs on each report it builds; it
    judges no epoch, identity or replay."""
    try:
        expanded = _expand(p, meta)
        if expanded is None:
            return False
        _, pairs, item_checks = expanded
        return sc.aggregate_verify(pairs, p.agg_sig) and all(item_checks)
    except (AttributeError, TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------


@dataclass
class Tracker:
    pp: PublicParams
    epoch: at.EpochParams
    chain: ct.Chain
    addr: bytes
    quote: encl.AttestationQuote
    auth: sc.KeyPair
    swarms: dict = field(default_factory=dict)    # tid -> {pk: (ip, port)}
    torrents: dict = field(default_factory=dict)  # infohash -> TorrentMeta
    recent: dict = field(default_factory=dict)    # ReceiptID -> insertion epoch
    rng: random.Random = field(default_factory=random.Random)

    # -- provisioning --------------------------------------------------------

    @classmethod
    def launch(cls, world: encl.EnclaveWorld, chain: ct.Chain, pp: PublicParams,
               program_id: bytes, config: bytes,
               epoch: at.EpochParams | None = None,
               ref_addr: bytes | None = None):
        """Provision a tracker instance: measure, attest, derive the contract
        owner key from the KMS, and deploy the reputation contract, with
        *ref_addr* as its referrer if given.  Returns None, the chain
        untouched, when the KMS or ``sc_init`` refuses."""
        m = encl.measure(program_id, config)
        boot_quote = encl.attest_quote(world, m, b"\x00" * encl.NONCE_LEN)
        root = encl.kms_derive(world, boot_quote)
        if root is None:
            return None
        auth = encl.derive_contract_auth_keys(root)
        quote = encl.attest_quote(world, m, ct.auth_nonce_for(auth.pk))
        payload = ct.init_payload(pp.iid, ref_addr, auth.pk)
        addr = ct.sc_init(chain, payload, ct.make_auth(quote, auth.sk, payload))
        if addr is None:
            return None
        return cls(
            pp=pp,
            epoch=epoch or at.EpochParams(),
            chain=chain,
            addr=addr,
            quote=quote,
            auth=auth,
            rng=random.Random(int.from_bytes(sc.hash_data(root.sk + pp.iid)[:8], "big")),
        )

    def add_torrent(self, meta: at.TorrentMeta) -> None:
        self.torrents[meta.infohash] = meta

    def _write(self, uid: bytes, pk: bytes, up: int, down: int, *more) -> bool:
        """One attested contract write of (uid, pk, up, down) and of each
        further such record in *more*: all of them land, or none does."""
        try:
            payload = ct.write_payload(self.addr, [(uid, pk, up, down), *more])
        except (TypeError, ValueError):
            return False  # a record no payload carries: a counter >= 2^64 or not an int
        auth = ct.make_auth(self.quote, self.auth.sk, payload)
        return ct.sc_write(self.chain, self.addr, payload, auth)

    # -- user-facing operations ---------------------------------------------

    def register(self, uid: bytes, pk: bytes, sig: bytes) -> bool:
        """The registration signature also serves as proof of possession of
        the announced key, which is what makes aggregate report verification
        safe against rogue-key composition."""
        if not isinstance(uid, bytes) or not sc.verify(pk, register_msg(self.pp.iid, uid), sig):
            return False
        if ct.sc_read(self.chain, self.addr, uid) is not None:
            return False
        return self._write(uid, pk, self.pp.init_credit, 0)

    def announce(self, uid: bytes, pk: bytes, sig: bytes, tid: bytes, event: str,
                 ip: str, port: int):
        """Admit an announce into swarm *tid*'s view and return a sample of at
        most ``DEFAULT_SAMPLE_CAP`` other peers as (pk, ip, port), or [] when
        the announce is refused.  Only "started" is gated on reputation, so a
        peer below the threshold can still leave or finish."""
        if (event not in EVENTS or not all(isinstance(x, bytes) for x in (uid, pk, tid))
                or not isinstance(ip, str) or type(port) is not int or not 0 < port < 1 << 16):
            return []
        record = self._resolve(pk, uid)
        if record is None or not sc.verify(pk, announce_msg(uid, tid, event), sig):
            return []
        if event == "started" and rep(record.up, record.down) < self.pp.min_rep:
            return []
        view = self.swarms.setdefault(tid, {})
        if event == "stopped":
            view.pop(pk, None)
        else:
            view[pk] = (ip, port)
        others = sorted(p for p in view if p != pk)
        picked = self.rng.sample(others, min(DEFAULT_SAMPLE_CAP, len(others)))
        return [(p, view[p][0], view[p][1]) for p in picked]

    # -- reports -------------------------------------------------------------

    def _resolve(self, pk: bytes, uid: bytes):
        """uid's record on chain if it holds *pk*, else None: the one identity
        rule of announces and reports, so a key registered under two uids acts
        as either."""
        record = ct.sc_read(self.chain, self.addr, uid)
        return record if record is not None and record.pk == pk else None

    def report(self, p, now: int) -> bool:
        """The one admission pipeline of every report kind: credit the report,
        or refuse it with no effect.  Cheap checks run first, then dedup and
        the byte count, then signatures, then the one contract write.  Each
        piece has one replay id whatever kind carries it, and a report naming
        an id already spent is refused whole."""
        try:
            meta = self.torrents.get(p.infohash)
            reporter = self._resolve(p.pk, p.uid)
            if meta is None or reporter is None:
                return False
            expanded = _expand(p, meta)
            if expanded is None:
                return False
            claims, pairs, item_checks = expanded
            now_epoch = at.epoch_of(now, self.epoch)
            resolved, rids, credits = {}, [], {}  # credits: uid -> bytes, first seen first
            for uid_j, pk_j, e_j, pieces in claims:
                if pk_j == p.pk:
                    return False  # no credit for transfers to oneself
                if not at.epoch_in_window(e_j, now_epoch, self.epoch):
                    return False
                if (pk_j, uid_j) not in resolved:
                    resolved[pk_j, uid_j] = self._resolve(pk_j, uid_j)
                    if resolved[pk_j, uid_j] is None:
                        return False
                if pieces:
                    rids += at.piece_ids(meta.infohash, p.pk, pk_j, pieces, e_j)
                    credits[uid_j] = credits.get(uid_j, 0) + sum(at.piece_len(meta, j) for j, _ in pieces)
            if not rids or len(set(rids)) != len(rids) or any(r in self.recent for r in rids):
                return False
            if p.delta_up != sum(credits.values()):
                return False
            if not sc.aggregate_verify(pairs, p.agg_sig) or not all(item_checks):
                return False
        except (AttributeError, TypeError, ValueError):
            return False  # a peer-fed field of the wrong type or shape
        records = {uid: rec for (_, uid), rec in resolved.items()}
        if not self._write(p.uid, reporter.pk, reporter.up + p.delta_up, reporter.down,
                           *((u, records[u].pk, records[u].up, records[u].down + size)
                             for u, size in credits.items())):
            return False
        self.recent.update(dict.fromkeys(rids, now_epoch))
        return True

    report_batch = report_session = report  # the names the benchmark calls

    def gc_recent(self, now: int) -> int:
        """Drop dedup entries old enough that the epoch-window check alone
        rejects their receipts; returns how many were removed."""
        horizon = at.epoch_of(now, self.epoch) - self.epoch.delta - 1
        stale = [rid for rid, e in self.recent.items() if e < horizon]
        for rid in stale:
            del self.recent[rid]
        return len(stale)


def migrate(world: encl.EnclaveWorld, chain: ct.Chain, addr_old: bytes,
            pp_new: PublicParams, program_id: bytes, config: bytes,
            epoch: at.EpochParams | None = None):
    """``Tracker.launch`` of a successor whose contract names *addr_old* as
    its referrer; None when the KMS or ``sc_init`` refuses.  Records two
    migrations back are unreachable by design: the new contract's reads fall
    through exactly one referrer hop."""
    return Tracker.launch(world, chain, pp_new, program_id, config,
                          epoch=epoch, ref_addr=addr_old)
