"""Latency cost model, analytic projections, and host micro-benchmarks.

The published reference latencies live here as the cost model's defaults so
simulated runs charge realistic (and reproducible) milliseconds per
cryptographic operation instead of host-dependent wall time.  The projection
helpers answer two analytic questions: what each attestation policy costs for
a given torrent (`table1`), and how much signing inflates a download
(`throughput_overhead`).  `bench_crypto` measures the same quantities on the
local host for the hardware-relative checks.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from statistics import median

from .. import attestation as at
from .. import sigcrypto as sc

REF_SIGN_MS = 134.19
REF_VERIFY_MS = 340.92
REF_AGG_VERIFY_MS = {10: 1293.18, 25: 3959.54, 50: 6535.18, 100: 14230.40}
# The fast per-piece scheme is cited as roughly 10x cheaper than the
# aggregatable one; no absolute reference latency is published for it.
REF_SESSION_SIGN_MS = REF_SIGN_MS / 10
REF_SESSION_VERIFY_MS = REF_VERIFY_MS / 10

MIB = 1 << 20
GIB = 1 << 30


@dataclass(frozen=True)
class CostModel:
    sign_ms: float = REF_SIGN_MS
    verify_ms: float = REF_VERIFY_MS
    session_sign_ms: float = REF_SESSION_SIGN_MS
    session_verify_ms: float = REF_SESSION_VERIFY_MS
    agg_verify_ms: dict = field(default_factory=lambda: dict(REF_AGG_VERIFY_MS))
    agg_one_signer_ms: dict = field(default_factory=dict)  # measured only

    def __post_init__(self):
        for name in ("sign_ms", "verify_ms", "session_sign_ms", "session_verify_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if any(v <= 0 for v in self.agg_verify_ms.values()):
            raise ValueError("aggregate verify latencies must be positive")


def piece_count(file_size: int, piece_size: int) -> int:
    if file_size <= 0 or piece_size <= 0:
        raise ValueError("sizes must be positive")
    return -(-file_size // piece_size)


def throughput_overhead(file_size: int, bandwidth: float, piece_size: int,
                        policy, cost: CostModel) -> float:
    """Fractional download-time increase caused by receipt signing: the
    policy's signature count times per-op latency, relative to the transfer
    time alone."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    n = piece_count(file_size, piece_size)
    sign_ms = cost.session_sign_ms if policy.session else cost.sign_ms
    signing_s = policy.signatures(n) * sign_ms / 1000.0
    baseline_s = file_size / bandwidth
    return signing_s / baseline_s


# ---------------------------------------------------------------------------
# attestation-policy comparison for one reference torrent

TABLE1_PUBLISHED = {
    "per-piece": {"signatures": 2560, "time_s": 5.1, "report_size": "2.3 MB"},
    "adaptive": {"signatures": 512, "time_s": 1.02, "report_size": "456 KB"},
    "batch": {"signatures": 256, "time_s": 0.51, "report_size": "228 KB"},
    "session": {"signatures": 2560, "time_s": 0.53, "report_size": "160 KB"},
}
TABLE1_POLICIES = (at.PerPiecePolicy(), at.AdaptivePolicy(), at.BatchPolicy(k=10),
                   at.SessionPolicy())


def table1(n: int = 2560, bls_op_ms: float = 2.0, session_op_ms: float = 0.2):
    """Signature counts, combined sign+verify time, and report sizes for the
    four policies over an n-piece torrent.  Per-op latencies default to the
    published projection inputs (2 ms for the aggregatable scheme, 0.2 ms for
    session signatures).

    Report bytes follow the aggregated layout: 32 bytes per covered piece
    hash plus one 96-byte aggregate signature; the session row instead
    carries one 64-byte signature per piece plus the 96-byte certificate
    signature.  For the adaptive row the published figure assumes roughly
    n/5 signatures where the stated head/tail/stride rule gives fewer; both
    values are reported, with the source's under a ``published`` key and a
    ``note`` flagging the discrepancy.
    """
    if bls_op_ms <= 0 or session_op_ms <= 0:
        raise ValueError("per-op latencies must be positive")
    rows = []
    for pol in TABLE1_POLICIES:
        count = pol.signatures(n)
        if pol.session:
            # one certificate: signed once, verified once, with the long-term scheme
            time_ms, report_bytes = count * session_op_ms + 2 * bls_op_ms, 64 * count + 96
        else:
            time_ms, report_bytes = count * bls_op_ms, 32 * count + 96
        row = {"policy": pol.name, "signatures": count, "time_s": time_ms / 1000.0,
               "report_bytes": report_bytes, "published": TABLE1_PUBLISHED[pol.name]}
        if pol.name == "adaptive":
            row["note"] = (
                "published row assumes ~%d signatures; head=%d/stride=%d/tail=%d "
                "coverage of %d pieces yields %d"
                % (row["published"]["signatures"], pol.head, pol.stride, pol.tail, n, count)
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# host measurements


_bench_run = itertools.count()


def _cold_ms(check) -> float:
    """Milliseconds that *check()* takes with every verification memo emptied."""
    sc.clear_memos()
    t0 = time.perf_counter()
    if not check():
        raise AssertionError("a benchmarked check failed")
    return (time.perf_counter() - t0) * 1000.0


def bench_crypto(reps: int = 200, agg_batches=(10, 25, 50, 100)) -> CostModel:
    """Measure per-op latencies on this host and return them as a CostModel.
    Every trial uses a distinct message — distinct across calls too, via a
    process-wide run tag — and every check starts with empty memos, so
    memoized paths cannot flatter the numbers.  ``agg_verify_ms`` aggregates
    n distinct signers, as the paper does; ``agg_one_signer_ms`` n messages of
    one signer, which cost one Miller pair whatever n."""
    if reps < 100:
        raise ValueError("need at least 100 repetitions for stable means")
    rng = random.Random(0)
    keys = [sc.keygen(rng.getrandbits(256).to_bytes(32, "big")) for _ in range(reps)]
    skeys = [sc.session_keygen(rng.getrandbits(256).to_bytes(32, "big")) for _ in range(8)]
    tag = next(_bench_run)

    def msg(i: int) -> bytes:
        return b"bench-msg-0-%d-%d" % (tag, i)

    t0 = time.perf_counter()
    sigs = [sc.sign(keys[i].sk, msg(i)) for i in range(reps)]
    sign_ms = (time.perf_counter() - t0) / reps * 1000.0

    # timed like the aggregates: median of 3 cold runs, over distinct thirds
    third = min(reps, 120) // 3
    verify_ms = median(_cold_ms(lambda: all(
        sc.verify(keys[i].pk, msg(i), sigs[i]) for i in range(k * third, (k + 1) * third)))
        for k in range(3)) / third

    t0 = time.perf_counter()
    ssigs = [sc.session_sign(skeys[i % 8].sk, msg(i)) for i in range(reps)]
    session_sign_ms = (time.perf_counter() - t0) / reps * 1000.0

    session_verify_ms = _cold_ms(lambda: all(
        sc.session_verify(skeys[i % 8].pk, msg(i), ssigs[i]) for i in range(reps))) / reps

    def agg_ms(signer, base: int) -> dict:  # median of 3, so one slowed run cannot decide
        out = {}
        for b in agg_batches:
            signed = [(keys[signer(i)], msg(base + 1000 * b + i)) for i in range(b)]
            agg = sc.aggregate([sc.sign(kp.sk, m) for kp, m in signed])
            pairs = [(kp.pk, m) for kp, m in signed]
            out[b] = median(_cold_ms(lambda: sc.aggregate_verify(pairs, agg)) for _ in range(3))
        return out

    return CostModel(
        sign_ms=sign_ms,
        verify_ms=verify_ms,
        session_sign_ms=session_sign_ms,
        session_verify_ms=session_verify_ms,
        agg_verify_ms=agg_ms(lambda i: i % reps, 10_000),
        agg_one_signer_ms=agg_ms(lambda i: 0, 1_000_000),
    )


def agg_speedups(cost: CostModel, agg_ms: dict | None = None) -> dict:
    """Single-verify over aggregate-verify time per size of *agg_ms* (default: the model's)."""
    agg_ms = cost.agg_verify_ms if agg_ms is None else agg_ms
    return {b: (cost.verify_ms * b) / ms for b, ms in sorted(agg_ms.items())}
