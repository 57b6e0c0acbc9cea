"""Adversarial drills for the four security properties.

Each game fixes an attacker capability, runs a budgeted number of trials, and
counts violations — a passing game has zero.  The games exercise the real
verification paths end to end; nothing is mocked.

* registration: signatures that should never authenticate a registration
  (garbage bytes, wrong key, right key over the wrong message).
* non-repudiation: honest attest-then-report cycles that must all be
  accepted — a verifier rejecting an honest receipt is a violation.
* soundness: random swarms where on-chain credit must equal the receipted
  ground truth transfer log exactly.
* reuse: one receipt submitted twice across every epoch gap small enough to
  be interesting — the second submission must never credit again, whether it
  dies by dedup or by expiry.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .. import attestation as at
from .. import contract as ct
from .. import enclave as encl
from .. import sigcrypto as sc
from .. import tracker as tr
from .scenario import Scenario
from .swarm import run_scenario

PROGRAM_ID = b"pbts-tracker"
CONFIG = b"games"


@dataclass
class GameResult:
    name: str
    trials: int
    violations: int
    details: dict
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{verdict}] {self.name}: {self.trials} trials, "
                f"{self.violations} violations ({self.elapsed_s:.1f}s)")


def _fresh_tracker(seed: int, epoch: at.EpochParams | None = None):
    world = encl.world_new(seed=seed)
    world.allowlist.add(encl.measure(PROGRAM_ID, CONFIG))
    chain = ct.chain_new(world.allowlist, world.hw_root_pk)
    pp = tr.setup(128, Fraction(1, 4), 64 * 1024, random.Random(seed))
    t = tr.Tracker.launch(world, chain, pp, PROGRAM_ID, CONFIG, epoch=epoch)
    assert t is not None
    return world, chain, pp, t


def _register(t: tr.Tracker, pp: tr.PublicParams, uid: bytes, kp: sc.KeyPair) -> None:
    ok = t.register(uid, kp.pk, sc.sign(kp.sk, tr.register_msg(pp.iid, uid)))
    if not ok:
        raise AssertionError(f"honest registration failed for {uid!r}")


def game_registration(trials: int = 10_000, seed: int = 101) -> GameResult:
    """No forged signature may register a key its holder does not control."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    _, _, pp, t = _fresh_tracker(seed)
    victims = [sc.keygen(rng.getrandbits(256).to_bytes(32, "big")) for _ in range(4)]
    attacker = sc.keygen(rng.getrandbits(256).to_bytes(32, "big"))

    mix = {"garbage": 0, "wrong_key": 0, "wrong_message": 0}
    violations = 0
    witness = None
    for i in range(trials):
        uid = b"victim-%05d" % i
        victim = victims[i % len(victims)]
        u = rng.random()
        if u < 0.85:
            kind, sig = "garbage", rng.getrandbits(8 * sc.SIG_LEN).to_bytes(sc.SIG_LEN, "big")
        elif u < 0.95:
            kind, sig = "wrong_key", sc.sign(attacker.sk, tr.register_msg(pp.iid, uid))
        else:
            # the victim really signed something — just not this registration
            kind, sig = "wrong_message", sc.sign(victim.sk, tr.register_msg(pp.iid, uid + b"x"))
        mix[kind] += 1
        if t.register(uid, victim.pk, sig):
            violations += 1
            witness = witness or {"trial": i, "kind": kind}

    honest = sc.keygen(rng.getrandbits(256).to_bytes(32, "big"))
    _register(t, pp, b"honest-ctl", honest)  # the gate rejects forgeries, not users
    return GameResult("registration-authenticity", trials, violations,
                      {"mix": mix, "witness": witness}, time.perf_counter() - t0)


def game_nonrepudiation(cycles: int = 1_000, seed: int = 202) -> GameResult:
    """Every honestly attested receipt, reported honestly, must be accepted."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    _, _, pp, t = _fresh_tracker(seed)
    ep = t.epoch

    users = []
    for i in range(6):
        kp = sc.keygen(rng.getrandbits(256).to_bytes(32, "big"))
        uid = b"user-%d" % i
        _register(t, pp, uid, kp)
        users.append((uid, kp))

    contents = [sc.hash_data(b"nr-piece-%d" % i) for i in range(cycles)]
    meta = at.make_torrent("nr", [sc.hash_data(c) for c in contents], 512)
    t.add_torrent(meta)
    now = 5 * ep.window + 17
    sessions = {}

    violations = 0
    witness = None
    for i in range(cycles):
        s_uid, s_kp = users[i % 3]
        r_uid, r_kp = users[3 + i % 3]
        content = contents[i]
        kind = ("per-piece", "batch", "session")[i % 3]
        if kind == "per-piece":
            r = at.attest(r_kp, meta.infohash, s_kp.pk, content, i, now, ep)
            ok = t.report(tr.build_report(s_uid, s_kp.pk, meta, [(r, r_uid)]), now)
        elif kind == "batch":
            br = at.batch_attest(r_kp, meta.infohash, s_kp.pk, {i: content}, now, ep)
            ok = t.report(tr.build_report(s_uid, s_kp.pk, meta, [(br, r_uid)]), now)
        else:
            key = (s_kp.pk, r_kp.pk)
            if key not in sessions:
                sessions[key] = at.open_session(r_kp, meta.infohash, s_kp.pk, now, ep)
            cert, skp = sessions[key]
            sr = at.session_attest(skp.sk, cert, content, i, now, ep)
            ok = t.report(
                tr.build_session_report(s_uid, s_kp.pk, meta, [(cert, r_uid, [sr])]), now)
        if not ok:
            violations += 1
            witness = witness or {"cycle": i, "kind": kind}
    return GameResult("non-repudiation", cycles, violations,
                      {"witness": witness}, time.perf_counter() - t0)


def game_soundness(swarms: int = 50, seed: int = 303) -> GameResult:
    """On-chain credit after a full run equals the receipted ground truth."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    policies = [
        at.PerPiecePolicy(),
        at.AdaptivePolicy(head=2, stride=3, tail=2),
        at.BatchPolicy(k=3),
        at.SessionPolicy(),
    ]
    violations = 0
    witness = None
    for i in range(swarms):
        pieces = rng.randint(4, 10)
        piece_size = rng.choice([512, 777, 1024])
        scn = Scenario(
            name=f"sound-{i}", seed=rng.getrandbits(32),
            peers=rng.randint(4, 6), seeders=rng.randint(1, 2),
            file_size=pieces * piece_size - rng.randint(0, piece_size - 1),
            piece_size=piece_size, policy=policies[i % len(policies)],
        )
        res = run_scenario(scn)
        for name, m in res.metrics["peers"].items():
            up_ok = m["chain_up"] - scn.init_credit == m["receipted_up"]
            down_ok = m["chain_down"] == m["receipted_down"]
            if not (up_ok and down_ok):
                violations += 1
                witness = witness or {"swarm": i, "peer": name, "metrics": m}
        if res.metrics["counts"]["reports_rejected"]:
            violations += 1
            witness = witness or {"swarm": i, "rejected": res.metrics["counts"]["reports_rejected"]}
    return GameResult("credit-soundness", swarms, violations,
                      {"witness": witness}, time.perf_counter() - t0)


def game_reuse(max_delta: int = 3, seed: int = 404) -> GameResult:
    """A receipt accepted once must never credit a second time, at any later
    epoch: near resubmissions die in the dedup set, late ones by expiry."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    window = 100
    trials = 0
    violations = 0
    witness = None
    for delta in range(max_delta + 1):
        ep = at.EpochParams(window=window, delta=delta)
        for offset in range(3 * delta + 1):
            trials += 1
            _, chain, pp, t = _fresh_tracker(seed + 31 * delta + offset, epoch=ep)
            s_kp = sc.keygen(rng.getrandbits(256).to_bytes(32, "big"))
            r_kp = sc.keygen(rng.getrandbits(256).to_bytes(32, "big"))
            _register(t, pp, b"sender", s_kp)
            _register(t, pp, b"recv", r_kp)
            content = sc.hash_data(b"reuse-%d-%d" % (delta, offset))
            meta = at.make_torrent(f"reuse-{delta}-{offset}", [sc.hash_data(content)], 512)
            t.add_torrent(meta)

            t1 = (delta + 1) * window + 3
            t2 = t1 + offset * window
            r = at.attest(r_kp, meta.infohash, s_kp.pk, content, 0, t1, ep)
            payload = tr.build_report(b"sender", s_kp.pk, meta, [(r, b"recv")])
            if not t.report(payload, t1):
                raise AssertionError("honest first submission rejected")
            before = ct.sc_read(chain, t.addr, b"recv").down
            t.gc_recent(t2)
            if t.report(payload, t2):
                violations += 1
                witness = witness or {"delta": delta, "offset_epochs": offset}
            after = ct.sc_read(chain, t.addr, b"recv").down
            if after != before:
                violations += 1
                witness = witness or {"delta": delta, "offset_epochs": offset,
                                      "down": (before, after)}
    return GameResult("receipt-reuse", trials, violations,
                      {"witness": witness}, time.perf_counter() - t0)


def run_all_games(quick: bool = False, seed: int = 0):
    """All four drills with their full budgets; *quick* shrinks them for
    development loops."""
    if quick:
        return [
            game_registration(trials=300, seed=seed + 101),
            game_nonrepudiation(cycles=60, seed=seed + 202),
            game_soundness(swarms=6, seed=seed + 303),
            game_reuse(max_delta=2, seed=seed + 404),
        ]
    return [
        game_registration(seed=seed + 101),
        game_nonrepudiation(seed=seed + 202),
        game_soundness(seed=seed + 303),
        game_reuse(seed=seed + 404),
    ]
