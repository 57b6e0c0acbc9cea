"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its full budget and prints a
single ``[PASS]``/``[FAIL]`` line; run ``pytest tests/test_acceptance.py -s -v``
to watch them go by.  Unit-level variants of most of these live in the other
test modules; this file is the one-stop verdict.
"""

import dataclasses
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pbts import attestation as at
from pbts import contract as ct
from pbts import dht
from pbts import enclave as encl
from pbts import sigcrypto as sc
from pbts import tracker as tr
from pbts.sim import costs as C
from pbts.sim import scenario as scn
from pbts.sim import swarm
from pbts.sim.games import run_all_games

from test_dht import IH, Net

PROG, CFG = b"acceptance-prog", b"cfg"


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------


def test_adversarial_games_all_clean_within_budget():
    results = run_all_games(quick=False, seed=0)
    for r in results:
        print("  " + r.line())
    total = sum(r.elapsed_s for r in results)
    budgets = {"registration-authenticity": 10_000, "non-repudiation": 1_000,
               "credit-soundness": 50, "receipt-reuse": 22}
    problems = [r.name for r in results if not r.passed]
    problems += [r.name for r in results if r.trials < budgets[r.name]]
    if total > 300:
        problems.append(f"over budget ({total:.0f}s)")
    check("adversarial-games", not problems,
          f"{len(results)} games, {sum(r.trials for r in results)} trials, "
          f"0 violations required, {total:.1f}s of 300s" +
          (f" -- {problems}" if problems else ""))


def test_policy_cost_table_matches_published():
    rows = {r["policy"]: r for r in C.table1()}
    pub = C.TABLE1_PUBLISHED
    problems = []
    for p in ("per-piece", "batch", "session"):
        if rows[p]["signatures"] != pub[p]["signatures"]:
            problems.append(f"{p} count {rows[p]['signatures']}")
        rel = abs(rows[p]["time_s"] - pub[p]["time_s"]) / pub[p]["time_s"]
        if rel > 0.10:
            problems.append(f"{p} time off {100 * rel:.1f}%")
    size_rel = abs(rows["session"]["report_bytes"] - 160 * 1024) / (160 * 1024)
    if size_rel > 0.05:
        problems.append(f"session size off {100 * size_rel:.1f}%")
    # the published adaptive row is reported alongside the computed one, not
    # held to the tolerance: the stated coverage rule yields fewer signatures
    if "note" not in rows["adaptive"] or rows["adaptive"]["published"]["signatures"] != 512:
        problems.append("adaptive discrepancy not flagged")
    check("policy-cost-table", not problems,
          "counts (2560/436/256/2560), times within 10%, "
          f"session report {rows['session']['report_bytes']} B within 5% of 160 KB, "
          "adaptive row flagged" + (f" -- {problems}" if problems else ""))


def test_signing_overhead_within_published_bands():
    cost = C.CostModel()
    small = 100 * C.throughput_overhead(C.GIB, float(C.MIB), 256 * 1024,
                                        at.PerPiecePolicy(), cost)
    large = 100 * C.throughput_overhead(C.GIB, float(C.MIB), 2 * C.MIB,
                                        at.PerPiecePolicy(), cost)
    ok = 47.0 <= small <= 57.0 and 4.0 <= large <= 8.0
    check("signing-overhead", ok,
          f"256 KiB pieces: +{small:.2f}% (52±5), 2 MiB pieces: +{large:.2f}% (6±2)")


def test_measured_aggregation_speedup():
    cost = C.bench_crypto(reps=200)
    speed = C.agg_speedups(cost)
    ok = set(speed) == {10, 25, 50, 100} and all(s >= 1.5 for s in speed.values())
    check("aggregation-speedup", ok,
          "measured vs one-by-one verification, distinct signers, cold memos: " +
          ", ".join(f"n={b}: {s:.2f}x" for b, s in sorted(speed.items())) +
          " (>=1.5x required)")


def test_migration_continuity():
    base = scn.Scenario(name="cont", seed=31, peers=6, seeders=2,
                        file_size=32 * 1024, piece_size=4 * 1024)
    moved = dataclasses.replace(base, tracker_down=((800_000, 1_000_000),),
                                migrate_on_recovery=True)
    a = swarm.run_scenario(base)
    b = swarm.run_scenario(moved)
    problems = []
    if b.metrics["peers"] != a.metrics["peers"]:
        problems.append("balances diverge")
    if b.metrics["tracker"]["migrations"] != 1:
        problems.append("no migration happened")
    if b.metrics["tracker"]["referrer"] != a.metrics["tracker"]["addr"]:
        problems.append("successor does not name its predecessor")

    # records two migrations back are unreachable by design
    world = encl.world_new(seed=41)
    world.allowlist.add(encl.measure(PROG, CFG))
    chain = ct.chain_new(world.allowlist, world.hw_root_pk)
    pp = tr.setup(128, Fraction(1, 4), 4096, random.Random(41))
    t0 = tr.Tracker.launch(world, chain, pp, PROG, CFG)
    kp_a, kp_d = sc.keygen(b"\x61" * 32), sc.keygen(b"\x62" * 32)
    assert t0.register(b"active", kp_a.pk, sc.sign(kp_a.sk, tr.register_msg(pp.iid, b"active")))
    assert t0.register(b"dormant", kp_d.pk, sc.sign(kp_d.sk, tr.register_msg(pp.iid, b"dormant")))
    t1 = tr.migrate(world, chain, t0.addr, pp, PROG, CFG)
    if ct.sc_read(chain, t1.addr, b"dormant") is None:
        problems.append("one-hop read lost a record")
    t1._write(b"active", kp_a.pk, 5000, 100)  # stays active on the successor
    t2 = tr.migrate(world, chain, t1.addr, pp, PROG, CFG)
    if ct.sc_read(chain, t2.addr, b"active") is None:
        problems.append("active record lost after two migrations")
    if ct.sc_read(chain, t2.addr, b"dormant") is not None:
        problems.append("dormant record readable two migrations back")
    check("migration-continuity", not problems,
          "control and kill+migrate runs agree on every balance, successor "
          "inherits via one referrer hop, two hops read as absent" +
          (f" -- {problems}" if problems else ""))


def _routing_net(n: int, seed: int):
    """Routing-only network: node ids come from synthetic keys (lookups never
    touch the chain), every node has observed every other."""
    rng = random.Random(seed)
    params = dht.DhtParams()
    net = dht.DhtNet(params=params, rng=random.Random(seed + 1))
    nodes = []
    for i in range(n):
        kp = sc.KeyPair(sk=0, pk=rng.randbytes(48))
        node = dht.DhtNode(kp=kp, uid=b"r%04d" % i, ip="10.4.0.1", port=i,
                           chain=None, addr_rep=b"", min_rep=0, params=params)
        net.add_node(node)
        nodes.append(node)
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.observe((b.nid, b.ip, b.port))
    return net, nodes


def _store_script(seed: int):
    """200 random store RPCs against a registered 5-node network: half
    honest, half hostile (tampered endpoints, garbage signatures, unknown or
    mismatched registrations, a slashed announcer).  Returns
    (honest_failures, hostile_acceptances, audit_failures, reject_tally)."""
    env = Net(5, seed=seed)
    env.slash(4)
    rng = random.Random(seed * 31 + 5)
    honest = [env.record(i) for i in range(4)]
    ghost = sc.keygen(sc.hash_data(b"ghost-%d" % seed))
    hostile = [dht.make_record(ghost, b"ghost", IH, "10.6.6.6", 6666),
               env.record(4)]
    for i in range(4):
        hostile += [
            replace(honest[i], port=7),
            replace(honest[i], ip="10.66.6.6"),
            replace(honest[i], sig=b"\x99" * 96),
            replace(honest[i], uid=env.nodes[(i + 1) % 4].uid),
        ]
    honest_failed = hostile_accepted = 0
    for _ in range(200):
        src = env.nodes[rng.randrange(5)]
        dst = env.nodes[rng.randrange(5)]
        if rng.random() < 0.5:
            if not env.net.rpc_store(src, dst.nid, honest[rng.randrange(4)]):
                honest_failed += 1
        else:
            if env.net.rpc_store(src, dst.nid, hostile[rng.randrange(len(hostile))]):
                hostile_accepted += 1
    audit_failed = 0
    for node in env.nodes:
        for per in node.store.values():
            for rec, _ in per.values():
                on_chain = ct.sc_read(env.chain, env.tracker.addr, rec.uid)
                msg = dht.announce_record_msg(rec.infohash, rec.pk, rec.ip, rec.port)
                if (on_chain is None or on_chain.pk != rec.pk
                        or tr.rep(on_chain.up, on_chain.down) < env.pp.min_rep
                        or not sc.verify(rec.pk, msg, rec.sig)):
                    audit_failed += 1
    return honest_failed, hostile_accepted, audit_failed, dict(env.net.store_rejects)


def test_dht_lookup_oracle_and_admission():
    problems = []
    for n in (10, 100, 1000):
        net, nodes = _routing_net(n, seed=n)
        rng = random.Random(n + 7)
        mismatches = 0
        max_rounds = 0
        for _ in range(100):
            key = rng.randbytes(20)
            got, rounds = dht.find_closest(net, nodes[rng.randrange(n)], key)
            max_rounds = max(max_rounds, rounds)
            want = sorted((x.nid for x in nodes),
                          key=lambda nid: dht.xor_distance(nid, key))[: net.params.k]
            if [c[0] for c in got] != want:
                mismatches += 1
        if mismatches:
            problems.append(f"n={n}: {mismatches}/100 lookups off oracle")
        if max_rounds > 4 * math.log2(n):
            problems.append(f"n={n}: {max_rounds} rounds")
        print(f"  lookup n={n}: 100/100 match brute force, <= {max_rounds} rounds")

    rejects_total = 0
    for seed in range(50):
        honest_failed, hostile_accepted, audit_failed, rejects = _store_script(seed)
        if honest_failed or hostile_accepted or audit_failed:
            problems.append(f"seed {seed}: honest_failed={honest_failed} "
                            f"hostile_accepted={hostile_accepted} audit={audit_failed}")
        rejects_total += sum(rejects.values())
    check("dht-lookup-and-admission", not problems,
          "exact k-nearest on 10/100/1000 nodes x 100 keys; 50 x 200-op "
          f"hostile store scripts, {rejects_total} rejects, 0 bad stores" +
          (f" -- {problems}" if problems else ""))


def test_chain_log_round_trip_at_scale(tmp_path):
    world = encl.world_new(seed=77)
    world.allowlist.add(encl.measure(PROG, CFG))
    path = tmp_path / "scale-chain.log"
    chain = ct.chain_new(world.allowlist, world.hw_root_pk, path=str(path))
    root = encl.kms_derive(world, encl.attest_quote(
        world, encl.measure(PROG, CFG), b"\x00" * encl.NONCE_LEN))
    auth = encl.derive_contract_auth_keys(root)
    quote = encl.attest_quote(world, encl.measure(PROG, CFG),
                              ct.auth_nonce_for(auth.pk))
    def deploy(iid, ref):
        payload = ct.init_payload(iid, ref, auth.pk)
        new = ct.sc_init(chain, payload, ct.make_auth(quote, auth.sk, payload))
        assert new is not None
        return new

    addr = deploy(b"\xaa" * 16, None)

    # a random 10_000-op sequence: mostly writes drawn from a pool of 64
    # distinct (uid, value) pairs (tokens are bound to payloads, so repeats
    # share one), with an occasional fresh contract deployment thrown in
    combos = []
    for i in range(64):
        payload = ct.write_payload(addr, [(b"u%02d" % i, b"pk-%02d" % i, 1000 + i, i)])
        combos.append((payload, ct.make_auth(quote, auth.sk, payload)))
    rng = random.Random(7_001)
    ops = 10_000
    for j in range(ops - 1):
        if rng.random() < 0.002:
            deploy(rng.randbytes(16), rng.choice([None, addr]))
        else:
            payload, token = rng.choice(combos)
            assert ct.sc_write(chain, addr, payload, token)
    state, digest = ct.serialize_state(chain), ct.state_digest(chain)
    chain.close()

    reloaded = ct.chain_new(world.allowlist, world.hw_root_pk, path=str(path))
    round_trip_ok = (ct.serialize_state(reloaded) == state
                     and ct.state_digest(reloaded) == digest
                     and len(ct.read_log(str(path))) == ops)
    reloaded.close()

    cut_seq = 7_777
    lines = path.read_bytes().splitlines(keepends=True)
    partial = b"".join(lines[: cut_seq - 1]) + lines[cut_seq - 1][: len(lines[cut_seq - 1]) // 2]
    broken = tmp_path / "broken.log"
    broken.write_bytes(partial)
    try:
        ct.chain_new(world.allowlist, world.hw_root_pk, path=str(broken))
        detected, where = False, None
    except ct.ChainLogCorrupt as e:
        detected, where = True, e.seq
    check("chain-persistence", round_trip_ok and detected and where == cut_seq,
          f"{ops}-op log reloads byte-identical; truncation pinpointed at "
          f"seq {where} (expected {cut_seq})")


def test_identical_seeds_identical_metrics():
    sc_ = scn.Scenario(name="det", seed=1234, peers=5, seeders=2,
                       file_size=24 * 1024, piece_size=4 * 1024,
                       policy=at.BatchPolicy(k=3),
                       tracker_down=((1_000_000, 1_200_000),),
                       migrate_on_recovery=True,
                       adversaries=("inflate", "replay", "forge"))
    a = swarm.run_scenario(sc_)
    b = swarm.run_scenario(sc_)
    check("determinism", a.metrics_bytes == b.metrics_bytes,
          f"two runs of the same scenario+seed: {len(a.metrics_bytes)}-byte "
          "metrics documents are identical")
