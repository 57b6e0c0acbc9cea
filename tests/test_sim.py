"""Simulation harness: cost projections, scenario round-trips, and swarm
runs whose on-chain ledgers must match receipted ground truth exactly."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from pbts import attestation as at
from pbts import contract as ct
from pbts import sigcrypto as sc
from pbts.sim import costs as C
from pbts.sim import scenario as scn
from pbts.sim import swarm


# ---------------------------------------------------------------------------
# cost model


class TestCostModel:
    def test_reference_defaults(self):
        cost = C.CostModel()
        assert cost.sign_ms == 134.19
        assert cost.verify_ms == 340.92
        assert cost.agg_verify_ms[100] == 14230.40

    def test_rejects_nonpositive_latencies(self):
        with pytest.raises(ValueError):
            C.CostModel(sign_ms=0)
        with pytest.raises(ValueError):
            C.CostModel(agg_verify_ms={10: -1.0})

    def test_reference_aggregation_beats_one_by_one(self):
        # the calibration table itself implies batching pays off
        speedups = C.agg_speedups(C.CostModel())
        assert set(speedups) == {10, 25, 50, 100}
        for s in speedups.values():
            assert s >= 1.5
        assert speedups[10] == pytest.approx(3409.2 / 1293.18)


class TestPieceCount:
    def test_exact_and_ragged(self):
        assert C.piece_count(1024, 256) == 4
        assert C.piece_count(1025, 256) == 5
        assert C.piece_count(1, 256) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            C.piece_count(0, 256)
        with pytest.raises(ValueError):
            C.piece_count(256, 0)


class TestOverheadProjection:
    def test_256k_pieces_over_1gib(self):
        got = C.throughput_overhead(C.GIB, float(C.MIB), 256 * 1024,
                                    at.PerPiecePolicy(), C.CostModel())
        # 4096 signatures at 134.19 ms over a 1024 s transfer
        assert got == pytest.approx(4096 * 134.19 / 1000 / 1024)

    def test_2m_pieces_over_1gib(self):
        got = C.throughput_overhead(C.GIB, float(C.MIB), 2 * C.MIB,
                                    at.PerPiecePolicy(), C.CostModel())
        assert got == pytest.approx(512 * 134.19 / 1000 / 1024)

    def test_session_signing_is_an_order_cheaper(self):
        cost = C.CostModel()
        slow = C.throughput_overhead(C.GIB, float(C.MIB), 256 * 1024,
                                     at.PerPiecePolicy(), cost)
        fast = C.throughput_overhead(C.GIB, float(C.MIB), 256 * 1024,
                                     at.SessionPolicy(), cost)
        assert fast == pytest.approx(slow / 10)

    def test_larger_pieces_mean_less_overhead(self):
        cost = C.CostModel()
        sizes = [64 * 1024, 256 * 1024, C.MIB, 2 * C.MIB]
        ohs = [C.throughput_overhead(C.GIB, float(C.MIB), s,
                                     at.PerPiecePolicy(), cost) for s in sizes]
        assert ohs == sorted(ohs, reverse=True)


class TestTable1:
    def test_signature_counts(self):
        rows = {r["policy"]: r for r in C.table1()}
        assert rows["per-piece"]["signatures"] == 2560
        assert rows["adaptive"]["signatures"] == 436
        assert rows["batch"]["signatures"] == 256
        assert rows["session"]["signatures"] == 2560

    def test_projected_times(self):
        rows = {r["policy"]: r for r in C.table1()}
        assert rows["per-piece"]["time_s"] == pytest.approx(5.12)
        assert rows["adaptive"]["time_s"] == pytest.approx(0.872)
        assert rows["batch"]["time_s"] == pytest.approx(0.512)
        assert rows["session"]["time_s"] == pytest.approx(0.516)

    def test_session_report_size(self):
        rows = {r["policy"]: r for r in C.table1()}
        assert rows["session"]["report_bytes"] == 64 * 2560 + 96
        published = 160 * 1024
        assert abs(rows["session"]["report_bytes"] - published) / published < 0.05

    def test_adaptive_row_carries_the_discrepancy_note(self):
        rows = {r["policy"]: r for r in C.table1()}
        assert "512" in rows["adaptive"]["note"]
        assert "436" in rows["adaptive"]["note"]
        assert all("note" not in rows[p] for p in ("per-piece", "batch", "session"))

    def test_rows_carry_published_values(self):
        for row in C.table1():
            assert row["published"] == C.TABLE1_PUBLISHED[row["policy"]]


def test_bench_requires_enough_reps():
    with pytest.raises(ValueError):
        C.bench_crypto(reps=50)


def test_bench_shape_small():
    cost = C.bench_crypto(reps=100, agg_batches=(10,))
    assert cost.sign_ms > 0 and cost.verify_ms > 0
    assert cost.session_sign_ms > 0 and cost.session_verify_ms > 0
    assert set(cost.agg_verify_ms) == {10}
    # the fast scheme is the whole point: it must beat the aggregatable one
    assert cost.session_sign_ms < cost.sign_ms
    assert cost.session_verify_ms < cost.verify_ms
    # pairing-based verification costs more than signing (two pairings vs
    # one scalar multiplication)
    assert cost.verify_ms > cost.sign_ms


# ---------------------------------------------------------------------------
# scenario serialization


POLICIES = [
    at.PerPiecePolicy(),
    at.AdaptivePolicy(head=2, stride=3, tail=2),
    at.BatchPolicy(k=3),
    at.SessionPolicy(),
    at.NullPolicy(),
]


class TestScenarioJson:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: type(p).__name__)
    def test_round_trip(self, policy):
        sc = scn.Scenario(
            name="rt", seed=7, peers=5, seeders=2, file_size=9999,
            piece_size=512, policy=policy, epoch_window=120, epoch_delta=1,
            min_rep=Fraction(1, 3), init_credit=4096, bandwidth=2048.0,
            tracker_down=((10, 20), (30, 40)), migrate_on_recovery=True,
            adversaries=("inflate", "forge"))
        assert scn.scenario_from_json(scn.scenario_to_json(sc)) == sc

    def test_min_rep_survives_as_exact_fraction(self):
        sc = scn.Scenario(min_rep=Fraction(355, 113))
        doc = scn.scenario_to_json(sc)
        assert doc["min_rep"] == "355/113"
        assert scn.scenario_from_json(doc).min_rep == Fraction(355, 113)
        assert scn.scenario_from_json({"min_rep": "0.1"}).min_rep == Fraction(1, 10)
        assert scn.scenario_from_json({"min_rep": 2}).min_rep == 2

    def test_unknown_field_rejected(self):
        doc = scn.scenario_to_json(scn.Scenario())
        doc["turbo"] = True
        with pytest.raises(ValueError, match="turbo"):
            scn.scenario_from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"policy": {"policy": "batch", "k": 2.7}},
        {"policy": {"policy": "batch", "k": True}},
        {"policy": {"policy": "adaptive", "head": "2"}},
        {"peers": 3.9},
        {"seed": True},
        {"init_credit": "4096"},
        {"tracker_down": [[10, 20.5]]},
        {"migrate_on_recovery": "no"},
        {"migrate_on_recovery": 0},
        {"bandwidth": True},
        {"bandwidth": "2048"},
        {"min_rep": True},
        {"min_rep": 0.1},      # a float is a binary fraction, not 1/10
        {"min_rep": "1/0"},
        {"min_rep": None},
        {"min_rep": [1, 4]},
        {"name": 5},
        {"name": None},
        {"tracker_down": 5},
        {"tracker_down": [5]},
        {"tracker_down": [[10, 20, 30]]},
        {"adversaries": 5},
        {"adversaries": "inflate"},
        {"adversaries": [5]},
        {"policy": 3},
        {"policy": {"k": 2}},
        [],
        {"tracker_down": [[10]]},
    ])
    def test_wrong_json_type_refused(self, doc):
        # an outage that is not a pair is refused by the field's name
        not_a_pair = doc in ({"tracker_down": [[10, 20, 30]]}, {"tracker_down": [[10]]})
        with pytest.raises(ValueError, match="tracker_down" if not_a_pair else None):
            scn.scenario_from_json(doc)

    def test_integral_bandwidth_accepted(self):
        assert scn.scenario_from_json({"bandwidth": 2048}).bandwidth == 2048.0

    def test_file_round_trip(self, tmp_path):
        sc = scn.Scenario(seed=3, policy=at.BatchPolicy(k=5))
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(scn.scenario_to_json(sc)))
        assert scn.load_scenario(str(p)) == sc

    def test_json_names_every_field(self):
        assert set(scn.scenario_to_json(scn.Scenario())) == {
            f.name for f in dataclasses.fields(scn.Scenario)}

    @pytest.mark.parametrize("bad", [
        dict(peers=1),
        dict(seeders=0),
        dict(peers=3, seeders=3),
        dict(file_size=0),
        dict(piece_size=-1),
        dict(bandwidth=0.0),
        dict(epoch_window=0),
        dict(epoch_delta=-1),
        dict(tracker_down=((0, 10),)),       # outage may not begin at t=0
        dict(tracker_down=((5, 5),)),
        dict(tracker_down=((20, 30), (10, 15))),
        dict(tracker_down=((10, 30), (20, 40))),
        dict(adversaries=("ddos",)),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            scn.Scenario(**bad)


# ---------------------------------------------------------------------------
# swarm runs

# tiny but non-degenerate: 4 pieces, one seeder, three leechers
BASE = scn.Scenario(name="unit", seed=9, peers=4, seeders=1,
                    file_size=16 * 1024, piece_size=4 * 1024)

FAST = C.CostModel(sign_ms=1.0, verify_ms=1.0, session_sign_ms=0.1,
                   session_verify_ms=0.1)


def leechers(res):
    return [n for n, p in res.metrics["peers"].items()
            if p["true_down"] > 0]


class TestLedger:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: type(p).__name__)
    def test_chain_matches_receipted_ground_truth(self, policy):
        res = swarm.run_scenario(dataclasses.replace(BASE, policy=policy), FAST)
        init = res.scenario.init_credit
        for name, p in res.metrics["peers"].items():
            assert p["chain_up"] - init == p["receipted_up"], name
            assert p["chain_down"] == p["receipted_down"], name
        assert res.metrics["counts"]["reports_rejected"] == 0
        assert len(leechers(res)) == 3
        for name in leechers(res):
            assert res.metrics["peers"][name]["true_down"] == BASE.file_size

    def test_full_coverage_policies_credit_everything(self):
        res = swarm.run_scenario(BASE, FAST)
        for p in res.metrics["peers"].values():
            assert p["receipted_down"] == p["true_down"]
            assert p["receipted_up"] == p["true_up"]
        c = res.metrics["counts"]
        assert c["transfers"] == 3 * BASE.num_pieces
        assert c["receipts"] == c["transfers"]
        assert res.metrics["ops"]["sign"] == c["receipts"]
        assert res.metrics["ops"]["verify"] == c["receipts"]
        assert c["reports_ok"] == res.metrics["ops"]["agg_verify"]

    def test_adaptive_credits_exactly_the_covered_indices(self):
        pol = at.AdaptivePolicy(head=1, stride=3, tail=1)
        res = swarm.run_scenario(dataclasses.replace(BASE, policy=pol), FAST)
        covered = {i for i in range(BASE.num_pieces) if pol.covers(i, BASE.num_pieces)}
        assert 0 < len(covered) < BASE.num_pieces
        for e in res.ground_truth:
            assert e["receipted"] == (e["index"] in covered)
        for p in res.metrics["peers"].values():
            assert p["receipted_down"] <= p["true_down"]
            assert p["chain_down"] == p["receipted_down"]

    def test_null_policy_never_reports(self):
        res = swarm.run_scenario(
            dataclasses.replace(BASE, policy=at.NullPolicy()), FAST)
        c = res.metrics["counts"]
        assert c["receipts"] == 0 and c["reports_ok"] == 0
        assert c["report_bytes"] == 0
        for p in res.metrics["peers"].values():
            assert p["chain_up"] == res.scenario.init_credit
            assert p["chain_down"] == 0

    @pytest.mark.parametrize("window", [2, 8])
    def test_session_spans_report_flushes(self, window):
        # slow links stretch each session over several report flushes; the
        # sender keeps collecting receipts for the leecher's open session
        res = swarm.run_scenario(scn.Scenario(
            seed=3, peers=3, seeders=1, file_size=8192, piece_size=1024,
            bandwidth=1500.0, epoch_window=window, policy=at.SessionPolicy()))
        init = res.scenario.init_credit
        for name, p in res.metrics["peers"].items():
            assert p["chain_up"] - init == p["receipted_up"], name
            assert p["chain_down"] == p["receipted_down"], name
        assert res.metrics["counts"]["reports_rejected"] == 0

    @pytest.mark.parametrize("policy", [
        at.PerPiecePolicy(), at.AdaptivePolicy(head=2, stride=3, tail=2),
        at.BatchPolicy(k=3), at.BatchPolicy(k=16)], ids=repr)
    def test_batch_flush_is_charged_to_the_last_piece(self, policy):
        # every receipt (a sign and a verify) is charged to the transfer whose
        # piece flushes it, mid-download or on the last piece; leechers start
        # at t=0 and download one piece at a time
        res = swarm.run_scenario(dataclasses.replace(BASE, policy=policy), FAST)
        names = leechers(res)
        last = sum(max(e["t_ms"] for e in res.ground_truth if e["receiver"] == name)
                   for name in names)
        busy = sum(e["bytes"] / BASE.bandwidth * 1000.0 for e in res.ground_truth)
        receipts = res.metrics["counts"]["receipts"]
        assert last == pytest.approx(busy + receipts * (FAST.sign_ms + FAST.verify_ms))
        if policy.k > BASE.num_pieces:
            # only the final piece flushes: one batch receipt per distinct sender
            dur = BASE.piece_size / BASE.bandwidth * 1000.0
            for name in names:
                mine = [e for e in res.ground_truth if e["receiver"] == name]
                senders = {e["sender"] for e in mine}
                gap = mine[-1]["t_ms"] - mine[-2]["t_ms"]
                assert gap == pytest.approx(
                    dur + len(senders) * (FAST.sign_ms + FAST.verify_ms))
            assert receipts == sum(
                len({e["sender"] for e in res.ground_truth if e["receiver"] == name})
                for name in names)

    def test_session_cert_is_charged_in_the_epoch_the_piece_lands(self):
        # at a one-second epoch most pieces land in a later epoch than the
        # one their transfer starts in; each cert opened is charged once
        sim = swarm.SwarmSim(scn.Scenario(
            seed=3, peers=3, seeders=1, file_size=8192, piece_size=1024,
            bandwidth=1500.0, epoch_window=1, policy=at.SessionPolicy()))
        res, c = sim.run(), sim.cost
        for p in sim.peers[1:]:
            mine = [e for e in res.ground_truth if e["receiver"] == p.name]
            busy = sum(e["bytes"] / 1500.0 * 1000.0 for e in mine)
            busy += len(mine) * (c.session_sign_ms + c.session_verify_ms)
            busy += len(p.session_keys) * (c.sign_ms + c.verify_ms)
            assert mine[-1]["t_ms"] == pytest.approx(busy), p.name


class TestDeterminism:
    def test_identical_runs_emit_identical_metrics(self):
        sc = dataclasses.replace(BASE, adversaries=("inflate", "replay", "forge"))
        a = swarm.run_scenario(sc, FAST)
        b = swarm.run_scenario(sc, FAST)
        assert a.metrics_bytes == b.metrics_bytes

    def test_seed_changes_the_transfer_schedule(self):
        a = swarm.run_scenario(BASE, FAST)
        b = swarm.run_scenario(dataclasses.replace(BASE, seed=10), FAST)
        assert a.metrics_bytes != b.metrics_bytes


def _hash_changed(pending, meta):
    r, uid = pending[0]
    pending[0] = (dataclasses.replace(
        r, piece_hashes=r.piece_hashes[:-1] + (bytes(32),)), uid)  # hashes no piece
    return True


def _index_out_of_torrent(pending, meta):
    r, uid = pending[0]
    pending[0] = (dataclasses.replace(r, indices=r.indices[:-1] + (meta.num_pieces,)), uid)
    return True


def _two_unlike(pending):
    """Indices of two records with different receivers and different signed
    messages, or None."""
    for a, (ra, _) in enumerate(pending):
        for b, (rb, _) in enumerate(pending[a + 1:], a + 1):
            if ra.receiver_pk != rb.receiver_pk and (ra.pieces, ra.epoch) != (rb.pieces, rb.epoch):
                return a, b
    return None


def _receivers_swapped(pending, meta):
    ab = _two_unlike(pending)
    if ab is None:
        return False
    (ra, ua), (rb, ub) = pending[ab[0]], pending[ab[1]]
    pending[ab[0]] = (dataclasses.replace(ra, receiver_pk=rb.receiver_pk), ua)
    pending[ab[1]] = (dataclasses.replace(rb, receiver_pk=ra.receiver_pk), ub)
    return True


def _signature_of_another(pending, meta):
    ab = _two_unlike(pending)
    if ab is None:
        return False
    r, uid = pending[ab[0]]
    pending[ab[0]] = (dataclasses.replace(r, sig=pending[ab[1]][0].sig), uid)
    return True


TAMPERS = [_hash_changed, _receivers_swapped, _index_out_of_torrent, _signature_of_another]


def _first_session(pending):
    """The first pending session entry, [cert, downloader uid, [receipts]]."""
    return next(iter(pending.values()))


def _session_sig_flipped(pending, meta):
    srs = _first_session(pending)[2]
    sig = bytearray(srs[0].sig)
    sig[-1] ^= 1
    srs[0] = dataclasses.replace(srs[0], sig=bytes(sig))
    return True


def _session_hash_changed(pending, meta):
    srs = _first_session(pending)[2]
    other = meta.piece_hashes[(srs[0].index + 1) % meta.num_pieces]
    srs[0] = dataclasses.replace(srs[0], piece_hash=other)
    return True


def _cert_session_key_changed(pending, meta):
    entry = _first_session(pending)
    entry[0] = dataclasses.replace(entry[0], session_pk=sc.session_keygen(b"\x01" * 32).pk)
    return True


def _cert_epoch_changed(pending, meta):
    entry = _first_session(pending)
    entry[0] = dataclasses.replace(entry[0], epoch=entry[0].epoch + 1)
    return True


SESSION_TAMPERS = [_session_sig_flipped, _session_hash_changed,
                   _cert_session_key_changed, _cert_epoch_changed]


class TestSenderCheck:
    """A sender checks each report it builds with the tracker's signature
    check, so a pending receipt or cert that does not verify stops the run
    instead of turning into a refused report."""

    @staticmethod
    def tamper_first(sim, tamper):
        """Before the first report built from pending receipts or sessions
        that *tamper* can edit, edit one of them; returns the senders edited."""
        build, edited = sim._build_payload, []

        def build_tampered(p):
            pending = p.pending_receipts or p.pending_sessions
            if not edited and pending and tamper(pending, sim.meta):
                edited.append(p.name)
            return build(p)

        sim._build_payload = build_tampered
        return edited

    @pytest.mark.parametrize("policy", [at.PerPiecePolicy(), at.BatchPolicy(k=2)],
                             ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("tamper", TAMPERS, ids=lambda f: f.__name__.strip("_"))
    def test_tampered_receipt_stops_the_flush(self, tamper, policy):
        sim = swarm.SwarmSim(dataclasses.replace(BASE, policy=policy), FAST)
        edited = self.tamper_first(sim, tamper)
        with pytest.raises(AssertionError, match="aggregate check"):
            sim.run()
        assert len(edited) == 1
        assert sim.counts["reports_rejected"] == 0

    @pytest.mark.parametrize("tamper", SESSION_TAMPERS, ids=lambda f: f.__name__.strip("_"))
    def test_tampered_session_stops_the_flush(self, tamper):
        sim = swarm.SwarmSim(dataclasses.replace(BASE, policy=at.SessionPolicy()), FAST)
        edited = self.tamper_first(sim, tamper)
        with pytest.raises(AssertionError, match="aggregate check"):
            sim.run()
        assert len(edited) == 1
        assert sim.counts["reports_rejected"] == 0

    def test_no_session_receipt_is_checked_on_arrival(self, monkeypatch):
        def alone(*args, **kwargs):
            raise AssertionError("a session receipt was checked on arrival")

        monkeypatch.setattr(at, "verify_session_receipt", alone)
        sc_ = dataclasses.replace(BASE, policy=at.SessionPolicy(),
                                  tracker_down=((800_000, 1_000_000),), migrate_on_recovery=True)
        res = swarm.run_scenario(sc_, FAST)
        assert res.metrics["tracker"]["migrations"] == 1
        for name, p in res.metrics["peers"].items():
            assert p["chain_up"] - res.scenario.init_credit == p["receipted_up"], name
            assert p["chain_down"] == p["receipted_down"], name
        c = res.metrics["counts"]
        assert c["receipts"] > 0 and c["reports_rejected"] == 0
        assert res.metrics["ops"]["session_verify"] == c["receipts"]  # still charged

    def test_stale_sessions_are_refused_not_raised(self):
        """The sender's check judges no epoch: sessions that went stale during
        an outage reach the tracker, which refuses them."""
        sc_ = scn.Scenario(name="stale", seed=4, peers=4, seeders=1,
                           file_size=3 * 1024, piece_size=512, bandwidth=100.0,
                           epoch_window=40, tracker_down=((5_000, 200_000),),
                           policy=at.SessionPolicy())
        res = swarm.run_scenario(sc_, FAST)
        assert res.metrics["counts"]["reports_rejected"] > 0

    def test_replay_drill_checks_its_honest_payload(self):
        sim = swarm.SwarmSim(dataclasses.replace(BASE, adversaries=("replay",)), FAST)
        drill, seen = sim._run_adversaries, []

        def drill_tampered(t_s):
            seeder = sim.peers[0]  # the drill's reporter
            seen.append(len(seeder.pending_receipts))
            _hash_changed(seeder.pending_receipts, sim.meta)
            drill(t_s)

        sim._run_adversaries = drill_tampered
        with pytest.raises(AssertionError, match="aggregate check"):
            sim.run()
        assert seen and seen[0] > 0
        assert sim.adversary["replay"]["attempts"] == 0

    @pytest.mark.parametrize("policy", POLICIES[:3], ids=lambda p: type(p).__name__)
    def test_no_receipt_is_checked_alone(self, policy, monkeypatch):
        def alone(*args, **kwargs):
            raise AssertionError("a receipt was checked alone")

        monkeypatch.setattr(at, "verify_receipt", alone)
        res = swarm.run_scenario(dataclasses.replace(BASE, policy=policy), FAST)
        for name, p in res.metrics["peers"].items():
            assert p["chain_up"] - res.scenario.init_credit == p["receipted_up"], name
            assert p["chain_down"] == p["receipted_down"], name
        c = res.metrics["counts"]
        assert c["receipts"] > 0 and c["reports_rejected"] == 0
        assert res.metrics["ops"]["verify"] == c["receipts"]  # still charged per receipt


class TestAdversaries:
    def test_all_three_attempt_once_and_fail(self):
        sc = dataclasses.replace(BASE, adversaries=("inflate", "replay", "forge"))
        res = swarm.run_scenario(sc, FAST)
        assert res.metrics["adversary"] == {
            "inflate": {"attempts": 1, "accepted": 0},
            "replay": {"attempts": 1, "accepted": 0},
            "forge": {"attempts": 1, "accepted": 0},
        }
        assert res.metrics["counts"]["reports_rejected"] == 3
        # the drills leave the ledger untouched
        for p in res.metrics["peers"].values():
            assert p["chain_up"] - sc.init_credit == p["receipted_up"]
            assert p["chain_down"] == p["receipted_down"]


class TestOutageAndMigration:
    def test_completions_during_an_outage_fall_back_to_the_dht(self):
        # 100 B/s over 3 KiB: every leecher finishes mid-outage
        sc = scn.Scenario(name="outage", seed=4, peers=4, seeders=1,
                          file_size=3 * 1024, piece_size=512,
                          bandwidth=100.0, epoch_window=40,
                          tracker_down=((5_000, 36_000),))
        res = swarm.run_scenario(sc, FAST)
        d = res.metrics["dht"]
        assert d["fallback_get_peers"] == 3
        assert d["fallback_announces"] >= 3
        assert res.metrics["tracker"]["migrations"] == 0
        # buffered reports land after recovery; the ledger still balances
        assert res.metrics["counts"]["reports_rejected"] == 0
        for p in res.metrics["peers"].values():
            assert p["chain_down"] == p["receipted_down"]

    def test_outage_announce_adds_dht_peers_to_the_view(self):
        sc = scn.Scenario(name="outage-view", seed=4, peers=4, seeders=1,
                          file_size=3 * 1024, piece_size=512,
                          tracker_down=((5_000, 36_000),))
        sim = swarm.SwarmSim(sc, FAST)
        seeder, leecher = sim.peers[0], sim.peers[1]
        sim.t, leecher.view = 10_000.0, set()
        sim._announce(leecher, "completed")
        assert leecher.view == {seeder.kp.pk}  # the seeder's record; never its own

    def test_migration_preserves_every_balance(self):
        control = dataclasses.replace(BASE, name="ctl")
        moved = dataclasses.replace(
            BASE, name="ctl",  # same name so peer metrics line up
            tracker_down=((800_000, 1_000_000),), migrate_on_recovery=True)
        a = swarm.run_scenario(control, FAST)
        b = swarm.run_scenario(moved, FAST)
        assert b.metrics["tracker"]["migrations"] == 1
        assert a.metrics["tracker"]["migrations"] == 0
        assert b.metrics["peers"] == a.metrics["peers"]
        # the successor names its predecessor, which (by construction) is the
        # same instance the control run kept using
        assert a.metrics["tracker"]["referrer"] is None
        assert b.metrics["tracker"]["referrer"] == a.metrics["tracker"]["addr"]
        assert b.metrics["tracker"]["addr"] != a.metrics["tracker"]["addr"]


def test_chain_log_survives_a_run(tmp_path):
    path = str(tmp_path / "sim-chain.log")
    res = swarm.run_scenario(BASE, FAST, chain_path=path)
    res.chain.close()
    reloaded = ct.chain_new(res.chain.allowlist, res.chain.hw_root_pk, path=path)
    assert ct.serialize_state(reloaded) == ct.serialize_state(res.chain)
    assert ct.state_digest(reloaded) == ct.state_digest(res.chain)


def test_overhead_model_recorded_in_metrics():
    res = swarm.run_scenario(BASE, FAST)
    want = C.throughput_overhead(BASE.file_size, BASE.bandwidth,
                                 BASE.piece_size, BASE.policy, FAST)
    assert res.metrics["overhead_model"] == want


# One small run per receipt policy, covering reports, the three adversaries,
# an outage and a migration.  Each digest pair was recorded from a known-good
# tracker: the chain log fixes which contract writes happen and in what order,
# the metrics fix what the run observed.  A change to either is a change in
# protocol behaviour, not a refactor.
GOLDEN = scn.Scenario(
    name="golden", seed=1234, peers=5, seeders=2, file_size=24 * 1024,
    piece_size=4 * 1024, tracker_down=((1_000_000, 1_200_000),),
    migrate_on_recovery=True, adversaries=("inflate", "replay", "forge"))

GOLDEN_DIGESTS = {
    "PerPiecePolicy": (
        "a73f172bfcf2650890c6ca48e2e48166b0dbd17a550d9fa46d0db6096a3f1996",
        "1aa06350c2980cc8237a21a727571afa1aece9c4954ec9ebadd3bc9454a42745"),
    "AdaptivePolicy": (
        "8449b372b846f72b189c019b5c9fd60af57be96e3386b52a13b729294fe75f3e",
        "1bdad527f7f59bad04bf3d5463033ea7ebc67d233f8292b348c12a3860e5e506"),
    "BatchPolicy": (
        "c665a5823ddf55729a164074c86277b8ce49ff0d0309e45a84a7d3f12e070488",
        "d13a117b0bef7342193d586879fdbc32a8f33311d0dd5ba63cd007ab58249fc7"),
    "SessionPolicy": (
        "315262c8dddfb31d7348d9a641414bcf017f4269866745c971ca8bccd1a02c92",
        "a56b888f57198dfb2fef07a035bfa89ab21e52593e4f539749ea233f67471ccc"),
}


@pytest.mark.parametrize("policy", POLICIES[:4], ids=lambda p: type(p).__name__)
def test_golden_chain_log(policy, tmp_path):
    path = tmp_path / "chain.log"
    res = swarm.run_scenario(dataclasses.replace(GOLDEN, policy=policy), FAST,
                             chain_path=str(path))
    res.chain.close()
    assert res.metrics["tracker"]["migrations"] == 1
    assert res.metrics["counts"]["reports_rejected"] == 3
    log_digest, metrics_digest = GOLDEN_DIGESTS[type(policy).__name__]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == log_digest
    assert hashlib.sha256(res.metrics_bytes).hexdigest() == metrics_digest
