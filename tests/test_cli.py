"""Command-line interface: exit codes, JSON output, and chain-log plumbing."""

import json
import subprocess
import sys

import pytest

from pbts import attestation as at
from pbts import contract as ct
from pbts.sim import cli
from pbts.sim import costs as C
from pbts.sim import scenario as scn
from pbts.sim.games import GameResult


@pytest.fixture()
def scenario_file(tmp_path):
    sc = scn.Scenario(name="cli", seed=2, peers=4, seeders=1,
                      file_size=8 * 1024, piece_size=4 * 1024)
    p = tmp_path / "cli.json"
    p.write_text(json.dumps(scn.scenario_to_json(sc)))
    return str(p)


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


class TestRun:
    def test_pretty_summary(self, scenario_file, capsys):
        assert cli.main(["run", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "scenario cli:" in out
        assert "reports accepted" in out
        assert "rep inf" in out  # the seeder never downloads

    def test_json_output_parses(self, scenario_file, capsys):
        assert cli.main(["run", scenario_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"]["name"] == "cli"
        assert doc["counts"]["reports_rejected"] == 0
        assert set(doc["peers"]) == {"peer-00", "peer-01", "peer-02", "peer-03"}

    def test_out_file_matches_stdout(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert cli.main(["run", scenario_file, "--json", "--out", str(out)]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_chain_flag_persists_the_log(self, scenario_file, tmp_path, capsys):
        log = tmp_path / "chain.log"
        assert cli.main(["run", scenario_file, "--chain", str(log)]) == 0
        entries = ct.read_log(str(log))
        assert entries and entries[0]["seq"] == 1


class TestChainDump:
    def test_requires_a_path(self, capsys, monkeypatch):
        monkeypatch.delenv("PBTS_CHAIN", raising=False)
        assert cli.main(["chain", "dump"]) == 2
        assert "PBTS_CHAIN" in capsys.readouterr().err

    def test_unknown_action_is_refused(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["chain", "load"])
        assert e.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_env_var_supplies_the_path(self, scenario_file, tmp_path,
                                       capsys, monkeypatch):
        log = tmp_path / "env-chain.log"
        monkeypatch.setenv("PBTS_CHAIN", str(log))
        assert cli.main(["run", scenario_file]) == 0
        capsys.readouterr()
        assert cli.main(["chain", "dump"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["op"] == "init" and first["seq"] == 1
        assert [json.loads(x)["seq"] for x in lines] == list(range(1, len(lines) + 1))

    def test_positional_path(self, scenario_file, tmp_path, capsys):
        log = tmp_path / "pos-chain.log"
        assert cli.main(["run", scenario_file, "--chain", str(log)]) == 0
        capsys.readouterr()
        assert cli.main(["chain", "dump", str(log)]) == 0
        assert capsys.readouterr().out.strip()

    def test_torn_log_is_reported_with_its_seq(self, scenario_file, tmp_path, capsys):
        log = tmp_path / "torn-chain.log"
        assert cli.main(["run", scenario_file, "--chain", str(log)]) == 0
        capsys.readouterr()
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        assert cli.main(["chain", "dump", str(log)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "chain log corrupt at seq 3" in err

    def test_missing_file_is_an_io_error(self, tmp_path, capsys):
        assert cli.main(["chain", "dump", "--chain",
                         str(tmp_path / "nope.log")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize("argv, reason", [
        (["overhead", "--bandwidth", "0"], "bandwidth must be positive"),
        (["overhead", "--bandwidth", "-5"], "bandwidth must be positive"),
        (["overhead", "--file-size", "0"], "sizes must be positive"),
        (["table1", "--pieces", "-1"], "negative piece count"),
        (["table1", "--sign-ms", "-1"], "latencies must be positive"),
        (["bench", "--reps", "5"], "at least 100 repetitions"),
    ])
    def test_out_of_range_number(self, argv, reason, capsys):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"pbts {argv[0]}: ") and reason in err

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("pbts run: cannot read") and "nope.json" in err

    @pytest.mark.parametrize("text, reason", [
        ('{"peers": 1}', "at least one seeder"),
        ('{"turbo": true}', "turbo"),
        ('{"peers": ', "Expecting value"),
    ])
    def test_invalid_scenario_file(self, text, reason, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert cli.main(["run", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("pbts run: ") and reason in err


class TestTable1:
    def test_pretty_table_with_note(self, capsys):
        assert cli.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "per-piece" in out and "session" in out
        assert "note:" in out

    def test_json_rows(self, capsys):
        assert cli.main(["table1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["policy"] for r in rows] == [
            "per-piece", "adaptive", "batch", "session"]
        assert rows[0]["signatures"] == 2560

    def test_pieces_flag(self, capsys):
        assert cli.main(["table1", "--json", "--pieces", "100"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["signatures"] == 100


class TestOverhead:
    def test_json_matches_the_model(self, capsys):
        assert cli.main(["overhead", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {str(256 * 1024), str(2 * C.MIB)}
        for size, frac in doc.items():
            want = C.throughput_overhead(C.GIB, float(C.MIB), int(size),
                                         at.PerPiecePolicy(), C.CostModel())
            assert frac == want

    def test_policy_flag(self, capsys):
        assert cli.main(["overhead", "--json", "--policy", "session",
                         "--piece-size", "262144"]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = C.throughput_overhead(C.GIB, float(C.MIB), 262144,
                                     at.SessionPolicy(), C.CostModel())
        assert doc == {"262144": want}

    def test_null_policy_costs_nothing(self, capsys):
        assert cli.main(["overhead", "--json", "--policy", "null"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(v == 0.0 for v in doc.values())

    def test_pretty_percentages(self, capsys):
        assert cli.main(["overhead", "--piece-size", "262144"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "%" in out


class TestGames:
    def _stub(self, monkeypatch, results):
        monkeypatch.setattr(cli, "run_all_games",
                            lambda quick, seed: results)

    def test_all_pass_exits_zero(self, capsys, monkeypatch):
        self._stub(monkeypatch, [
            GameResult("registration-forgery", 10, 0, {}, 0.1)])
        assert cli.main(["games", "--quick"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_any_failure_exits_one(self, capsys, monkeypatch):
        self._stub(monkeypatch, [
            GameResult("registration-forgery", 10, 0, {}, 0.1),
            GameResult("receipt-reuse", 10, 2, {"witness": "x"}, 0.1),
        ])
        assert cli.main(["games"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "  witness: x" in out

    def test_json_report(self, capsys, monkeypatch):
        self._stub(monkeypatch, [GameResult("soundness", 5, 0, {}, 1.0)])
        assert cli.main(["games", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == [{"name": "soundness", "trials": 5, "violations": 0,
                        "passed": True, "elapsed_s": 1.0}]


def test_bench_json(capsys):
    assert cli.main(["bench", "--reps", "100", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"sign_ms", "verify_ms", "session_sign_ms",
                        "session_verify_ms", "agg_verify_ms", "agg_speedup",
                        "one_signer_agg_verify_ms", "one_signer_agg_speedup"}
    for regime in ("agg_speedup", "one_signer_agg_speedup"):
        assert set(doc[regime]) == {"10", "25", "50", "100"}
        assert all(v > 0 for v in doc[regime].values())


def test_module_entry_point(scenario_file):
    out = subprocess.run(
        [sys.executable, "-m", "pbts.sim.cli", "table1", "--json"],
        capture_output=True, text=True, check=True)
    rows = json.loads(out.stdout)
    assert len(rows) == 4
