"""scripts/bench_pairs.py against two fake checkouts whose benchmark prints a
fixed detail and result object, so no workload runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

FAKE_RUN = '''import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("noise line")
print(json.dumps({"host": {"nproc": 2}, "reference_kernel_ms": %(kernel)s,
                  "named_metrics": {"dht_ops_per_s": {"value": %(rate)s, "unit": "1/s",
                                                      "samples": 3}}}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    "throughput_norm": {"value": %(rate)s * %(kernel)s + seed, "unit": "1/ref-s"},
    "latency_p50_norm": {"value": %(p50)s, "unit": "ref-ms"}}}))
'''


def fake_checkout(root: Path, kernel: float, rate: float, p50: float) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN % {"kernel": kernel, "rate": rate,
                                                           "p50": p50})
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "throughput_norm", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_norm", "better": "lower", "bound": 0.25}]}))
    return root


def test_pairs_alternate_and_keep_every_run(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    bp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bp)
    parent = fake_checkout(tmp_path / "p", kernel=1.0, rate=100.0, p50=5.0)
    change = fake_checkout(tmp_path / "c", kernel=0.5, rate=300.0, p50=1.0)
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "outage", "--out", str(out)]
    assert bp.main(argv + ["--seeds", "7", "8", "9"]) == 0
    assert bp.main(argv + ["--seeds", "10"]) == 0  # appends, numbering on

    doc = json.loads(out.read_text())
    runs = doc["runs"]
    assert [(r["pair"], r["seed"], r["side"], r["first"]) for r in runs] == [
        (1, 7, "parent", "parent"), (1, 7, "change", "parent"),
        (2, 8, "change", "change"), (2, 8, "parent", "change"),
        (3, 9, "parent", "parent"), (3, 9, "change", "parent"),
        (4, 10, "change", "change"), (4, 10, "parent", "change")]
    assert {r["side"]: r["reference_kernel_ms"] for r in runs} == {"parent": 1.0, "change": 0.5}
    assert {r["side"]: r["named_metrics"]["dht_ops_per_s"] for r in runs} == {
        "parent": 100.0, "change": 300.0}
    p50 = doc["summary"]["outage"]["latency_p50_norm"]
    assert (p50["pairs"], p50["change_better_pairs"]) == (4, 4)
    assert (p50["parent_median"], p50["change_median"]) == (5.0, 1.0)
    tput = doc["summary"]["outage"]["throughput_norm"]
    assert tput["parent_median"] == 108.5 and tput["change_q1"] <= tput["change_q3"]
