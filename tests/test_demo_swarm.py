"""Smoke test for scripts/demo_swarm.py: a tiny run of every policy."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "demo_swarm.py"


def test_demo_prints_one_block_per_policy(capsys):
    spec = importlib.util.spec_from_file_location("demo_swarm", SCRIPT)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(["--peers", "3", "--pieces", "4"])
    headers = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("== ")]
    assert [h.split()[1] for h in headers] == [p.name for p in demo.POLICIES]
