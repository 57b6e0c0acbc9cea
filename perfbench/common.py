"""Constants and helpers shared by the benchmark's orchestrator, corpus
generator and repetition processes.  Importing this module does not import
pbts, so the orchestrator stays light and never warms a pbts cache."""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PKG = SRC / "pbts"
# Corpora, chain logs and traces live under the build directory, which git
# ignores.
WORK = ROOT / ".bench_build" / "perfbench"

PROGRAM_ID = b"pbts-tracker"
CONFIG = b"bench-v1"
EPOCH_WINDOW = 3600
EPOCH_DELTA = 2
FIRST_EPOCH = 1000

WORKLOADS = {
    "tracker-ingest": (
        "the paper's hot path: cold-cache aggregate verification of receipts "
        "never seen by the serving process, then attested contract writes"),
    "outage": (
        "the fault-tolerance story: chain-log replay, one-hop migration and a "
        "chain-gated DHT serving lookups while the tracker is gone"),
    "swarm-sim": (
        "the researcher-facing path: client-side signing, honest per-receipt "
        "checks and aggregate verification on messages the signer cached"),
}


def code_digest() -> str:
    """Digest of the pbts sources and of this benchmark's own code, so a
    cached corpus is never served to code that did not generate it."""
    h = hashlib.sha256()
    for base in (PKG, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


_REF_MODULUS = (1 << 381) - 3  # the width of the pairing curve's base field


def reference_kernel_ms() -> float:
    """Duration of a fixed CPU kernel (about 1 ms on an idle 2020s x86 core):
    big-integer modular multiplication, the arithmetic pbts spends its time
    in, and a sort with a Python key function, like the DHT's routing.
    Timings divided by it are in ``ref-ms``, multiples of this kernel, which
    cancels changes in the host's CPU speed between and within runs."""
    t0 = time.perf_counter()
    x, y = 3, _REF_MODULUS - 12345
    for i in range(600):
        x = (x * y + i) % _REF_MODULUS
    sorted(range(1200), key=lambda v: (v * 2654435761) & 0xFFFF)
    return (time.perf_counter() - t0) * 1000.0


def child_env() -> dict:
    """Environment for every process the benchmark starts: the checkout's
    own sources first on the path, and a fixed hash seed so set iteration
    order (and with it every traced count) repeats across processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env
