"""The program surface that the benchmark under ``perfbench/`` calls.

The benchmark's files are fixed, so a change to a name, a positional
signature or a payload shape they use breaks the benchmark without breaking
any other test.  This module drives that surface the way the benchmark does:
the tracer's wrapped and memoised targets, the corpus generator's signing
tasks served by a fresh tracker, its adversarial payload edits, and its
positional calls."""

import dataclasses
import importlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import corpus  # noqa: E402
import tracer  # noqa: E402

from pbts import attestation as at  # noqa: E402
from pbts import contract as ct  # noqa: E402
from pbts import dht  # noqa: E402
from pbts import sigcrypto as sc  # noqa: E402
from pbts import tracker as tr  # noqa: E402

NOW = corpus.FIRST_EPOCH * corpus.EPOCH_WINDOW + 60
METHOD = {"report": "report", "batch": "report_batch", "session": "report_session"}


def _resolve(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name,modname,attr", tracer.WRAPPED, ids=[w[0] for w in tracer.WRAPPED])
def test_wrapped_target_is_callable(name, modname, attr):
    assert callable(_resolve(modname, attr))


@pytest.mark.parametrize("metric", sorted(tracer.MEMOS))
def test_memo_target_has_cache_info(metric):
    assert callable(getattr(_resolve(*tracer.MEMOS[metric]), "cache_info", None))


class Ingest:
    """A fresh tracker on the corpus's parameters, three registered users
    and a four-piece torrent; user 0 reports what users 1 and 2 received."""

    def __init__(self):
        rng = random.Random(7)
        self.world = corpus.world_for(7)
        self.chain = ct.chain_new(self.world.allowlist, self.world.hw_root_pk)
        self.pp = tr.setup(128, corpus.MIN_REP, 1 << 20, rng)
        self.t = tr.Tracker.launch(self.world, self.chain, self.pp, corpus.PROGRAM_ID,
                                   corpus.CONFIG, epoch=corpus.EPOCH)
        assert self.t is not None
        self.contents = [sc.hash_data(b"guard-piece-%d" % j) for j in range(4)]
        self.meta = at.make_torrent("guard", [sc.hash_data(c) for c in self.contents],
                                    1024, length=4 * 1024 - 100)
        self.t.add_torrent(self.meta)
        self.users = [(b"guard-%d" % i, corpus._kp(rng)) for i in range(3)]
        for uid, kp in self.users:
            sig = corpus._task(("sign", kp.sk, tr.register_msg(self.pp.iid, uid)))
            assert self.t.register(uid, kp.pk, sig)

    def spec(self, kind):
        """The corpus's task spec of *kind*: u0 reports pieces 0-1 sent to u1
        and pieces 2-3 sent to u2."""
        uid, kp = self.users[0]
        shares = [(1, (0, 1)), (2, (2, 3))]
        if kind in ("report", "forged"):
            items = [(self.users[r][1], self.users[r][0], self.contents[j], j, NOW)
                     for r, js in shares for j in js]
            return (kind, uid, kp if kind == "forged" else kp.pk, self.meta, items)
        if kind == "batch":
            batches = [(self.users[r][1], self.users[r][0],
                        {j: self.contents[j] for j in js}, NOW) for r, js in shares]
            return (kind, uid, kp.pk, self.meta, batches)
        sessions = [(self.users[r][1], self.users[r][0], NOW,
                     [(j, self.contents[j]) for j in js]) for r, js in shares]
        return (kind, uid, kp.pk, self.meta, sessions)

    def submit(self, kind, payload):
        return getattr(self.t, METHOD.get(kind, "report"))(payload, NOW)

    def balances(self):
        return [(r.up, r.down) for r in
                (ct.sc_read(self.chain, self.t.addr, uid) for uid, _ in self.users)]


@pytest.mark.parametrize("kind", sorted(METHOD))
def test_corpus_task_is_credited_and_its_edits_refused(kind):
    env = Ingest()
    payload = corpus._task(env.spec(kind))
    ghost = corpus._kp(random.Random(8))
    before = env.balances()
    assert not env.submit(kind, dataclasses.replace(payload, delta_up=payload.delta_up + 1))
    assert not env.submit(kind, dataclasses.replace(payload, uid=corpus.GHOST_UID, pk=ghost.pk))
    assert env.balances() == before
    assert env.submit(kind, payload)
    size = env.meta.piece_size
    assert env.balances() == [(before[0][0] + 4 * size - 100, 0),
                              (before[1][0], 2 * size), (before[2][0], 2 * size - 100)]


def test_forged_corpus_task_refused():
    env = Ingest()
    before = env.balances()
    assert not env.submit("forged", corpus._task(env.spec("forged")))
    assert env.balances() == before


def test_positional_calls_of_the_corpus_and_the_serving_loop():
    env = Ingest()
    uid, kp = env.users[1]
    record = dht.make_record(kp, uid, env.meta.infohash, "10.1.0.1", 6881)
    assert (record.uid, record.pk, record.infohash, record.ip, record.port) == (
        uid, kp.pk, env.meta.infohash, "10.1.0.1", 6881)
    assert env.t._write(uid, kp.pk, 5000, 700)
    assert env.balances()[1] == (5000, 700)
    sig = corpus._task(("sign", kp.sk, tr.announce_msg(uid, env.meta.infohash, "started")))
    args = (uid, kp.pk, sig, env.meta.infohash, "started", "10.1.0.1", 6881)
    env.t.announce(*args)
    assert tracer.announce_accepted(env.t, args)
