"""Per-layer tracing from outside the program.

A traced repetition wraps the public functions of each pbts layer in place
(module attributes and class methods), so every call that crosses into a layer
records a span: name, parent span, root span (one per request), start and
end.  From the spans come inclusive time, self time (inclusive minus wrapped
children) and call counts; memo hit ratios come from the ``cache_info()`` of
the memoised functions, compared before and after the traced region.

Nothing in ``src/pbts`` knows about tracing; the end-to-end numbers come from
untraced repetitions.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (metric prefix, module, attribute) of every wrapped function.  Requests
# that the workloads issue themselves (dht_get_peers, dht_announce) are
# wrapped only to root their spans; they have no per-layer metric.
WRAPPED = [
    ("bls12381.multi_pairing_is_one", "pbts.bls12381", "multi_pairing_is_one"),
    ("bls12381.final_exponentiation", "pbts.bls12381", "final_exponentiation"),
    ("bls12381.hash_to_g2", "pbts.bls12381", "hash_to_g2"),
    ("bls12381.g2_mul", "pbts.bls12381", "g2_mul"),
    ("secp256k1.sign", "pbts.secp256k1", "sign"),
    ("secp256k1.verify", "pbts.secp256k1", "verify"),
    ("sigcrypto.sign", "pbts.sigcrypto", "sign"),
    ("sigcrypto.verify", "pbts.sigcrypto", "verify"),
    ("sigcrypto.aggregate_verify", "pbts.sigcrypto", "aggregate_verify"),
    ("sigcrypto.canonical_encode", "pbts.sigcrypto", "canonical_encode"),
    ("enclave.verify_quote", "pbts.enclave", "verify_quote"),
    ("enclave.kms_derive", "pbts.enclave", "kms_derive"),
    ("contract.sc_write", "pbts.contract", "sc_write"),
    ("contract.sc_read", "pbts.contract", "sc_read"),
    ("contract.chain_new", "pbts.contract", "chain_new"),
    ("attestation.verify_session_receipt", "pbts.attestation", "verify_session_receipt"),
    ("attestation.merkle_root", "pbts.attestation", "merkle_root"),
    ("attestation.attest", "pbts.attestation", "attest"),
    ("attestation.verify_receipt", "pbts.attestation", "verify_receipt"),
    ("tracker.register", "pbts.tracker", "Tracker.register"),
    ("tracker.announce", "pbts.tracker", "Tracker.announce"),
    ("tracker.report", "pbts.tracker", "Tracker.report"),
    ("tracker.report_batch", "pbts.tracker", "Tracker.report_batch"),
    ("tracker.report_session", "pbts.tracker", "Tracker.report_session"),
    ("tracker.gc_recent", "pbts.tracker", "Tracker.gc_recent"),
    ("tracker.migrate", "pbts.tracker", "migrate"),
    ("dht.dht_get_peers", "pbts.dht", "dht_get_peers"),
    ("dht.dht_announce", "pbts.dht", "dht_announce"),
    ("dht.find_closest", "pbts.dht", "find_closest"),
    ("dht.bootstrap", "pbts.dht", "bootstrap"),
    ("dht.handle_store", "pbts.dht", "DhtNode.handle_store"),
    ("dht.rpc_find_node", "pbts.dht", "DhtNet.rpc_find_node"),
    ("dht.rpc_store", "pbts.dht", "DhtNet.rpc_store"),
    ("dht.rpc_get", "pbts.dht", "DhtNet.rpc_get"),
    ("sim.swarm.run", "pbts.sim.swarm", "SwarmSim.run"),
]

# Calls made from inside the function's own module are not layer crossings:
# g2_mul also runs inside hash-to-curve cofactor clearing and subgroup checks,
# and is counted only when another layer calls it (signing).
EXTERNAL_ONLY = {"bls12381.g2_mul"}

# memoised functions whose hit ratio is reported: metric -> (module, attribute)
MEMOS = {
    "bls12381.hash_to_g2.hit_ratio": ("pbts.bls12381", "hash_to_g2"),
    "bls12381.g1_from_bytes.hit_ratio": ("pbts.bls12381", "g1_from_bytes"),
    "bls12381.g2_from_bytes.hit_ratio": ("pbts.bls12381", "g2_from_bytes"),
    "sigcrypto.verify.memo_hit_ratio": ("pbts.sigcrypto", "_verify_uncached"),
}

TRACKER_OPS = ("register", "announce", "report", "report_batch", "report_session")

# every per-layer metric a traced run reports: name -> (unit, better)
PER_LAYER = {}


def _metric(name, unit, better="lower"):
    PER_LAYER[name] = (unit, better)


for _fn in ("multi_pairing_is_one", "final_exponentiation", "hash_to_g2", "g2_mul"):
    _metric(f"bls12381.{_fn}.calls", "count")
    _metric(f"bls12381.{_fn}.ms", "ms")
_metric("bls12381.multi_pairing_is_one.pairs", "count")
for _m in ("bls12381.hash_to_g2.hit_ratio", "bls12381.g1_from_bytes.hit_ratio",
           "bls12381.g2_from_bytes.hit_ratio"):
    _metric(_m, "ratio", "higher")
for _fn in ("sign", "verify"):
    _metric(f"secp256k1.{_fn}.calls", "count")
    _metric(f"secp256k1.{_fn}.ms", "ms")
for _fn in ("sign", "verify", "aggregate_verify", "canonical_encode"):
    _metric(f"sigcrypto.{_fn}.calls", "count")
    _metric(f"sigcrypto.{_fn}.ms", "ms")
_metric("sigcrypto.verify.memo_hit_ratio", "ratio", "higher")
_metric("sigcrypto.aggregate_verify.self_ms", "ms")
_metric("enclave.verify_quote.calls", "count")
_metric("enclave.verify_quote.ms", "ms")
_metric("enclave.kms_derive.ms", "ms")
for _fn in ("sc_write", "sc_read"):
    _metric(f"contract.{_fn}.calls", "count")
    _metric(f"contract.{_fn}.ms", "ms")
_metric("contract.sc_write.self_ms", "ms")
_metric("contract.log_bytes", "bytes")
_metric("contract.chain_new.ms", "ms")
for _fn in ("verify_session_receipt", "merkle_root", "attest", "verify_receipt"):
    _metric(f"attestation.{_fn}.calls", "count")
    _metric(f"attestation.{_fn}.ms", "ms")
for _op in ("announce", "report", "report_batch", "report_session"):
    _metric(f"tracker.{_op}.self_ms", "ms")
for _op in TRACKER_OPS:
    _metric(f"tracker.{_op}.rejects", "count")
_metric("tracker.register.ms", "ms")
_metric("tracker.recent.size_max", "count")
_metric("tracker.gc_recent.ms", "ms")
_metric("tracker.migrate.ms", "ms")
_metric("dht.find_closest.calls", "count")
_metric("dht.find_closest.ms", "ms")
_metric("dht.find_closest.self_ms", "ms")
_metric("dht.find_closest.rounds", "count")
_metric("dht.rpcs_per_lookup", "rpc/lookup")
_metric("dht.rpc_failed_ratio", "ratio")
_metric("dht.handle_store.calls", "count")
_metric("dht.handle_store.ms", "ms")
_metric("dht.store_accept_ratio", "ratio", "higher")
_metric("dht.bootstrap.ms", "ms")
_metric("sim.swarm.run.self_ms", "ms")
_metric("sim.swarm.events", "count")


def announce_accepted(tracker, args) -> bool:
    """Tracker.announce returns [] both for a rejection and for a lone
    peer, so acceptance is read from the swarm table it updates."""
    uid, pk, sig, tid, event, ip, port = args[:7]
    entry = tracker.swarms.get(tid, {}).get(pk)
    return entry is None if event == "stopped" else entry == (ip, port)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.incl_ns = {}
        self.self_ns = {}
        self.counters = {}
        self.spans = []      # (span id, parent id, root id, name, start ns, end ns)
        self._stack = []     # [span id, root id, ns in wrapped children, name]
        self._restore = []
        self._memo_start = {}

    def add(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for name, modname, attr in WRAPPED:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, orig, modname))
            self._restore.append((owner, attr, orig))
        self._memo_start = {m: self._memo_info(m) for m in MEMOS}

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, orig, modname: str):
        stack, spans = self._stack, self.spans
        calls, incl, selft = self.calls, self.incl_ns, self.self_ns
        for d in (calls, incl, selft):
            d.setdefault(name, 0)
        hook = _HOOKS.get(name)
        external_only = name in EXTERNAL_ONLY
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if external_only and sys._getframe(1).f_globals.get("__name__") == modname:
                return orig(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else None
            frame = [sid, parent[1] if parent else sid, 0, name]
            stack.append(frame)
            spans.append(None)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if parent:
                    parent[2] += dt
                calls[name] += 1
                incl[name] += dt
                selft[name] += dt - frame[2]
                spans[sid] = (sid, parent[0] if parent else None, frame[1], name, t0, t1)
            if hook:
                hook(self, result, args)
            return result

        traced.__wrapped__ = orig
        traced.__doc__ = orig.__doc__
        return traced

    @staticmethod
    def _memo_info(metric: str):
        modname, attr = MEMOS[metric]
        fn = getattr(importlib.import_module(modname), attr, None)
        info = getattr(fn, "cache_info", None)
        return info() if info else None

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        ms = {n: v / 1e6 for n, v in self.incl_ns.items()}
        self_ms = {n: v / 1e6 for n, v in self.self_ns.items()}
        c = dict(self.counters)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name, (unit, _) in PER_LAYER.items():
            prefix, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = self.calls[prefix]
            elif stat == "ms" and prefix in ms:
                out[name] = ms[prefix]
            elif stat == "self_ms":
                out[name] = self_ms[prefix]
            elif name in MEMOS:
                start, end = self._memo_start[name], self._memo_info(name)
                if start is None or end is None:
                    out[name] = 0.0
                else:
                    hits, misses = end.hits - start.hits, end.misses - start.misses
                    out[name] = ratio(hits, hits + misses)
            elif name == "dht.rpcs_per_lookup":
                out[name] = ratio(c.get("dht.lookup_rpcs", 0), self.calls["dht.find_closest"])
            elif name == "dht.rpc_failed_ratio":
                rpcs = sum(self.calls[f"dht.{r}"] for r in ("rpc_find_node", "rpc_store", "rpc_get"))
                out[name] = ratio(c.get("dht.rpc_failed", 0), rpcs)
            elif name == "dht.store_accept_ratio":
                out[name] = ratio(c.get("dht.store_accepted", 0), self.calls["dht.handle_store"])
            else:
                out[name] = c.get(name, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- result hooks: counts that only the call's arguments or result reveal --------


def _report_hook(op):
    def hook(tracer, ok, args):
        if not ok:
            tracer.add(f"tracker.{op}.rejects")
        tracer.peak("tracker.recent.size_max", len(args[0].recent))
    return hook


def _register_hook(tracer, ok, args):
    if not ok:
        tracer.add("tracker.register.rejects")


def _announce_hook(tracer, result, args):
    if not announce_accepted(args[0], args[1:]):
        tracer.add("tracker.announce.rejects")


def _find_closest_hook(tracer, result, args):
    tracer.add("dht.find_closest.rounds", result[1])


def _rpc_hook(tracer, result, args):
    if result is None:
        tracer.add("dht.rpc_failed")


def _find_node_hook(tracer, result, args):
    _rpc_hook(tracer, result, args)
    # hooks run after the call's own frame is popped: the top is its caller
    if tracer._stack and tracer._stack[-1][3] == "dht.find_closest":
        tracer.add("dht.lookup_rpcs")


def _handle_store_hook(tracer, result, args):
    if result[0]:
        tracer.add("dht.store_accepted")


def _pairs_hook(tracer, result, args):
    tracer.add("bls12381.multi_pairing_is_one.pairs", len(args[0]))


def _run_hook(tracer, result, args):
    tracer.add("sim.swarm.events", args[0].seq)


_HOOKS = {
    "tracker.register": _register_hook,
    "tracker.announce": _announce_hook,
    "tracker.report": _report_hook("report"),
    "tracker.report_batch": _report_hook("report_batch"),
    "tracker.report_session": _report_hook("report_session"),
    "dht.find_closest": _find_closest_hook,
    "dht.rpc_find_node": _find_node_hook,
    "dht.rpc_store": _rpc_hook,
    "dht.rpc_get": _rpc_hook,
    "dht.handle_store": _handle_store_hook,
    "bls12381.multi_pairing_is_one": _pairs_hook,
    "sim.swarm.run": _run_hook,
}
