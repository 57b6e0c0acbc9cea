"""Scenario descriptions for simulated swarms.

A scenario is a frozen value object so a run is fully determined by
(scenario, nothing else) — the seed lives inside it.  The JSON form is the
on-disk interchange format for the CLI; parsing is strict so a typo'd field
fails loudly instead of silently running a different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .. import attestation as at

KNOWN_ADVERSARIES = ("inflate", "replay", "forge")


@dataclass(frozen=True)
class Scenario:
    name: str = "swarm"
    seed: int = 0
    peers: int = 6
    seeders: int = 2
    file_size: int = 64 * 1024
    piece_size: int = 4 * 1024
    policy: object = field(default_factory=at.PerPiecePolicy)
    epoch_window: int = at.DEFAULT_EPOCH_WINDOW
    epoch_delta: int = at.DEFAULT_EPOCH_DELTA
    min_rep: Fraction = Fraction(1, 4)
    init_credit: int = 64 * 1024
    bandwidth: float = float(1 << 20)      # bytes/second per connection
    tracker_down: tuple = ()               # ((start_ms, end_ms), ...)
    migrate_on_recovery: bool = False
    adversaries: tuple = ()

    def __post_init__(self):
        if self.peers < 2 or not 1 <= self.seeders < self.peers:
            raise ValueError("need at least one seeder and one leecher")
        if self.file_size <= 0 or self.piece_size <= 0:
            raise ValueError("sizes must be positive")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.epoch_window <= 0 or self.epoch_delta < 0:
            raise ValueError("bad epoch parameters")
        for iv in self.tracker_down:
            # outages start strictly after t=0 so the initial announce round
            # always reaches a live tracker
            if len(iv) != 2 or not 0 < iv[0] < iv[1]:
                raise ValueError(f"bad outage interval {iv!r}: tracker_down holds "
                                 "(start_ms, end_ms) pairs, 0 < start < end")
        for a, b in zip(self.tracker_down, self.tracker_down[1:]):
            if a[1] > b[0]:
                raise ValueError("outage intervals must be sorted and disjoint")
        for adv in self.adversaries:
            if adv not in KNOWN_ADVERSARIES:
                raise ValueError(f"unknown adversary {adv!r}")

    @property
    def num_pieces(self) -> int:
        return -(-self.file_size // self.piece_size)

    @property
    def epoch_params(self) -> at.EpochParams:
        return at.EpochParams(window=self.epoch_window, delta=self.epoch_delta)


def _json_fraction(value, what: str) -> Fraction:
    """A JSON integer, or a string that ``Fraction`` parses exactly ("1/4",
    "0.1"); a bool, a float or anything else is refused, not converted."""
    try:
        if type(value) is int or isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{what} must be an integer or a fraction string, not {value!r}")


def _same(value):
    return value


def _json_of(noun: str, ok, convert=_same):
    """A parser that refuses a JSON value unless *ok* holds for it."""
    def parse(value, what: str):
        if not ok(value):
            raise ValueError(f"{what} must be {noun}, not {value!r}")
        return convert(value)
    return parse


_json_list = _json_of("a list", lambda v: type(v) is list)


def _json_outages(value, what: str) -> tuple:
    return tuple(tuple(at.json_int(t, what) for t in _json_list(iv, "an outage"))
                 for iv in _json_list(value, what))


_INT = (at.json_int, _same)

# every Scenario field: (parse its JSON value, dump it to one), in field order
_JSON = {
    "name": (_json_of("a string", lambda v: isinstance(v, str)), _same),
    "seed": _INT,
    "peers": _INT,
    "seeders": _INT,
    "file_size": _INT,
    "piece_size": _INT,
    "policy": (lambda value, what: at.policy_from_json(value), at.policy_to_json),
    "epoch_window": _INT,
    "epoch_delta": _INT,
    "min_rep": (_json_fraction, str),
    "init_credit": _INT,
    "bandwidth": (_json_of("a number", lambda v: not isinstance(v, bool)
                           and isinstance(v, (int, float)), float), _same),
    "tracker_down": (_json_outages, lambda ivs: [list(iv) for iv in ivs]),
    "migrate_on_recovery": (_json_of("a bool", lambda v: type(v) is bool), _same),
    "adversaries": (lambda value, what: tuple(_json_list(value, what)), list),
}


def scenario_to_json(sc: Scenario) -> dict:
    return {f: dump(getattr(sc, f)) for f, (_, dump) in _JSON.items()}


def scenario_from_json(doc: dict) -> Scenario:
    if type(doc) is not dict:
        raise ValueError(f"a scenario must be a JSON object, not {doc!r}")
    unknown = set(doc) - set(_JSON)
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    return Scenario(**{f: parse(doc[f], f) for f, (parse, _) in _JSON.items() if f in doc})


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return scenario_from_json(json.load(fh))
