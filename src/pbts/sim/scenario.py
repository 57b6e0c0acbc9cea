"""Scenario descriptions for simulated swarms.

A scenario is a frozen value object so a run is fully determined by
(scenario, nothing else) — the seed lives inside it.  The JSON form is the
on-disk interchange format for the CLI; parsing is strict so a typo'd field
fails loudly instead of silently running a different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
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
            a, b = iv
            # outages start strictly after t=0 so the initial announce round
            # always reaches a live tracker
            if not 0 < a < b:
                raise ValueError(f"bad outage interval {iv!r}")
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


_FIELDS = {f.name for f in fields(Scenario)}
_INT_FIELDS = ("seed", "peers", "seeders", "file_size", "piece_size",
               "epoch_window", "epoch_delta", "init_credit")


def scenario_to_json(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "seed": sc.seed,
        "peers": sc.peers,
        "seeders": sc.seeders,
        "file_size": sc.file_size,
        "piece_size": sc.piece_size,
        "policy": at.policy_to_json(sc.policy),
        "epoch_window": sc.epoch_window,
        "epoch_delta": sc.epoch_delta,
        "min_rep": str(sc.min_rep),
        "init_credit": sc.init_credit,
        "bandwidth": sc.bandwidth,
        "tracker_down": [list(iv) for iv in sc.tracker_down],
        "migrate_on_recovery": sc.migrate_on_recovery,
        "adversaries": list(sc.adversaries),
    }


def _json_fraction(value) -> Fraction:
    """A JSON integer, or a string that ``Fraction`` parses exactly ("1/4",
    "0.1"); a bool, a float or anything else is refused, not converted."""
    try:
        if type(value) is int or isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"min_rep must be an integer or a fraction string, not {value!r}")


def _json_list(value, what: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, not {value!r}")
    return value


def scenario_from_json(doc: dict) -> Scenario:
    if type(doc) is not dict:
        raise ValueError(f"a scenario must be a JSON object, not {doc!r}")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    kwargs = {}
    if "name" in doc:
        if not isinstance(doc["name"], str):
            raise ValueError(f"name must be a string, not {doc['name']!r}")
        kwargs["name"] = doc["name"]
    for f in _INT_FIELDS:
        if f in doc:
            kwargs[f] = at.json_int(doc[f], f)
    if "policy" in doc:
        kwargs["policy"] = at.policy_from_json(doc["policy"])
    if "min_rep" in doc:
        kwargs["min_rep"] = _json_fraction(doc["min_rep"])
    if "bandwidth" in doc:
        bw = doc["bandwidth"]
        if isinstance(bw, bool) or not isinstance(bw, (int, float)):
            raise ValueError(f"bandwidth must be a number, not {bw!r}")
        kwargs["bandwidth"] = float(bw)
    if "tracker_down" in doc:
        kwargs["tracker_down"] = tuple(
            tuple(at.json_int(t, "tracker_down") for t in _json_list(iv, "an outage"))
            for iv in _json_list(doc["tracker_down"], "tracker_down"))
    if "migrate_on_recovery" in doc:
        mig = doc["migrate_on_recovery"]
        if type(mig) is not bool:
            raise ValueError(f"migrate_on_recovery must be a bool, not {mig!r}")
        kwargs["migrate_on_recovery"] = mig
    if "adversaries" in doc:
        kwargs["adversaries"] = tuple(_json_list(doc["adversaries"], "adversaries"))
    return Scenario(**kwargs)


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return scenario_from_json(json.load(fh))


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")
