"""Canonical JSON reports with exact rational payloads."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

# Exact leaf types, returned as they are.  bool is listed for itself: `type`
# does not see it as int.
_LEAVES = frozenset({int, str, bool, type(None)})


def _encode(x: Any) -> Any:
    """x as a fresh JSON tree: Fractions as {"num", "den"}, tuples and lists
    as lists, sets and frozensets as sorted lists, dict keys as str.  The
    dispatch is on exact types; any other type raises TypeError, a float
    (anywhere but in a dict key) with its own message."""
    t = type(x)
    if t in _LEAVES:
        return x
    if t is Fraction:
        return {"num": x.numerator, "den": x.denominator}
    # Lists inline their Fractions and dicts their exact leaves: one call fewer
    # for each of the ~10^5 slot endpoints of a tower report.
    if t is tuple or t is list:
        return [
            {"num": v.numerator, "den": v.denominator} if type(v) is Fraction else _encode(v)
            for v in x
        ]
    if t is dict:
        return {
            k if type(k) is str else str(k): v if type(v) in _LEAVES else _encode(v)
            for k, v in x.items()
        }
    if t is set or t is frozenset:
        return [_encode(v) for v in sorted(x)]
    if t is float:
        raise TypeError("no floats cross the interface; use Fraction")
    raise TypeError(f"cannot encode {t.__name__} in a report")


@dataclass
class Report:
    scenario: dict
    outcome: str = "pass"  # "pass" | "fail" | "error"
    metrics: dict = field(default_factory=dict)
    ledger: list = field(default_factory=list)  # (key, lhs, rhs, verdict)
    seed: int | None = None

    def add_constraint(self, key: str, lhs, rhs, verdict: bool) -> None:
        self.ledger.append((key, lhs, rhs, verdict))

    @property
    def all_pass(self) -> bool:
        return all(v for *_, v in self.ledger) and self.outcome == "pass"

    def to_json(self) -> str:
        payload = {
            "scenario": _encode(self.scenario),
            "outcome": self.outcome,
            "metrics": _encode(self.metrics),
            "ledger": [
                {"key": k, "lhs": _encode(l), "rhs": _encode(r), "verdict": v}
                for k, l, r, v in self.ledger
            ],
            "seed": self.seed,
        }
        # _encode builds a fresh tree with no cycles, so the check is moot
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), check_circular=False
        )
