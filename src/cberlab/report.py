"""Canonical JSON reports with exact rational payloads; `canonical_json`
is the one writer of the format, for reports and instances alike."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

_int_repr = int.__repr__  # what the json module writes for an int


def _write(x: Any, out: list[str], texts: dict[int, str]) -> None:
    """Append the canonical JSON text of x to out, in one pass: no spaces,
    Fractions as {"den", "num"}, tuples and lists as lists, sets and
    frozensets as sorted lists, dict keys as str() and sorted, strings
    escaped to ASCII by the json module's default escaper.  A dict is
    rekeyed once, into one dict of its str() keys, whose sorted keys are
    then read back one by one: no (key, value) tuple is built per entry,
    so a large dict allocates no container per entry for the cyclic
    garbage collector to count.  When two keys of a dict collide after
    str(), the later value wins.  The dispatch is on exact types, the most
    frequent first; any other type raises TypeError, a float (anywhere but
    in a dict key) with its own message.  A list, tuple or set writes its
    int and Fraction items itself, without a call, and so does each of its
    items that is a non-empty tuple (a T-set's pair, a map's piece): one
    call per leaf of any other type, none per such tuple.

    texts maps id(f) to the text of each Fraction f written so far, so a
    Fraction object that occurs many times (a tower stage's endpoints are
    shared by its T-sets and maps) is formatted once.  The ids are safe keys
    because `canonical_json` holds its whole payload, and so every Fraction
    in it, until the text is done: no id can be reused within one call."""
    t = type(x)
    if t is int:
        out.append(_int_repr(x))
    elif t is Fraction:
        out.append(texts.get(id(x)) or _fraction_text(x, texts))
    elif t is str:
        out.append(encode_basestring_ascii(x))
    elif t is list or t is tuple or t is set or t is frozenset:
        out.append("[")
        for v in sorted(x) if t is set or t is frozenset else x:
            tv = type(v)
            if tv is int:
                out.append(_int_repr(v))
            elif tv is Fraction:
                out.append(texts.get(id(v)) or _fraction_text(v, texts))
            elif tv is tuple and v:
                out.append("[")
                for w in v:
                    tw = type(w)
                    if tw is int:
                        out.append(_int_repr(w))
                    elif tw is Fraction:
                        out.append(texts.get(id(w)) or _fraction_text(w, texts))
                    else:
                        _write(w, out, texts)
                    out.append(",")
                out[-1] = "]"
            else:
                _write(v, out, texts)
            out.append(",")
        out[-1] = "]" if x else "[]"  # over the last comma, or the "[" of []
    elif t is dict:
        out.append("{")
        byname = dict(zip(map(str, x), x.values()))
        for k in sorted(byname):
            out.append(encode_basestring_ascii(k))
            out.append(":")
            _write(byname[k], out, texts)
            out.append(",")
        out[-1] = "}" if x else "{}"
    elif t is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    else:
        raise TypeError("no floats cross the interface; use Fraction" if t is float
                        else f"cannot encode {t.__name__} in a report")


def _fraction_text(f: Fraction, texts: dict[int, str]) -> str:
    """The text of f, formatted and recorded under id(f) (see `_write`)."""
    text = texts[id(f)] = f'{{"den":{f.denominator!r},"num":{f.numerator!r}}}'
    return text


def canonical_json(x: Any) -> str:
    """x as canonical JSON text (see `_write`)."""
    out: list[str] = []
    _write(x, out, {})
    return "".join(out)


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
        return canonical_json({
            "scenario": self.scenario,
            "outcome": self.outcome,
            "metrics": self.metrics,
            "ledger": [
                {"key": k, "lhs": l, "rhs": r, "verdict": v} for k, l, r, v in self.ledger
            ],
            "seed": self.seed,
        })
