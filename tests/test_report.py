import json
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cberlab.report import Report, canonical_json


def oracle_encode(x):
    """A generic tree encoder, dumped below by json.dumps: the reference
    that the one-pass writer `report._write` must match byte for byte."""
    t = type(x)
    if t is Fraction:
        return {"num": x.numerator, "den": x.denominator}
    if t is tuple or t is list:
        return [oracle_encode(v) for v in x]
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, bool) or isinstance(x, (int, str)) or x is None:
        return x
    if isinstance(x, float):
        raise TypeError("no floats cross the interface; use Fraction")
    if isinstance(x, dict):
        return {str(k): oracle_encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = sorted(x) if isinstance(x, (set, frozenset)) else x
        return [oracle_encode(v) for v in items]
    return str(x)


def oracle_to_json(r: Report) -> str:
    payload = {
        "scenario": oracle_encode(r.scenario),
        "outcome": r.outcome,
        "metrics": oracle_encode(r.metrics),
        "ledger": [
            {"key": k, "lhs": oracle_encode(l), "rhs": oracle_encode(v), "verdict": ok}
            for k, l, v, ok in r.ledger
        ],
        "seed": r.seed,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
scalars = st.one_of(fractions, st.integers(-10**6, 10**6), st.booleans(), st.none(),
                    st.text(max_size=4))
sortable = st.one_of(st.integers(-20, 20), fractions)  # a set must sort
dict_keys = st.one_of(st.text(max_size=3), st.integers(-5, 5),
                      st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(sortable, max_size=4),
        st.frozensets(sortable, max_size=4),
        st.dictionaries(dict_keys, inner, max_size=4),
    ),
    max_leaves=30,
)


# A few Fraction objects that a payload repeats, as a tower's T-sets and maps
# repeat their stage's endpoints, beside equal but distinct objects: the
# writer formats one text per object and must print the same text for each.
SHARED = [Fraction(1, 2), Fraction(1, 3), Fraction(-3, 2), Fraction(5), Fraction(0), Fraction(7, 12)]
TWINS = [Fraction(f.numerator, f.denominator) for f in SHARED]
shared_fractions = st.sampled_from(SHARED + TWINS)
shared_leaves = st.one_of(shared_fractions, st.integers(-3, 3), st.booleans(), st.none())
shared_sortable = st.one_of(shared_fractions, st.integers(-3, 3))
shared_payloads = st.recursive(
    shared_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.tuples(st.tuples(inner, inner), inner),
        st.sets(shared_sortable, max_size=4),
        st.frozensets(shared_sortable, max_size=4),
        st.dictionaries(st.text(max_size=2), inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(shared_payloads, shared_payloads, shared_payloads)
def test_shared_fractions_match_the_generic_encoder(scenario, metric, lhs):
    assert all(f == t and f is not t for f, t in zip(SHARED, TWINS))
    r = Report({"s": scenario, "again": scenario}, "pass", metrics={"m": metric, "m2": (metric, lhs)})
    r.add_constraint("c", lhs, SHARED[0], True)
    assert r.to_json() == oracle_to_json(r)


# Items of a list or tuple that are tuples, whose own items are every other
# kind of leaf or container: the writer writes such a tuple's int and
# Fraction items inline, and hands every other item to its general branch.
TUPLE_ITEMS = [
    (True, 1), (1, False), (None, Fraction(1, 2)), ("a\u00e9", 2), ({"k": (1, 2)}, 3),
    ({2, 1}, frozenset({Fraction(1, 3)})), ((), 4), ([1, (2, Fraction(1, 2))], 5),
    ((SHARED[0], TWINS[0]), SHARED[0]), (Fraction(-3, 2),), (),
]


def test_leaves_written_inline_keep_their_exact_type():
    """A list writes its int and Fraction items itself, and those of its
    tuple items: a bool, which is an int subclass, still prints as true."""
    r = Report({}, "pass", metrics={"x": [True, 1, Fraction(1, 2)]})
    assert canonical_json([True, 1, Fraction(1, 2)]) == '[true,1,{"den":2,"num":1}]'
    assert r.to_json() == oracle_to_json(r)
    assert canonical_json([(True, 1), (1, None)]) == "[[true,1],[1,null]]"
    for outer in (list, tuple):
        r = Report({"s": outer(TUPLE_ITEMS)}, "pass", metrics={"m": [outer(TUPLE_ITEMS)]})
        r.add_constraint("c", outer(TUPLE_ITEMS), TUPLE_ITEMS[0], True)
        assert r.to_json() == oracle_to_json(r)


def test_floats_rejected():
    r = Report(scenario={}, outcome="pass", metrics={"x": 0.5})
    with pytest.raises(TypeError):
        r.to_json()


@dataclass
class Holder:
    x: object


@pytest.mark.parametrize("value", [object(), Holder(0.5)], ids=["object", "dataclass-float"])
def test_unknown_types_rejected(value):
    """An object the encoder has no exact branch for raises, rather than
    reaching the report as its str(), which could print a float."""
    r = Report({}, "pass", metrics={"x": value})
    with pytest.raises(TypeError):
        r.to_json()


def test_canonical_json_and_ledger():
    r = Report(scenario={"kind": "demo"}, outcome="pass", seed=3)
    r.add_constraint("coverage", Fraction(7, 8), Fraction(3, 4), True)
    payload = json.loads(r.to_json())
    assert payload["ledger"][0]["lhs"] == {"num": 7, "den": 8}
    assert payload["seed"] == 3
    assert r.all_pass
    r.add_constraint("bad", 1, 2, False)
    assert not r.all_pass
    # byte-identical re-serialization
    assert r.to_json() == r.to_json()


@settings(max_examples=200, deadline=None)
@given(payloads, payloads, payloads)
def test_to_json_matches_the_generic_encoder(scenario, metric, lhs):
    r = Report({"s": scenario}, "pass", metrics={"m": metric, 3: [metric]}, seed=1)
    r.add_constraint("c", lhs, metric, True)
    assert r.to_json() == oracle_to_json(r)


@pytest.mark.parametrize("wrap", [
    lambda f: [1, f],
    lambda f: (Fraction(1, 2), f),
    lambda f: {"k": f},
    lambda f: {(1, 2): [{"k": (f,)}]},
    lambda f: {f},
    lambda f: frozenset({1.5, f}),
    lambda f: (SHARED[0], SHARED[0], TWINS[0], f),
    lambda f: [(1, f)],
    lambda f: ((SHARED[0], TWINS[0], f), (1, 2)),
    lambda f: [(1, 2), (Fraction(1, 2), [f])],
])
def test_floats_rejected_at_every_depth(wrap):
    for place in ("metrics", "scenario", "lhs"):
        r = Report({}, "pass")
        if place == "lhs":
            r.add_constraint("c", wrap(0.5), 1, True)
        else:
            setattr(r, place, {"x": wrap(0.5)})
        with pytest.raises(TypeError, match="^no floats cross the interface; use Fraction$"):
            r.to_json()


@pytest.mark.parametrize("value, text", [
    ({1: "a", "1": "b"}, '{"1":"b"}'),
    ({"1": "b", 1: "a"}, '{"1":"a"}'),
    ({(0, 1): 2, "(0, 1)": 3, 0: None}, '{"(0, 1)":3,"0":null}'),
])
def test_colliding_dict_keys_keep_the_last_value(value, text):
    """Keys are written as their str(), and of keys that collide there the
    last one in the dict's order wins, as a dict of str() keys keeps it."""
    assert canonical_json(value) == text


def test_large_dict_with_colliding_keys_matches_json_dumps():
    """The dict path at scale: int, str and tuple keys in a shuffled order,
    many colliding after str() (1 and "1", (0, 1) and "(0, 1)"), with the
    later value winning wherever a pair collides, as in the oracle's dict."""
    rng = random.Random(0)
    keys = (list(range(6000)) + [str(i) for i in range(0, 6000, 3)]
            + [(i, i + 1) for i in range(500)] + [str((i, i + 1)) for i in range(0, 500, 2)])
    rng.shuffle(keys)
    value = {k: [j, Fraction(j, 7)] if j % 2 else j for j, k in enumerate(keys)}
    assert len({str(k) for k in value}) < len(value)
    oracle = json.dumps(oracle_encode(value), sort_keys=True, separators=(",", ":"))
    assert canonical_json(value) == oracle


def test_a_large_dict_is_written_without_a_gc_pass(gc_passes):
    """The dict path builds no (key, value) tuple per entry, so writing
    10^5 entries allocates a few containers in all and runs no collection
    (with one tuple per entry it runs about 140)."""
    value = {i: [i, Fraction(i, 3)] for i in range(10**5)}
    assert gc_passes(lambda: canonical_json(value)) == 0
