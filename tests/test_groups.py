import itertools
import random

import pytest

from cberlab.eqrel import build_partition, delta
from cberlab.instances import all_partitions
from cberlab.groups import (
    FinGroup,
    GroupAction,
    GroupError,
    compose,
    extend_by_group,
    identity_perm,
    invert,
    is_automorphism,
    orbit_eqrel,
    perm_of,
)


def test_perm_basics():
    p = (1, 2, 0, 3)  # the 3-cycle (0 1 2)
    assert compose(p, p) == (2, 0, 1, 3)
    assert compose(p, invert(p)) == identity_perm(4)


@pytest.mark.parametrize("seq", [[1.0, 0.0], [True, 0], [1, 0.0], [False, 1, 2]],
                         ids=["floats", "bools", "mixed", "false"])
def test_perm_of_rejects_non_int_entries(seq):
    """Floats and bools pass the sorted-range test (1.0 == 1, True == 1),
    so perm_of checks the entry types themselves."""
    with pytest.raises(GroupError, match="entries must be ints"):
        perm_of(seq)
    with pytest.raises(GroupError, match="entries must be ints"):
        perm_of(seq, len(seq))


def test_shortlex_closure_s3():
    gens = [(1, 0, 2), (1, 2, 0)]
    elems = FinGroup.generated(gens).elems
    assert len(elems) == 6
    assert elems[0] == identity_perm(3)


def test_fingroup_generated_and_action_axioms():
    g = FinGroup.generated([(1, 2, 3, 0)])
    assert g.order == 4
    act = GroupAction(g, 4, g.elems)
    assert act.act[g.op(1, 1)][0] == act.act[1][act.act[1][0]]


def test_bad_action_rejected():
    g = FinGroup.generated([(1, 0)])
    with pytest.raises(GroupError):
        GroupAction(g, 2, ((1, 0), (0, 1)))  # identity element acts nontrivially


def _all_pairs_action_ok(g: FinGroup, act) -> bool:
    return act[g.identity] == identity_perm(len(act[0])) and all(
        compose(act[a], act[b]) == act[g.op(a, b)]
        for a in range(g.order)
        for b in range(g.order)
    )


def _per_element_rule(g: FinGroup, n: int, act) -> str | None:
    """The reference rule: `perm_of` on every element, then the identity,
    then every Cayley edge by `compose`.  Returns the first error text, or
    None if the action is accepted."""
    try:
        for p in act:
            perm_of(p, n)
    except GroupError as exc:
        return str(exc)
    if act[g.identity] != identity_perm(n):
        return "identity must act trivially"
    for w, p in enumerate(act):
        for s, col in zip(g.gens, g.right):
            if compose(p, act[s]) != act[col[w]]:
                return f"action axiom fails at ({w},{s})"
    return None


def _verdict(g: FinGroup, n: int, act) -> str | None:
    try:
        GroupAction(g, n, tuple(act))
    except GroupError as exc:  # anything else fails the test
        return str(exc)
    return None


def _malformed(p, kind):
    """p spoiled one way: the first two kinds are == p, so only the
    exact-int pass can catch them."""
    return {"bool": tuple(True if x == 1 else False if x == 0 else x for x in p),
            "float": tuple(map(float, p)),
            "short": tuple(p[:-1]),
            "not-a-perm": (0, 0, *range(1, len(p) - 1)),
            "out-of-range": tuple(len(p) if x == len(p) - 1 else x for x in p)}[kind]


KINDS = ["bool", "float", "short", "not-a-perm", "out-of-range"]
TYPE_KINDS = {"bool", "float", "short"}  # caught by the pass before the edges


@pytest.mark.parametrize(
    "gens",
    [[(1, 2, 3, 0)], [(1, 0, 2, 3), (0, 1, 3, 2)]],
    ids=["Z4", "Klein"],
)
def test_cayley_edge_check_matches_all_pairs(gens):
    """Every assignment of a permutation of 3 points to each element gets
    the verdict of the all-pairs axiom and of the per-element rule.  Each
    accepted one, spoiled at one element, is rejected with a GroupError;
    where the per-element rule rejects it in `perm_of`, with the same text.
    GroupAction runs `perm_of` on the identity and the generators only, so
    a spoiled other element must fail the exact-int pass or an edge."""
    g = FinGroup.generated(gens)
    assert set(range(g.order)) - {g.identity, *g.gens}
    perms = list(itertools.permutations(range(3)))
    verdicts, accepted = set(), []
    for act in itertools.product(perms, repeat=g.order):
        ok = _verdict(g, 3, act) is None
        assert ok == _all_pairs_action_ok(g, act) == (_per_element_rule(g, 3, act) is None), act
        verdicts.add(ok)
        if ok:
            accepted.append(act)
    assert verdicts == {True, False}
    for act in accepted:
        for i in range(g.order):
            for kind in KINDS:
                bad = list(act)
                bad[i] = _malformed(act[i], kind)
                verdict = _verdict(g, 3, bad)
                assert verdict is not None, (bad, kind)
                if kind in TYPE_KINDS:
                    assert verdict == _per_element_rule(g, 3, bad), (bad, kind)


def test_drawn_malformed_actions_raise_group_error():
    """The regular action of S4 on its 24 elements, spoiled at drawn
    elements outside the identity and the generators."""
    s4 = FinGroup.generated([(1, 0, 2, 3), (1, 2, 3, 0)])
    regular = FinGroup.generated([tuple(s4.index[compose(a, s4.elems[s])] for a in s4.elems)
                                  for s in s4.gens])
    act = regular.elems
    assert GroupAction(regular, 24, act).act == act
    inner = [i for i in range(regular.order) if i != regular.identity and i not in regular.gens]
    rng = random.Random(46)
    for _ in range(200):
        i, kind = rng.choice(inner), rng.choice(KINDS)
        bad = list(act)
        bad[i] = _malformed(act[i], kind)
        verdict = _verdict(regular, 24, bad)
        assert verdict is not None
        if kind in TYPE_KINDS:
            assert verdict == _per_element_rule(regular, 24, bad)


def test_orbit_eqrel():
    g = FinGroup.generated([(1, 0, 3, 2)])
    act = GroupAction(g, 4, g.elems)
    assert orbit_eqrel(act).classes == ((0, 1), (2, 3))


def test_is_automorphism_matches_pairwise_definition():
    # Every partition and every map of the points for n <= 5, not only
    # permutations: x E y iff t(x) E t(y).
    for n in range(1, 6):
        for part in all_partitions(list(range(n))):
            e = build_partition(n, part)
            for t in itertools.product(range(n), repeat=n):
                pairwise = all(
                    e.related(t[x], t[y]) == e.related(x, y)
                    for x, y in itertools.combinations(range(n), 2)
                )
                assert is_automorphism(e, t) == pairwise, (part, t)


def test_extend_by_group():
    e = delta(4)
    f, witnessed = extend_by_group(e, [(1, 0, 3, 2)])
    assert f.classes == ((0, 1), (2, 3)) and witnessed
    e2 = build_partition(4, [[0, 1], [2, 3]])
    _, witnessed2 = extend_by_group(e2, [(0, 2, 1, 3)])
    assert not witnessed2  # not an automorphism, so normality not witnessed
