import itertools

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


@pytest.mark.parametrize(
    "gens",
    [[(1, 2, 3, 0)], [(1, 0, 2, 3), (0, 1, 3, 2)]],
    ids=["Z4", "Klein"],
)
def test_cayley_edge_check_matches_all_pairs(gens):
    # Every assignment of a permutation of 3 points to each group element.
    g = FinGroup.generated(gens)
    perms = list(itertools.permutations(range(3)))
    verdicts = set()
    for act in itertools.product(perms, repeat=g.order):
        try:
            GroupAction(g, 3, act)
            ok = True
        except GroupError:
            ok = False
        assert ok == _all_pairs_action_ok(g, act), act
        verdicts.add(ok)
    assert verdicts == {True, False}


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
