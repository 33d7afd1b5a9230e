import random
from fractions import Fraction as F

import pytest

from cberlab.intervals import (
    IntervalError,
    IntervalMap,
    IntervalSet,
    partial_bijection_between,
)


def test_normalization_merges_adjacent():
    s = IntervalSet([(F(1, 2), 1), (0, F(1, 2))])
    assert s.intervals == ((F(0), F(1)),)
    assert s.measure == 1


def test_overlap_rejected():
    with pytest.raises(IntervalError):
        IntervalSet([(0, F(1, 2)), (F(1, 4), 1)])


def test_set_algebra():
    a = IntervalSet([(0, F(1, 2))])
    b = IntervalSet([(F(1, 4), F(3, 4))])
    assert a.intersect(b).measure == F(1, 4)
    assert a.union(b).measure == F(3, 4)
    assert a.union(b).intervals == ((F(0), F(3, 4)),)
    assert IntervalSet([(0, 1)]).intersect(a) == a


def test_partial_bijection_examples():
    m = partial_bijection_between(IntervalSet([(0, F(1, 2))]), IntervalSet([(F(1, 2), 1)]))
    assert m.pieces == ((F(0), F(1, 2), F(1, 2)),)
    m2 = partial_bijection_between(
        IntervalSet([(0, F(1, 4)), (F(3, 4), 1)]),
        IntervalSet([(F(1, 4), F(3, 4))]),
    )
    assert m2.pieces == ((F(0), F(1, 4), F(1, 4)), (F(3, 4), F(1), F(-1, 4)))
    assert m2.apply_set(m2.domain()) == IntervalSet([(F(1, 4), F(3, 4))])
    assert partial_bijection_between(
        IntervalSet([(0, F(1, 3))]), IntervalSet([(0, F(1, 2))])
    ) is None


def test_map_compose_inverse_agreement():
    a, b = IntervalSet([(0, F(1, 2))]), IntervalSet([(F(1, 2), 1)])
    m, inverse = partial_bijection_between(a, b), partial_bijection_between(b, a)
    identity_b = partial_bijection_between(b, b)
    assert m.compose(inverse).agreement_with(identity_b).measure == F(1, 2)
    assert inverse.apply_set(IntervalSet([(F(1, 2), F(3, 4))])) == IntervalSet([(0, F(1, 4))])


def test_map_rejects_overlapping_targets():
    with pytest.raises(IntervalError):
        IntervalMap([(0, F(1, 4), F(1, 4)), (F(1, 4), F(1, 2), 0)])


def test_measure_preservation_automatic():
    m = IntervalMap([(0, F(1, 8), F(1, 2)), (F(1, 4), F(3, 8), F(1, 2))])
    assert m.domain().measure == m.apply_set(m.domain()).measure == F(1, 4)
    s = IntervalSet([(0, F(1, 16))])
    assert m.apply_set(s).measure == s.measure


def test_map_check_and_domain_run_no_gc_pass(gc_passes):
    """Checking 10^5 pieces of a slot permutation, as the tower's maps are,
    and merging their sources into the domain build no pair per piece: a
    few containers in all, so no collection runs (with a pair per piece
    it runs about 400)."""
    n = 10**5
    perm = list(range(n))
    random.Random(0).shuffle(perm)
    raw = [(p, p + 1, perm[p] - p) for p in range(n)]
    out = []
    assert gc_passes(lambda: out.append(IntervalMap._from_ints(n, raw).domain())) == 0
    assert out[0] == IntervalSet([(0, 1)])
