import pytest

from cberlab.eqrel import EqrelError, build_partition, delta, full
from cberlab.choice import (
    cantor_pair,
    choice_sequence,
    choice_sequence_link,
    verify_windowed_link,
)


def test_cantor_pair_injective_prefix():
    seen = {cantor_pair(m, t) for m in range(30) for t in range(30)}
    assert len(seen) == 900


def test_choice_sequence_stage1():
    e = build_partition(4, [[0, 1], [2, 3]])
    cs = choice_sequence(e, full(4))
    assert cs.index == 2
    # f_0 is the identity, f_1 lands in the other class.
    for x in range(4):
        assert cs.images[0][x] == x
        assert not e.related(cs.images[1][x], x)


def _walk_reference(e, f, i, x):
    """(t, σ^t(x)) for the first step t at which the walk of the per-F-class
    rotation σ from x enters its i-th new E-class."""
    c = f.class_of(x)
    sigma = {a: b for a, b in zip(c, c[1:] + c[:1])}
    seen, y, t = [], x, 0
    while True:
        if e.class_index(y) not in seen:
            if len(seen) == i:
                return t, y
            seen.append(e.class_index(y))
        y, t = sigma[y], t + 1


def test_choice_sequence_matches_rotation_walk():
    e = build_partition(9, [[0, 5], [1, 7], [2, 4], [3], [6], [8]])
    f = build_partition(9, [[0, 1, 2, 4, 5, 7], [3, 6, 8]])
    cs = choice_sequence(e, f)
    assert cs.index == 3
    for i in range(cs.index):
        for x in range(e.n):
            assert (cs.exps[i][x], cs.images[i][x]) == _walk_reference(e, f, i, x)


def test_choice_sequence_needs_constant_index():
    e = build_partition(5, [[0, 1], [2, 3], [4]])
    f = build_partition(5, [[0, 1, 2, 3], [4]])
    with pytest.raises(EqrelError):
        choice_sequence(e, f)


def test_identity_pair_gives_diagonal_link():
    e = build_partition(4, [[0, 1], [2, 3]])
    wl = choice_sequence_link(e, e, 50)
    assert all(len(c) == 1 for c in wl.classes)
    rep = verify_windowed_link(wl)
    assert rep.all_ones and rep.verdict() == "verified exactly"


def test_index_two_window():
    e = build_partition(4, [[0, 1], [2, 3]])
    wl = choice_sequence_link(e, full(4), 400)
    rep = verify_windowed_link(wl)
    assert rep.all_ones
    assert rep.verified_classes > 700
    # every emitted class picks one point in each E-class of its F-class
    for c in wl.classes:
        assert sorted(e.class_index(p[0]) for p in c) == [0, 1]


def test_emitted_classes_disjoint():
    wl = choice_sequence_link(delta(6), full(6), 600)
    support = [p for c in wl.classes for p in c]
    assert support and len(support) == len(set(support))


def test_three_class_instance():
    e = build_partition(6, [[0, 1], [2, 3], [4, 5]])
    wl = choice_sequence_link(e, full(6), 300)
    rep = verify_windowed_link(wl)
    assert rep.all_ones
    for c in wl.classes:
        assert sorted(e.class_index(p[0]) for p in c) == [0, 1, 2]
