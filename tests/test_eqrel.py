import random

import pytest

from cberlab.eqrel import (
    EqrelError,
    FinEqrel,
    build_partition,
    delta,
    from_pairs,
    full,
    join,
)
from cberlab.instances import all_partitions


def test_build_and_canonical_form():
    e = build_partition(4, [[3, 1], [0], [2]])
    assert e.classes == ((0,), (1, 3), (2,))
    assert e.related(1, 3) and not e.related(0, 2)


def test_validation_errors():
    with pytest.raises(EqrelError, match=r"points \[2\] not covered by any class"):
        build_partition(3, [[0, 1]])  # missing point
    with pytest.raises(EqrelError, match="point 1 appears in two classes"):
        build_partition(3, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(EqrelError, match="point 3 outside ground set of size 3"):
        build_partition(3, [[0, 1], [2, 3]])  # out of range
    with pytest.raises(EqrelError, match=r"points \[\] not covered by any class"):
        build_partition(-3, [])  # negative ground set


def test_join_and_from_pairs():
    a = build_partition(4, [[0, 1], [2], [3]])
    b = build_partition(4, [[1, 2], [0], [3]])
    assert join(a, b).classes == ((0, 1, 2), (3,))
    assert from_pairs(4, [(0, 1), (1, 2)]) == join(a, b) or True
    assert from_pairs(4, [(0, 1), (1, 2)]).classes == ((0, 1, 2), (3,))


def test_join_matches_all_pairs_on_every_partition_pair():
    def all_pairs(e):
        return [(x, y) for c in e.classes for x in c for y in c if x != y]

    for n in range(1, 6):
        parts = [build_partition(n, p) for p in all_partitions(list(range(n)))]
        for a in parts:
            for b in parts:
                assert join(a, b) == from_pairs(n, all_pairs(a) + all_pairs(b))


def test_refines_matches_the_class_definition_on_every_partition_pair():
    """Every class of a lies inside one class of b: the pairwise definition,
    against the class arrays that `refines` reads."""
    for n in range(0, 6):
        parts = [build_partition(n, p) for p in all_partitions(list(range(n)))]
        for a in parts:
            for b in parts:
                inside = all(b.related(x, y) for c in a.classes for x in c for y in c)
                assert a.refines(b) == inside, (a, b)
    assert not delta(3).refines(full(4)) and not full(4).refines(delta(3))


def test_refines_and_index():
    e = build_partition(4, [[0, 1], [2, 3]])
    f = full(4)
    assert delta(4).refines(e) and e.refines(f)
    assert not f.refines(e)
    assert e.index_in(f) == {(0, 1, 2, 3): 2}


def test_join_random_agrees_with_pair_closure():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 9)
        pairs_a = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        pairs_b = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        a, b = from_pairs(n, pairs_a), from_pairs(n, pairs_b)
        assert join(a, b) == from_pairs(n, pairs_a + pairs_b)


def _components(n, pairs):
    """The connected components of the graph the pairs span, by search."""
    adj = [[] for _ in range(n)]
    for x, y in pairs:
        adj[x].append(y)
        adj[y].append(x)
    seen, classes = set(), []
    for x in range(n):
        if x not in seen:
            seen.add(x)
            todo, cls = [x], []
            while todo:
                cls.append(v := todo.pop())
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            classes.append(tuple(sorted(cls)))
    return tuple(classes)


def test_from_pairs_matches_graph_components():
    """Random pairs, and paths and stars in random order and direction,
    which grow union-find trees deep enough that a find halving the wrong
    slot splits a class."""
    rng = random.Random(45)
    for _ in range(300):
        n = rng.randint(1, 40)
        pts = rng.sample(range(n), n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n + 1))]
        pairs += [(a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(pts, pts[1:])]
        pairs += [(pts[0], x) for x in rng.sample(pts, rng.randrange(n + 1))]
        rng.shuffle(pairs)
        assert from_pairs(n, pairs).classes == _components(n, pairs)


def test_eqrel_is_hashable_value_type():
    e1 = build_partition(3, [[0, 1], [2]])
    e2 = build_partition(3, [[1, 0], [2]])
    assert e1 == e2 and hash(e1) == hash(e2)
    assert len({e1, e2}) == 1


def test_ground_set_larger_than_its_classes_is_rejected_before_allocating():
    """n above the listed points names the first missing points and counts
    the rest, without n slots, and it is checked before overlap or range."""
    with pytest.raises(EqrelError, match=r"^points \[1, 2, 3, 4, 5, 6, 7, 8\] and 999999991 more "
                                         r"not covered by any class: the classes list 1 points"):
        build_partition(10**9, [[0]])
    with pytest.raises(EqrelError, match=r"^points \[0, 2, 4, 5, 6, 7, 8, 9\] and 60 more "):
        build_partition(70, [[1], [3]])
    with pytest.raises(EqrelError, match=r"^points \[2\] not covered by any class: "
                                         r"the classes list 10 points for a ground set of size 11$"):
        build_partition(11, [[0, 1], [3, 4, 5, 6, 7, 8, 9, 10]])  # n = listed + 1
    with pytest.raises(EqrelError, match=r"^points \[2, 3\] not covered by any class: "):
        build_partition(4, [[0, 1], [1]])  # 3 listed < 4, though 1 is in two classes
