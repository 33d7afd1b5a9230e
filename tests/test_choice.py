import random

import pytest

from cberlab.eqrel import CheckFailed, EqrelError, build_partition, delta, full
from cberlab.choice import (
    WindowedLink,
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


@pytest.mark.parametrize("forge", ["class twice", "shared point"])
def test_verifier_rejects_overlapping_classes(forge):
    e = build_partition(4, [[0, 1], [2, 3]])
    wl = choice_sequence_link(e, full(4), 40)
    assert verify_windowed_link(wl).all_ones
    c0, c1, *rest = wl.classes
    if forge == "class twice":
        classes = [c0, c1, *rest, c0]
    else:  # c1 keeps one point per E-class but takes c0's point in E-class 0
        shared = next(p for p in c0 if e.class_index(p[0]) == 0)
        other = next(p for p in c1 if e.class_index(p[0]) == 1)
        classes = [c0, tuple(sorted((shared, other))), *rest]
    rep = verify_windowed_link(WindowedLink(e, wl.f, wl.depth, classes))
    assert not rep.all_ones and rep.verdict() == "incidence violated"


def _reference_link(e, f, depth):
    """Test oracle: the construction from the definition, with the window
    listed point by point and each φ_i a dict keyed by (x, m)."""
    cs = choice_sequence(e, f)
    n = cs.index
    if depth < n:
        raise EqrelError(f"window depth {depth} below index {n}")
    depth_q = depth // n
    bound = max(
        cantor_pair(depth_q // n + 1, max(max(r) for r in cs.exps) + 1) * n, depth_q
    )
    windows = [[(x, m) for m in range(depth_q) for x in c] for c in e.classes]

    phi = []
    for i in range(n):
        by_class = [[] for _ in e.classes]
        for x in range(e.n):
            for k in range(n):
                j = (i + k) % n
                y, t = cs.images[j][x], cs.exps[j][x]
                group = by_class[e.class_index(y)]
                m2 = 0
                while (copy := cantor_pair(m2, t) * n + k) < bound:
                    group.append((copy, y, x, m2 * n + k))
                    m2 += 1
        table = {}
        for group, win in zip(by_class, windows):
            group.sort()
            for (_, _, x, m), q in zip(group, win):
                table[x, m] = q
        phi.append(table)

    classes = []
    for x in range(e.n):
        for m in range(depth_q):
            qs = [table.get((x, m)) for table in phi]
            if None not in qs:
                members = ((y, mq * n + i) for i, (y, mq) in enumerate(qs))
                classes.append(tuple(sorted(members)))

    seen = set()
    for c in classes:
        for p in c:
            if p in seen:
                raise CheckFailed(f"emitted classes collide at {p}")
            seen.add(p)

    blocks = [sorted({e.class_index(y) for y in c}) for c in f.classes]
    flags = {
        "maps_injective": len(seen) == sum(map(len, classes)),
        "complete_section": all(
            set(blocks[f.class_index(c[0][0])]) <= {e.class_index(p[0]) for p in c}
            for c in classes
        ),
    }
    return classes, flags


def _random_constant_index_pair(rng):
    """1-3 F-classes, each of `index` E-classes of 1-3 points, labels shuffled."""
    index = rng.randint(1, 6)
    f_blocks = [[rng.randint(1, 3) for _ in range(index)] for _ in range(rng.randint(1, 3))]
    labels = list(range(sum(map(sum, f_blocks))))
    rng.shuffle(labels)
    e_classes, f_classes = [], []
    for sizes in f_blocks:
        block = []
        for m in sizes:
            e_classes.append(labels[:m])
            block += labels[:m]
            del labels[:m]
        f_classes.append(block)
    n = sum(map(len, e_classes))
    return build_partition(n, e_classes), build_partition(n, f_classes), index


def test_link_matches_the_reference_construction():
    rng = random.Random(20)
    off_multiple = 0
    for j in range(300):
        e, f, index = _random_constant_index_pair(rng)
        if j % 3 == 0:  # below 2N
            depth = rng.randint(index, 2 * index - 1)
        elif j % 3 == 1:  # a multiple of N
            depth = index * rng.randint(1, 300 // index)
        else:
            depth = rng.randint(index, 300)
        off_multiple += depth % index != 0
        classes, flags = _reference_link(e, f, depth)
        wl = choice_sequence_link(e, f, depth)
        assert (wl.classes, wl.flags) == (classes, flags), (e.classes, f.classes, depth)
    assert off_multiple >= 100
