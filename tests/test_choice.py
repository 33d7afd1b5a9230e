import random

import pytest
from choice_oracle import cantor_pair, reference_link
from hypothesis import given, settings, strategies as st

from cberlab import choice
from cberlab.eqrel import EqrelError, build_partition, delta, full
from cberlab.choice import (
    WindowedLink,
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


FORGES = {  # forge -> the flag of the property it breaks
    "class twice": "maps_injective",
    "shared point": "maps_injective",
    "copy outside the window": "complete_section",
    "class missing an E-class": "complete_section",
}


@pytest.mark.parametrize("forge", FORGES)
def test_verifier_rejects_forged_classes(forge):
    e = build_partition(4, [[0, 1], [2, 3]])
    wl = choice_sequence_link(e, full(4), 40)
    assert verify_windowed_link(wl).all_ones
    c0, c1, *rest = wl.classes
    if forge == "class twice":
        classes = [c0, c1, *rest, c0]
    elif forge == "shared point":  # c1 keeps one point per E-class but takes c0's point in E-class 0
        shared = next(p for p in c0 if e.class_index(p[0]) == 0)
        other = next(p for p in c1 if e.class_index(p[0]) == 1)
        classes = [c0, tuple(sorted((shared, other))), *rest]
    elif forge == "copy outside the window":  # c0's last point moves to copy m = depth
        *keep, (y, _) = c0
        classes = [(*keep, (y, wl.depth)), c1, *rest]
    else:  # c0 loses its point in E-class 1
        classes = [tuple(p for p in c0 if e.class_index(p[0]) != 1), c1, *rest]
    forged = WindowedLink(e, wl.f, wl.depth, classes)
    rep = verify_windowed_link(forged)
    assert not rep.all_ones and rep.verdict() == "incidence violated"
    assert forged.flags == {flag: flag != FORGES[forge] for flag in set(FORGES.values())}


def test_flags_read_one_verifier_pass(monkeypatch):
    """`flags` is memoized: four reads, as a benchmark item makes, run the
    verifier once; after an explicit verification, as in perfbench's
    `_run_choice`, the four reads run none."""
    calls = []
    verify = choice.verify_windowed_link
    monkeypatch.setattr(choice, "verify_windowed_link", lambda wl: calls.append(wl) or verify(wl))
    e = build_partition(4, [[0, 1], [2, 3]])

    def four_reads(wl):
        return [wl.flags["maps_injective"], wl.flags["maps_injective"],
                wl.flags["complete_section"], wl.flags["complete_section"]]

    wl = choice_sequence_link(e, full(4), 40)
    assert four_reads(wl) == [True] * 4
    assert calls == [wl]
    calls.clear()
    wl = choice_sequence_link(e, full(4), 40)
    assert choice.verify_windowed_link(wl).all_ones
    assert four_reads(wl) == [True] * 4
    assert calls == [wl]


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
        classes, flags = reference_link(e, f, depth)
        wl = choice_sequence_link(e, f, depth)
        assert (wl.classes, wl.flags) == (classes, flags), (e.classes, f.classes, depth)
    assert off_multiple >= 100


@st.composite
def _constant_index_pairs(draw):
    """(E, F, N): 1-3 F-classes, each of N E-classes of 1-3 points, N = 1..6,
    with the labels permuted."""
    index = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.lists(st.integers(1, 3), min_size=index, max_size=index),
                          min_size=1, max_size=3))
    n = sum(map(sum, sizes))
    labels = draw(st.permutations(range(n)))
    e_classes, f_classes, at = [], [], 0
    for block in sizes:
        f_classes.append(labels[at : at + sum(block)])
        for m in block:
            e_classes.append(labels[at : at + m])
            at += m
    return build_partition(n, e_classes), build_partition(n, f_classes), index


@settings(max_examples=200, deadline=None)
@given(pair=_constant_index_pairs(), data=st.data())
def test_link_matches_the_reference_on_drawn_pairs(pair, data):
    """Depths below 2N, multiples of N and any depth up to 300 give the
    reference's classes and flags; a depth below N raises EqrelError."""
    e, f, index = pair
    depth = data.draw(st.one_of(
        st.integers(index, 2 * index - 1),
        st.integers(1, 300 // index).map(lambda q: q * index),
        st.integers(index, 300),
    ))
    wl = choice_sequence_link(e, f, depth)
    assert (wl.classes, wl.flags) == reference_link(e, f, depth)
    low = data.draw(st.integers(0, index - 1))
    with pytest.raises(EqrelError):
        choice_sequence_link(e, f, low)
    with pytest.raises(EqrelError):
        reference_link(e, f, low)
