import random

import pytest

from cberlab.eqrel import build_partition, delta, full
from cberlab.instances import enumerate_links, gen_chain, gen_instance
from cberlab.links import (
    Link,
    LinkError,
    OuterAction,
    amplify_relation,
    cancel_equidecomposition,
    equidecompose,
    extend_link,
    hf_link,
    lift_from_link,
    lift_through_finite_normal,
    link_finite_index,
    verify_link,
)


def test_verify_link_positive_and_negative():
    e = build_partition(4, [[0, 1], [2, 3]])
    f = full(4)
    ok, _ = verify_link(e, f, build_partition(4, [[0, 2], [1, 3]]))
    assert ok
    ok, bad = verify_link(e, f, build_partition(4, [[0, 1], [2, 3]]))
    assert not ok and bad is not None


def test_verify_link_containment_error():
    e = build_partition(4, [[0, 1], [2, 3]])
    with pytest.raises(LinkError):
        verify_link(e, build_partition(4, [[0, 1], [2, 3]]), full(4))


def test_link_constructor_rejects_non_link():
    e = build_partition(4, [[0, 1], [2, 3]])
    with pytest.raises(LinkError):
        Link(e, full(4), build_partition(4, [[0, 1], [2, 3]]))


def test_link_finite_index_delta_pair():
    e = delta(4)
    f = build_partition(4, [[0, 1], [2, 3]])
    link = link_finite_index(e, f, [[1, 0, 2, 3], [0, 1, 3, 2]])
    assert link.l == f  # over delta the only link is F itself


def test_link_finite_index_bad_witness():
    e = build_partition(4, [[0, 1], [2, 3]])
    with pytest.raises(LinkError):
        link_finite_index(e, full(4), [[0, 2, 1, 3]])  # not an E-automorphism
    with pytest.raises(LinkError):
        link_finite_index(e, full(4), [[1, 0, 2, 3]])  # fails to generate F


def test_extend_link_contains_input():
    e = delta(4)
    f = build_partition(4, [[0, 1], [2, 3]])
    link = link_finite_index(e, f, [[1, 0, 2, 3], [0, 1, 3, 2]])
    ext = extend_link(e, f, full(4), link, [[1, 0, 2, 3], [0, 1, 3, 2], [2, 3, 0, 1]])
    assert link.l.refines(ext.l)
    assert verify_link(e, full(4), ext.l)[0]


def test_extend_link_trivial_when_f_equals_f_prime():
    e = build_partition(4, [[0, 1], [2, 3]])
    f = full(4)
    link = link_finite_index(e, f, [[2, 3, 0, 1]])
    again = extend_link(e, f, f, link, [[2, 3, 0, 1]])
    assert again.l == link.l


def test_hf_link_chain_seeded():
    for seed in range(40):
        ch = gen_chain(seed)
        link = hf_link(ch.e, list(ch.chain), list(ch.witnesses))
        assert verify_link(ch.e, ch.chain[-1], link.l)[0]


def test_link_finite_index_rank_link():
    e = build_partition(4, [[0, 1], [2, 3]])
    link = link_finite_index(e, full(4), [[2, 3, 0, 1]])
    assert link.l.classes == ((0, 2), (1, 3))


def test_link_finite_index_rejects_uneven_classes():
    # No E-automorphism joins classes of different sizes, so no witness does.
    e = build_partition(3, [[0, 1], [2]])
    for witness in ([[2, 0, 1]], [[0, 2, 1]], [[1, 0, 2]]):
        with pytest.raises(LinkError):
            link_finite_index(e, full(3), witness)


def test_lift_from_link_induces_outer_data():
    e = build_partition(4, [[0, 1], [2, 3]])
    link = link_finite_index(e, full(4), [[2, 3, 0, 1]])
    action = lift_from_link(OuterAction(e, ((1, 0),)), link)
    assert action.group.order == 2
    swap = action.act[1]
    assert e.class_index(swap[0]) == 1 and swap[swap[0]] == 0


def test_lift_through_finite_normal_cyclic4():
    # N = Z/2 acting by (0 1)(2 3) on 4 singleton classes; outer data a
    # 4-cycle on classes squaring to the N class map.
    res = lift_through_finite_normal(delta(4), [[1, 0, 3, 2]], [(2, 3, 1, 0)])
    assert res.group.order == 4
    assert (2, 3, 1, 0) in res.act  # the 4-cycle lift (0 2 1 3)
    assert (1, 0, 3, 2) in res.act  # extends the N-action


def test_lift_through_finite_normal_rejects_non_normal():
    e = delta(3)
    with pytest.raises(LinkError):
        # N generated by a transposition is not normal under a 3-cycle.
        lift_through_finite_normal(e, [[1, 0, 2]], [(1, 2, 0)])


def test_equidecompose_witness_and_impossible():
    e = build_partition(6, [[0, 1, 2], [3, 4, 5]])
    wit = equidecompose(e, [0, 3], [2, 4])
    assert wit is not None and all(e.related(a, b) for a, b in wit.mapping)
    assert equidecompose(e, [0, 1], [3, 4]) is None


def test_cancellation_seeded():
    rng = random.Random(11)
    e = build_partition(6, [[0, 1, 2], [3, 4, 5]])
    for _ in range(50):
        a = [x for x in range(6) if rng.random() < 0.5]
        b = []
        for c in e.classes:
            take = sum(1 for x in a if x in c)
            b.extend(rng.sample(list(c), take))
        n = rng.randint(1, 4)
        assert cancel_equidecomposition(e, a, b, n) is not None


def test_amplify_relation_shape():
    e = build_partition(2, [[0, 1]])
    big = amplify_relation(e, 3)
    assert big.n == 6 and big.classes == ((0, 1, 2, 3, 4, 5),)


def test_constructed_link_among_enumerated():
    for seed in range(30):
        inst = gen_instance(seed, max_size=8, max_index=3)
        link = link_finite_index(inst.e, inst.f, inst.witness)
        assert link.l in enumerate_links(inst.e, inst.f)
