import functools
import hashlib
import os
import random
from collections import Counter
import subprocess
import sys

import pytest
from lift_oracle import lift_by_lookup

from cberlab import links
from cberlab.eqrel import CheckFailed, build_partition, delta, full
from cberlab.groups import GroupError, compose, identity_perm, right_by
from cberlab.instances import (
    all_partitions,
    build_block_instance,
    enumerate_links,
    gen_chain,
    gen_instance,
)
from cberlab.links import (
    Link,
    LinkError,
    OuterAction,
    amplify_relation,
    cancel_equidecomposition,
    class_perm_of,
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


def _least_failing_pair(e, f, l):
    """Set-based reference: the first (F-class, E-class, L-class) by class
    index whose E- and L-class do not meet in exactly one point."""
    for fc in f.classes:
        for ec in (c for c in e.classes if set(c) <= set(fc)):
            for lc in (c for c in l.classes if set(c) <= set(fc)):
                if (count := len(set(ec) & set(lc))) != 1:
                    return fc, ec, lc, count
    return None


def test_verify_link_matches_reference_on_every_partition_triple():
    # Every F on n <= 5 points, every E ⊆ F and every L ⊆ F.
    checked = failed = 0
    for n in range(1, 6):
        parts = [build_partition(n, p) for p in all_partitions(list(range(n)))]
        for f in parts:
            subs = [r for r in parts if r.refines(f)]
            for e in subs:
                for l in subs:
                    ok, bad = verify_link(e, f, l)
                    ref = _least_failing_pair(e, f, l)
                    assert ok == (ref is None) and bad == ref, (e, f, l, bad)
                    if bad is not None:
                        fc, ec, lc, count = bad
                        assert count == len(set(fc) & set(ec) & set(lc)) != 1
                        failed += 1
                    checked += 1
    assert 0 < failed < checked


def test_verify_link_containment_error():
    e = build_partition(4, [[0, 1], [2, 3]])
    with pytest.raises(LinkError):
        verify_link(e, build_partition(4, [[0, 1], [2, 3]]), full(4))


def test_link_constructor_rejects_non_link():
    e = build_partition(4, [[0, 1], [2, 3]])
    with pytest.raises(CheckFailed):
        Link(e, full(4), build_partition(4, [[0, 1], [2, 3]]))


def test_link_check_survives_python_O():
    """A failed incidence check raises CheckFailed, an AssertionError the
    CLI maps to exit 1, even when `python -O` strips `assert` statements."""
    code = (
        "from cberlab.eqrel import build_partition, full\n"
        "from cberlab.links import Link\n"
        "e = build_partition(4, [[0, 1], [2, 3]])\n"
        "Link(e, full(4), e)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith(
        "cberlab.eqrel.CheckFailed: incidence condition fails"
    )


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


def _zip_by_least(f, f_prime, l):
    """Set-based reference extension: in each F'-class, unite the r-th
    L-class (by least element) of every F-class inside it."""
    out = []
    for fpc in f_prime.classes:
        per_f = [
            sorted((lc for lc in l.classes if set(lc) <= set(fc)), key=min)
            for fc in f.classes
            if set(fc) <= set(fpc)
        ]
        out.extend(set().union(*row) for row in zip(*per_f))
    return build_partition(l.n, out)


def test_extend_link_on_every_enumerated_link():
    extended = 0
    for seed in range(60):
        ch = gen_chain(seed, max_size=12)
        f0 = ch.chain[0]
        for l in enumerate_links(ch.e, f0):
            link = Link(ch.e, f0, l)
            for f_prime, wit in zip(ch.chain[1:], ch.witnesses[1:]):
                ext = extend_link(ch.e, f0, f_prime, link, wit)
                assert verify_link(ch.e, f_prime, ext.l)[0]
                assert l.refines(ext.l)
                assert ext.l == _zip_by_least(f0, f_prime, l)
                extended += 1
    assert extended > 200


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


def _pair(e, f, wit, edit=lambda cls_gens: cls_gens):
    """(E, link, class maps) for a witnessed pair; `edit` rewrites the
    class maps the lift is given."""
    link = link_finite_index(e, f, wit)
    return e, link, edit(tuple(class_perm_of(e, g) for g in wit))


def _lift_cases(case):
    """(E, link, class maps) triples: criterion 4's seeded draw, S3 on three
    classes of two points, or one block pair of index 4, 6 and 5 under an
    edit of its generators."""
    if case == "criterion-4":
        return [_pair(inst.e, inst.f, inst.witness)
                for inst in (gen_instance(seed, max_size=10, max_index=3) for seed in range(500))]
    if case == "S3":  # not abelian: act[a·s] = act[a] ∘ lift(s) in that order
        e = build_partition(6, [[0, 3], [1, 4], [2, 5]])
        return [_pair(e, full(6), [(1, 0, 2, 4, 3, 5), (1, 2, 0, 4, 5, 3)])]
    inst = build_block_instance([(3, 4), (2, 6), (1, 5)])
    if case == "combined":  # the blocks' disjoint rotations as one generator
        return [_pair(inst.e, inst.f, [functools.reduce(compose, inst.witness)])]
    edit = {
        "separate": lambda gs: gs,
        "duplicate": lambda gs: gs + gs[:1],
        "identity": lambda gs: (identity_perm(len(gs[0])),) + gs,
        "empty": lambda gs: (),
    }[case]
    return [_pair(inst.e, inst.f, inst.witness, edit)]


LIFT_CASES = ["criterion-4", "S3", "separate", "combined", "duplicate", "identity", "empty"]


@pytest.mark.parametrize("case", LIFT_CASES)
def test_lift_matches_the_lookup_oracle(case):
    """The composed lift is the per-element lookup lift, tuple for tuple."""
    orders = set()
    for e, link, cls_gens in _lift_cases(case):
        outer = OuterAction(e, cls_gens)
        action = lift_from_link(outer, link)
        assert action.act == lift_by_lookup(outer, link)
        orders.add(action.group.order)
    # Z4 x Z6 x Z5 from the separate rotations, Z60 from their product.
    assert orders == {"S3": {6}, "separate": {120}, "combined": {60}, "duplicate": {120},
                      "identity": {120}, "empty": {1}}.get(case, orders)


@pytest.mark.parametrize("case", LIFT_CASES)
def test_generator_columns_are_the_cayley_edges(case):
    for e, link, cls_gens in _lift_cases(case):
        g = lift_from_link(OuterAction(e, cls_gens), link).group
        assert len(g.right) == len(g.gens) == max(len(cls_gens), 1)
        for s, col in zip(g.gens, g.right):
            assert list(col) == [g.op(a, s) for a in range(g.order)]


class _Reads(tuple):
    """A class map that counts the reads of its entries."""

    log: list = []

    def __getitem__(self, i):
        _Reads.log.append(i)
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("case", LIFT_CASES)
def test_lift_composes_once_per_element_and_looks_up_the_generators(case, monkeypatch):
    """The build makes |G| - 1 compositions, one per element past the
    identity, each a call of a getter that `right_by` built, and reads the
    class maps |S|·n times beyond the coarsening check: one lookup per
    generator and point."""
    composed = []

    def counting_right_by(q):
        by = right_by(q)

        def counting(p):
            composed.append(1)
            return by(p)
        return counting

    monkeypatch.setattr(links, "right_by", counting_right_by)
    for e, link, cls_gens in _lift_cases(case):
        outer = OuterAction(e, tuple(map(_Reads, cls_gens)))
        _Reads.log.clear()
        outer.coarsening()
        coarsening_reads = len(_Reads.log)
        _Reads.log.clear()
        composed.clear()
        action = lift_from_link(outer, link)
        assert len(composed) == action.group.order - 1
        assert len(_Reads.log) - coarsening_reads == len(cls_gens) * e.n


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


def test_lift_through_finite_normal_rejects_a_move_inside_a_class():
    # N swaps the two points of the one class: its orbit meets the class twice.
    with pytest.raises(LinkError, match="not class-bijective"):
        lift_through_finite_normal(build_partition(2, [[0, 1]]), [[1, 0]], [])


def test_outer_action_rejects_a_move_between_sizes():
    # Class 0 has one point and class 1 two: no lift can swap them.
    e = build_partition(3, [[0], [1, 2]])
    with pytest.raises(LinkError, match="size"):
        OuterAction(e, ((1, 0),))
    with pytest.raises(LinkError, match="size"):
        lift_through_finite_normal(e, [[0, 1, 2]], [(1, 0)])


def _cycles(sigma):
    seen, out = set(), []
    for i in range(len(sigma)):
        if i not in seen:
            cyc = [i]
            seen.add(i)
            while sigma[cyc[-1]] not in seen:
                cyc.append(sigma[cyc[-1]])
                seen.add(cyc[-1])
            out.append(cyc)
    return out


def _class_bijective_perm(rng, e, sigma):
    """A point permutation over the class permutation sigma whose power of
    each cycle's length is the identity on that cycle's classes, so the
    group it generates is class-bijective."""
    p = [0] * e.n
    for cyc in _cycles(sigma):
        cs = [list(e.classes[i]) for i in cyc]
        for a, b in zip(cs, cs[1:]):
            for x, y in zip(a, rng.sample(b, len(b))):
                p[x] = y
        for x in cs[0]:
            y = x
            for _ in cs[1:]:
                y = p[y]
            p[y] = x
    return p


def _normal_lift_case(rng):
    """Uniform E-class size 1-3, up to 5 classes; N from one or two
    class-bijective generators; 0-2 outer class maps, each a power of N's
    class map (so N stays normal) or a random permutation."""
    m, k = rng.randint(1, 3), rng.randint(1, 5)
    pts = list(range(m * k))
    rng.shuffle(pts)
    e = build_partition(m * k, [pts[i * m:(i + 1) * m] for i in range(k)])
    sigma = rng.sample(range(k), k)
    n_gens = [_class_bijective_perm(rng, e, sigma)]
    if rng.random() < 0.3:
        n_gens.append(_class_bijective_perm(rng, e, rng.sample(range(k), k)))
    outer = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            g = list(range(k))
            for _ in range(rng.randrange(k)):
                g = [sigma[i] for i in g]
            outer.append(tuple(g))
        else:
            outer.append(tuple(rng.sample(range(k), k)))
    return e, n_gens, outer


def test_lift_through_finite_normal_frozen():
    """500 seeded inputs: each lift (group elements and action) or the type
    of its input error, hashed.  The digest was recorded when the lift went
    through a quotient link over a transversal of the N-orbits; the row rule
    must give the same lifts and reject the same inputs."""
    rng = random.Random(12)
    outcomes = []
    for _ in range(500):
        e, n_gens, outer = _normal_lift_case(rng)
        try:
            action = lift_through_finite_normal(e, n_gens, outer)
            outcomes.append((action.group.elems, action.act))
        except (LinkError, GroupError) as exc:
            outcomes.append(type(exc).__name__)
    counts = Counter(o if isinstance(o, str) else "lift" for o in outcomes)
    assert counts == {"lift": 390, "LinkError": 107, "GroupError": 3}
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "629aeb88741cdcc7fe47a6d6b02055487a2a2d764294a3ba7014df36bc6341bc"


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
        assert link.l == _zip_by_least(inst.e, inst.f, delta(inst.e.n))
