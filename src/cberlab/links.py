"""Links between nested equivalence relations, and the lifts they induce.

A link for a pair E ⊆ F is a subrelation L ⊆ F such that within every
F-class, every E-class meets every L-class exactly once.  Links are the
combinatorial core of every construction here: they are produced for
finite-index normal pairs, extended along chains, and converted into
class-bijective group actions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .eqrel import CheckFailed, FinEqrel, join, join_pairs
from .groups import (
    FinGroup,
    GroupAction,
    Perm,
    identity_perm,
    invert,
    is_automorphism,
    orbit_eqrel_of_perms,
    orbit_pairs,
    perm_of,
    right_by,
)


class LinkError(ValueError):
    """Raised when link data or preconditions are invalid."""


def verify_link(
    e: FinEqrel, f: FinEqrel, l: FinEqrel
) -> tuple[bool, tuple | None]:
    """Check the all-ones incidence condition in every F-class.

    Inside an F-class, every E-class meets every L-class exactly once iff
    each (E-class, L-class) pair of classes in it holds exactly one point,
    that is, x ↦ (E-class, L-class) hits each of the #E·#L pairs once.  The
    pairs are counted in one pass over the class.  Returns (True, None) or
    (False, (F-class, E-class, L-class, count)) for the least failing pair
    by class index.  Containment violations raise LinkError.
    """
    if not e.refines(f):
        raise LinkError("E is not a subrelation of F")
    if not l.refines(f):
        raise LinkError("L is not a subrelation of F")
    e_of = e._cls_of.__getitem__  # type: ignore[attr-defined]
    l_of = l._cls_of.__getitem__  # type: ignore[attr-defined]
    for c in f.classes:
        counts = Counter(zip(map(e_of, c), map(l_of, c)))
        l_ids = sorted({li for _, li in counts})
        # Stops at the first pair not counted once: at most |c| + 1 lookups.
        for ei in sorted({ei for ei, _ in counts}):
            for li in l_ids:
                if (count := counts[ei, li]) != 1:
                    return False, (c, e.classes[ei], l.classes[li], count)
    return True, None


@dataclass(frozen=True)
class Link:
    """A verified (E, F)-link; the constructor runs verify_link and raises
    CheckFailed if it fails, since only the constructions here build links."""

    e: FinEqrel
    f: FinEqrel
    l: FinEqrel

    def __post_init__(self) -> None:
        ok, bad = verify_link(self.e, self.f, self.l)
        if not ok:
            raise CheckFailed(f"incidence condition fails: {bad}")


def _validate_witness(e: FinEqrel, f: FinEqrel, gens: Sequence[Sequence[int]]) -> None:
    perms = [perm_of(g, e.n) for g in gens]
    for i, p in enumerate(perms):
        if not is_automorphism(e, p):
            raise LinkError(f"witness generator {i} ({p}) is not an automorphism of E")
    if join_pairs(e, orbit_pairs(perms)) != f:
        raise LinkError("witness does not generate F over E")


def _rows(l_classes: Iterable[Sequence[int]], f: FinEqrel, f_prime: FinEqrel) -> FinEqrel:
    """The one row rule that builds every link here: inside each F′-class,
    the r-th class of l (by least element) of every F-class is row r.

    l_classes partition the points, refine F and come by least element.
    """
    f_of, fp_of = f.class_index, f_prime.class_index
    rank = [0] * len(f.classes)
    rows: dict[tuple[int, int], list[int]] = {}
    for c in l_classes:
        fi = f_of(c[0])
        rows.setdefault((fp_of(c[0]), rank[fi]), []).extend(c)
        rank[fi] += 1
    return FinEqrel(f.n, tuple(rows.values()))


def link_finite_index(
    e: FinEqrel, f: FinEqrel, gens: Sequence[Sequence[int]]
) -> Link:
    """Construct the rank link of E ⊆ F from a normality witness.

    x L y iff x F y and x, y have the same rank in their E-classes.  This is
    what the paper's construction (a maximal fsr of F whose classes are
    E-transversals of single F-classes, with every point outside the E-hull
    of its domain routed into the hull by the witness group) yields in this
    finite model.  Each witness generator is an automorphism of E, so it maps
    E-classes onto E-classes of the same size; F is E joined with the
    generator orbits, so all E-classes inside one F-class have the same size.
    The (min, size, lex) greedy over those transversals then takes the
    rank-0 transversal of each F-class, then rank 1, and so on; its domain is
    every point, so its hull is the whole space and nothing is routed.
    That is `_rows` of the singletons over E ⊆ F: the r-th singleton of an
    E-class is its r-th point.
    """
    if not e.refines(f):
        raise LinkError("E is not a subrelation of F")
    _validate_witness(e, f, gens)
    return Link(e, f, _rows([(x,) for x in range(e.n)], e, f))


# --- link extension along a chain -----------------------------------------


def extend_link(
    e: FinEqrel,
    f: FinEqrel,
    f_prime: FinEqrel,
    link: Link,
    gens: Sequence[Sequence[int]],
) -> Link:
    """Extend an (E, F)-link to an (E, F′)-link containing it.

    Inside each F′-class, the r-th L-class (by least element) of every F-class
    goes into row r (`_rows`), and each row is one class of the new link.  This is the
    whole of the paper's split-and-glue induction here: the witness check
    forces all E-classes in an F′-class to one size m (the generators are
    E-automorphisms and F′ is E joined with their orbits), and an (E, F)-link
    has exactly m L-classes per F-class, one point from each E-class in each.
    So the greedy matching across F-classes uses them all up at once, and
    the split into matched and unmatched parts never happens.
    """
    if link.e != e or link.f != f:
        raise LinkError("link does not match the given pair")
    if not f.refines(f_prime):
        raise LinkError("F is not a subrelation of F'")
    _validate_witness(e, f_prime, gens)
    out = Link(e, f_prime, _rows(link.l.classes, f, f_prime))
    if not link.l.refines(out.l):
        raise CheckFailed("extension lost the input link")  # pragma: no cover
    return out


def hf_link(
    e: FinEqrel,
    chain: Sequence[FinEqrel],
    witnesses: Sequence[Sequence[Sequence[int]]],
) -> Link:
    """Iterated extension along an ascending chain F_0 ⊆ ... ⊆ F_m.

    witnesses[i] must witness E ◁ F_i.  Every intermediate link contains its
    predecessor.
    """
    if not chain:
        raise LinkError("empty chain")
    if len(witnesses) != len(chain):
        raise LinkError("need one witness list per chain entry")
    link = link_finite_index(e, chain[0], witnesses[0])
    for f_prev, f_next, wit in zip(chain, chain[1:], witnesses[1:]):
        link = extend_link(e, f_prev, f_next, link, wit)
    return link


# --- lifts from links ------------------------------------------------------


@dataclass(frozen=True)
class OuterAction:
    """Class-level action data: one permutation of E-classes per generator.
    A move onto a class of another size has no lift and raises LinkError."""

    e: FinEqrel
    gens: tuple[Perm, ...]

    def __post_init__(self) -> None:
        cls = self.e.classes
        for g in self.gens:
            perm_of(g, len(cls))
            for i, j in enumerate(g):
                if len(cls[i]) != len(cls[j]):
                    raise LinkError(f"class map {g} moves class {i} onto a class of another size")

    def coarsening(self) -> FinEqrel:
        """E joined with the class moves of the generated group: E^{∨G}."""
        cls = self.e.classes
        moves = ((cls[i][0], cls[j][0]) for g in self.gens for i, j in enumerate(g))
        return join_pairs(self.e, moves)


def lift_from_link(outer: OuterAction, link: Link) -> GroupAction:
    """Lift an outer (class-level) action to points through a link.

    g·x is the unique element of [x]_L in the class g·[x]_E.  Only the
    generators are looked up, as the point at (L-class, E-class): |S|·n
    lookups.  Every other element is composed along the Cayley edge that
    first reaches it in shortlex order, act[a·s] = act[a] ∘ lift(s), one
    composition per element.  That gives the looked-up point: by induction
    on word length, if act[a](y) lies in [y]_L ∩ a·[y]_E for every y, and
    y = lift(s)(x) lies in [x]_L ∩ s·[x]_E, then act[a](y) lies in
    [x]_L ∩ a·s·[x]_E, whose one point is the lookup of a·s at x.  So
    g·(h·x) and (gh)·x are both the point of [x]_L in the class gh·[x]_E;
    GroupAction rechecks the axioms on the Cayley edges.  By construction
    g·x lies in g·[x]_E, and g·x = x when g fixes [x]_E, so the lift
    induces the class data and is class-bijective.  Its output, one image
    per element and point, is |G|·n ints.
    """
    e = outer.e
    if link.e != e:
        raise LinkError("link base relation does not match the outer action")
    if not outer.coarsening().refines(link.f):
        raise LinkError("link pair does not absorb the class moves")
    gens = outer.gens if outer.gens else (identity_perm(len(e.classes)),)
    group = FinGroup.generated(gens)
    l_of = [link.l.class_index(x) for x in range(e.n)]
    e_of = [e.class_index(x) for x in range(e.n)]
    point = {(l_of[x], e_of[x]): x for x in range(e.n)}
    lifts = []
    for g in gens:
        img = [point.get((lx, g[ex])) for lx, ex in zip(l_of, e_of)]
        if None in img:
            # Cannot happen: g moves [x]_E inside [x]_F, since F holds the
            # coarsening, and inside [x]_F the link puts one point of [x]_L
            # in every E-class, so (L-class, E-class) always names a point.
            raise CheckFailed("link misses a class move while lifting")  # pragma: no cover
        lifts.append(tuple(img))
    act: list[Perm | None] = [None] * group.order
    act[group.identity] = identity_perm(e.n)
    bys = [right_by(lift) for lift in lifts]
    for a in range(group.order):  # shortlex: a is composed before it is read
        for by, col in zip(bys, group.right):
            if act[b := col[a]] is None:
                act[b] = by(act[a])
    return GroupAction(group, e.n, tuple(act))


# --- equidecomposability ----------------------------------------------------


@dataclass(frozen=True)
class EquidecompWitness:
    """A bijection A → B whose graph lies inside E."""

    e: FinEqrel
    mapping: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        src = [a for a, _ in self.mapping]
        dst = [b for _, b in self.mapping]
        if len(set(src)) != len(src) or len(set(dst)) != len(dst):
            raise LinkError("witness is not a bijection")
        for a, b in self.mapping:
            if not self.e.related(a, b):
                raise LinkError(f"witness pair ({a},{b}) not related")


def equidecompose(
    e: FinEqrel, a: Iterable[int], b: Iterable[int]
) -> EquidecompWitness | None:
    """Match A to B inside E-classes, or report impossibility (None).

    A witness exists iff |A ∩ C| = |B ∩ C| for every class C; it is built by
    pairing the sorted intersections.  A point outside 0..n-1 raises
    LinkError.
    """
    a, b = list(a), list(b)
    for x in (*a, *b):
        if type(x) is not int or not 0 <= x < e.n:
            raise LinkError(f"point {x!r} outside ground set of size {e.n}")
    aset, bset = sorted(set(a)), sorted(set(b))
    per_class_a: dict[int, list[int]] = {}
    per_class_b: dict[int, list[int]] = {}
    for x in aset:
        per_class_a.setdefault(e.class_index(x), []).append(x)
    for x in bset:
        per_class_b.setdefault(e.class_index(x), []).append(x)
    if set(per_class_a) != set(per_class_b):
        return None
    mapping: list[tuple[int, int]] = []
    for ci, xs in per_class_a.items():
        ys = per_class_b[ci]
        if len(xs) != len(ys):
            return None
        mapping.extend(zip(xs, ys))
    return EquidecompWitness(e, tuple(sorted(mapping)))


def cancel_equidecomposition(
    e: FinEqrel, a: Iterable[int], b: Iterable[int], copies: int
) -> EquidecompWitness | None:
    """Cancellation: n·A ~ n·B implies A ~ B, with an explicit witness.

    Checks equidecomposability of the copied sets inside the amplified
    relation; when it holds, the per-class counts of A and B must already be
    equal, so a witness for A ~ B exists and is returned.
    """
    if copies < 1:
        raise LinkError("need at least one copy")
    big = amplify_relation(e, copies)
    big_a = [x + e.n * j for j in range(copies) for x in a]
    big_b = [x + e.n * j for j in range(copies) for x in b]
    if equidecompose(big, big_a, big_b) is None:
        return None
    wit = equidecompose(e, a, b)
    if wit is None:  # pragma: no cover - cancellation law guarantees this
        raise CheckFailed("cancellation failed: copies match but sets do not")
    return wit


def amplify_relation(e: FinEqrel, copies: int) -> FinEqrel:
    """E on `copies` disjoint copies of the space: point x in copy j is x + n·j."""
    classes = [
        tuple(x + e.n * j for j in range(copies) for x in c) for c in e.classes
    ]
    return FinEqrel(e.n * copies, tuple(classes))


# --- lifting through a finite normal subgroup ------------------------------


def class_perm_of(e: FinEqrel, p: Perm) -> Perm:
    """The permutation of E-classes induced by an E-automorphism p."""
    return tuple(e.class_index(p[c[0]]) for c in e.classes)


def lift_through_finite_normal(
    e: FinEqrel,
    n_gens: Sequence[Sequence[int]],
    outer_gens: Sequence[Sequence[int]],
) -> GroupAction:
    """Lift class data through a finite normal subgroup acting on points.

    n_gens generate a class-bijective action of N on points; outer_gens are
    E-class permutations for the remaining generators of G.  G is realized as
    the generated group of class permutations, with N required normal.  The
    orbit relation L of N is an (E, F)-link for F = E ∨ L, and the lift goes
    through `_rows(L, F, F′)`, a link of E ⊆ F′ = E^{∨G}.

    A quotient link over a transversal of L collapses to this: the rank link
    of F ⊆ F′ restricted to S, the N-orbit minima relabelled in order, puts
    the r-th point of S in each F-class, the minimum of its r-th N-orbit,
    into row r, and joined with L that is `_rows(L, F, F′)`.  N's class maps
    need no count against its elements: if p, q ∈ N induce one class map,
    q⁻¹p fixes every class, so by class-bijectivity it is the identity.

    Class-bijectivity (p ∈ N and p(x) E x imply p(x) = x) is checked as the
    link condition of L over E ⊆ F.  N acts by E-automorphisms, so the
    N-images of an E-class C make up its F-class, and the orbit Nx of
    x ∈ C meets each image p(C) in p(x): every incidence is ≥ 1.  If Nx
    meets an E-class twice, in p(x) and q(x), then q⁻¹p(x) E x with
    q⁻¹p(x) ≠ x; and a p with p(x) E x, p(x) ≠ x puts two points of Nx in
    [x]_E.  So every incidence is ≤ 1 iff the action is class-bijective.
    """
    n_perms = [perm_of(p, e.n) for p in n_gens]
    for p in n_perms:
        if not is_automorphism(e, p):
            raise LinkError(f"normal-subgroup generator {p} is not an automorphism")
    n_elems = FinGroup.generated([identity_perm(e.n), *n_perms]).elems
    l_rel = orbit_eqrel_of_perms(e.n, n_perms)
    f = join(e, l_rel)
    if not verify_link(e, f, l_rel)[0]:
        raise LinkError("N-action is not class-bijective")

    k = len(e.classes)
    n_cls = [class_perm_of(e, p) for p in n_elems]
    all_cls_gens = [perm_of(g, k) for g in outer_gens] + n_cls
    n_cls_set = set(n_cls)
    # Generators suffice: the g with gNg⁻¹ ⊆ N are closed under products, and
    # in a finite group the products of the generators are all of G.
    n_bys = [right_by(p) for p in n_cls_set]
    for g in all_cls_gens:
        conj = right_by(invert(g))
        for by in n_bys:
            if conj(by(g)) not in n_cls_set:
                raise LinkError("N is not normal in the generated group")

    outer = OuterAction(e, tuple(all_cls_gens))
    f_prime = outer.coarsening()
    action = lift_from_link(outer, Link(e, f_prime, _rows(l_rel.classes, f, f_prime)))
    # The lift must extend the supplied N-action.
    for p_pt, p_cls in zip(n_elems, n_cls):
        if action.act[action.group.index[p_cls]] != p_pt:
            raise CheckFailed("lift does not extend the normal-subgroup action")
    return action
