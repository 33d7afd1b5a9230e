"""Finite groups acting on finite spaces: orbit relations, automorphisms, normality."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .eqrel import EqrelError, FinEqrel, from_pairs, join

CLOSURE_CAP = 10_000

Perm = tuple[int, ...]


class GroupError(ValueError):
    """Raised on invalid group or action data."""


def perm_of(seq: Sequence[int], n: int | None = None) -> Perm:
    """Validate a one-line-form permutation."""
    p = tuple(seq)
    size = len(p) if n is None else n
    if len(p) != size or sorted(p) != list(range(size)):
        raise GroupError(f"not a permutation of {size} points: {seq}")
    return p


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p ∘ q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    out = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return perm_of(out, n)


def shortlex_closure(gens: Sequence[Perm], cap: int = CLOSURE_CAP) -> list[Perm]:
    """Group elements generated by gens, in shortlex word order (first occurrence).

    Deterministic: breadth-first over words gens[0], gens[1], ... applied on the
    right.  Raises if the closure exceeds the cap.
    """
    if not gens:
        raise GroupError("need at least one generator (use the identity)")
    n = len(gens[0])
    out: list[Perm] = [identity_perm(n)]
    seen = set(out)
    frontier = [identity_perm(n)]
    while frontier:
        nxt: list[Perm] = []
        for w in frontier:
            for g in gens:
                e = compose(w, g)
                if e not in seen:
                    seen.add(e)
                    out.append(e)
                    nxt.append(e)
                    if len(out) > cap:
                        raise GroupError(f"generated group exceeds cap {cap}")
        frontier = nxt
    return out


@dataclass(frozen=True)
class FinGroup:
    """A finite permutation group: its elements in shortlex order, indexed.

    Element i is the permutation elems[i]; the identity is element 0, `gens`
    holds the generators' indices, and op(a, b) is the index of
    elems[a] ∘ elems[b].  No group axiom needs checking: composition of
    permutations is associative, the identity permutation is an identity,
    and the inverse of an element is one of its powers, so it lies in the
    closure.
    """

    elems: tuple[Perm, ...]
    gens: tuple[int, ...]
    index: dict[Perm, int] = field(compare=False, repr=False)
    identity = 0  # shortlex_closure lists the identity first

    @property
    def order(self) -> int:
        return len(self.elems)

    def op(self, a: int, b: int) -> int:
        return self.index[compose(self.elems[a], self.elems[b])]

    @staticmethod
    def generated(gens: Sequence[Perm], cap: int = CLOSURE_CAP) -> "FinGroup":
        """Group of permutations generated by gens."""
        elems = tuple(shortlex_closure(gens, cap))
        index = {p: i for i, p in enumerate(elems)}
        return FinGroup(elems, tuple(index[tuple(g)] for g in gens), index)


@dataclass(frozen=True)
class GroupAction:
    """An action of a FinGroup on {0..n-1}; axioms checked on construction.

    The check covers the identity and every Cayley edge: act[w·s] =
    act[w] ∘ act[s] for each element w and generator s, |G|·|S|
    compositions.  That is the whole axiom, not a sample of it: every b is
    a word in the generators, and by induction on the length of b, with
    act[a·1] = act[a] ∘ act[1] from the identity check and the step
    act[a·b·s] = act[a·b] ∘ act[s] = act[a] ∘ act[b] ∘ act[s] = act[a] ∘ act[b·s]
    (two edges), act[ab] = act[a] ∘ act[b] for all a and b.
    """

    group: FinGroup
    space_size: int
    act: tuple[Perm, ...]  # one permutation per group element

    def __post_init__(self) -> None:
        if len(self.act) != self.group.order:
            raise GroupError("need one permutation per group element")
        for p in self.act:
            perm_of(p, self.space_size)
        if self.act[self.group.identity] != identity_perm(self.space_size):
            raise GroupError("identity must act trivially")
        for w in range(self.group.order):
            for s in self.group.gens:
                if compose(self.act[w], self.act[s]) != self.act[self.group.op(w, s)]:
                    raise GroupError(f"action axiom fails at ({w},{s})")

    def apply(self, g: int, x: int) -> int:
        return self.act[g][x]


def orbit_eqrel(a: GroupAction) -> FinEqrel:
    """Orbit equivalence relation of an action: that of its generators."""
    return orbit_eqrel_of_perms(a.space_size, [a.act[s] for s in a.group.gens])


def orbit_eqrel_of_perms(n: int, gens: Sequence[Perm]) -> FinEqrel:
    """Orbit relation of the group generated by permutations (no closure needed)."""
    return from_pairs(n, [(x, g[x]) for g in gens for x in range(n)])


@dataclass(frozen=True)
class AutClassification:
    verdict: str  # "not-automorphism" | "inner" | "outer-nontrivial"
    witness: object


def is_automorphism(e: FinEqrel, t: Perm) -> bool:
    """x E y iff t(x) E t(y): each E-class maps into one class, and distinct
    classes into distinct classes."""
    images = [{e.class_index(t[x]) for x in c} for c in e.classes]
    return all(len(i) == 1 for i in images) and len(set().union(*images)) == len(images)


def classify_automorphism(e: FinEqrel, t: Sequence[int]) -> AutClassification:
    """Classify a permutation as not-automorphism / inner / outer-nontrivial.

    Inner means every point stays in its own class.  The witness is a failing
    pair, the per-point within-class evidence, or the induced class pairing.
    """
    p = perm_of(t, e.n)
    for x, y in itertools.combinations(range(e.n), 2):
        if e.related(x, y) != e.related(p[x], p[y]):
            return AutClassification("not-automorphism", (x, y))
    if all(e.related(x, p[x]) for x in range(e.n)):
        return AutClassification("inner", tuple((x, p[x]) for x in range(e.n)))
    pairing = tuple(
        (e.class_index(c[0]), e.class_index(p[c[0]])) for c in e.classes
    )
    return AutClassification("outer-nontrivial", pairing)


def extend_by_group(e: FinEqrel, gens: Sequence[Sequence[int]]) -> tuple[FinEqrel, bool]:
    """E^{∨G} = E joined with the orbit relation of gens; verdict = normality witnessed.

    The verdict is true iff every generator is an automorphism of E, in which
    case the generators witness E ◁ E^{∨G}.
    """
    perms = [perm_of(g, e.n) for g in gens]
    f = join(e, orbit_eqrel_of_perms(e.n, perms))
    witnessed = all(is_automorphism(e, p) for p in perms)
    return f, witnessed


def normal_restrict(e: FinEqrel, t: Sequence[int], f_prime: FinEqrel) -> Perm:
    """Restrict an automorphism along an intermediate relation.

    Given E ⊆ F′ ⊆ E^{∨T} with T ∈ Aut(E), returns T′ with T′(x) = T^n(x) for
    the least n > 0 with T^n(x) F′ x.  Asserts T′ ∈ Aut(E) and
    E^{∨T′} = F′ ∩ E^{∨T}.
    """
    tp = perm_of(t, e.n)
    if not is_automorphism(e, tp):
        raise GroupError("T is not an automorphism of E")
    e_vee_t, _ = extend_by_group(e, [tp])
    if not e.refines(f_prime):
        raise GroupError("E is not contained in F'")
    if not f_prime.refines(e_vee_t):
        raise GroupError("F' is not contained in E^{∨T}")
    out = []
    for x in range(e.n):
        y = tp[x]
        n = 1
        while not f_prime.related(y, x):
            y = tp[y]
            n += 1
            if n > e.n:
                raise AssertionError("no return time within T-orbit")  # pragma: no cover
        out.append(y)
    tprime = perm_of(out, e.n)
    if not is_automorphism(e, tprime):
        raise AssertionError("restricted map lost the automorphism property")
    e_vee_tp, _ = extend_by_group(e, [tprime])
    meet_classes = {}
    for x in range(e.n):
        key = (f_prime.class_index(x), e_vee_t.class_index(x))
        meet_classes.setdefault(key, []).append(x)
    meet = FinEqrel(e.n, tuple(tuple(c) for c in meet_classes.values()))
    if e_vee_tp != meet:
        raise AssertionError("E^{∨T'} differs from F' ∩ E^{∨T}")
    return tprime


OUT_ENUM_CAP = 8


def aut_inn_out(e: FinEqrel) -> tuple[list[Perm], list[Perm], list[tuple[Perm, ...]]]:
    """Aut(E), Inn(E), and the Out-cosets, by brute force (|X| ≤ 8 only)."""
    if e.n > OUT_ENUM_CAP:
        raise GroupError(f"Out enumeration is exhaustive only for |X| <= {OUT_ENUM_CAP}")
    aut = [p for p in itertools.permutations(range(e.n)) if is_automorphism(e, p)]
    inn = [p for p in aut if all(e.related(x, p[x]) for x in range(e.n))]
    inn_set = set(inn)
    cosets: dict[frozenset[Perm], list[Perm]] = {}
    for p in aut:
        coset = frozenset(compose(p, q) for q in inn_set)
        cosets.setdefault(coset, []).append(p)
    return aut, inn, [tuple(sorted(v)) for v in cosets.values()]
