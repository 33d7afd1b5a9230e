"""Finite groups acting on finite spaces: orbit relations, automorphisms, normality."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .eqrel import FinEqrel, from_pairs, join_pairs

CLOSURE_CAP = 10_000

Perm = tuple[int, ...]


class GroupError(ValueError):
    """Raised on invalid group or action data."""


def perm_of(seq: Sequence[int], n: int | None = None) -> Perm:
    """Validate a one-line-form permutation of ints; floats and bools would
    pass the sorted-range test (1.0 == True == 1) but are not points."""
    p = tuple(seq)
    size = len(p) if n is None else n
    if not set(map(type, p)) <= {int}:
        raise GroupError(f"permutation entries must be ints: {seq}")
    if len(p) != size or sorted(p) != list(range(size)):
        raise GroupError(f"not a permutation of {size} points: {seq}")
    return p


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p ∘ q)(x) = p(q(x))."""
    return tuple([p[x] for x in q])


def right_by(q: Perm) -> Callable[[Perm], Perm]:
    """The map p ↦ p ∘ q as one C call: itemgetter(*q)(p) is the tuple
    (p[q[0]], ..., p[q[n-1]]).  itemgetter of one index returns the entry,
    not a tuple, so on 0 or 1 points, where p ∘ q is p, it is `tuple`."""
    return operator.itemgetter(*q) if len(q) > 1 else tuple


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


@dataclass(frozen=True)
class FinGroup:
    """A finite permutation group: its elements in shortlex order, indexed,
    with the Cayley edges of its generators.

    Element i is the permutation elems[i]; the identity is element 0, `gens`
    holds the generators' indices, and op(a, b) is the index of
    elems[a] ∘ elems[b].  right[s][a] is the index of elems[a] ∘ elems[gens[s]]:
    the Cayley edges, one column of |G| ints per generator, kept from the
    closure that computes them; the action check and the lift read them
    instead of composing group elements again.  No group axiom needs
    checking: composition of permutations is associative, the identity
    permutation is an identity, and the inverse of an element is one of its
    powers, so it lies in the closure.
    """

    elems: tuple[Perm, ...]
    gens: tuple[int, ...]
    right: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    index: dict[Perm, int] = field(compare=False, repr=False)
    identity = 0  # the closure lists the identity first

    @property
    def order(self) -> int:
        return len(self.elems)

    def op(self, a: int, b: int) -> int:
        return self.index[compose(self.elems[a], self.elems[b])]

    @staticmethod
    def generated(gens: Sequence[Perm]) -> "FinGroup":
        """Group of permutations generated by gens, in shortlex word order
        (first occurrence).

        One breadth-first pass over words gens[0], gens[1], ... applied on
        the right: the queue is the element list itself, so an element is
        listed, and later expanded, in the order its shortest word is
        first reached.  Raises GroupError as soon as the closure exceeds
        CLOSURE_CAP.
        """
        if not gens:
            raise GroupError("need at least one generator (use the identity)")
        gens = [tuple(g) for g in gens]
        elems = [identity_perm(len(gens[0]))]
        index = {elems[0]: 0}
        right: list[list[int]] = [[] for _ in gens]
        bys = [right_by(g) for g in gens]
        for w in elems:  # grows while it is read
            for by, col in zip(bys, right):
                e = by(w)
                i = index.get(e)
                if i is None:
                    i = index[e] = len(elems)
                    elems.append(e)
                    if i == CLOSURE_CAP:
                        raise GroupError(f"generated group exceeds cap {CLOSURE_CAP}")
                col.append(i)
        return FinGroup(tuple(elems), tuple(col[0] for col in right),
                        tuple(map(tuple, right)), index)


@dataclass(frozen=True)
class GroupAction:
    """An action of a FinGroup on {0..n-1}; axioms checked on construction.

    The check covers the identity and every Cayley edge: act[w·s] =
    act[w] ∘ act[s] for each element w and generator s, |G|·|S|
    compositions, each by the prebuilt getter of act[s] and compared with
    act[right[s][w]], the element w·s read off the group's generator
    column.  That is the whole axiom, not a sample of it: every b is a word
    in the generators, and by induction on the length of b, with
    act[a·1] = act[a] ∘ act[1] from the identity check and the step
    act[a·b·s] = act[a·b] ∘ act[s] = act[a] ∘ act[b] ∘ act[s] = act[a] ∘ act[b·s]
    (two edges), act[ab] = act[a] ∘ act[b] for all a and b.

    Each element is validated once.  One pass over all entries checks that
    each element has n entries and each is exactly an int; `perm_of` then
    checks the identity and the generators.  Every other element is a
    permutation by the edge check itself: the closure reaches each b ≠ 0
    first by an edge (a, s) with a < b, and the edges are checked with w
    outer and s inner, so that edge is checked before act[b] is composed,
    and it makes act[b] = act[a] ∘ act[s] a product of checked permutations,
    by induction on b.  So a malformed element fails an edge, as a
    GroupError, before anything reads it.  The edge (0, s) into a generator
    holds whatever act[s] is, which is why the generators need `perm_of`;
    the type pass is needed because (1, 0) == (True, False) == (1.0, 0.0).
    """

    group: FinGroup
    space_size: int
    act: tuple[Perm, ...]  # one permutation per group element

    def __post_init__(self) -> None:
        act, group, n = self.act, self.group, self.space_size
        if len(act) != group.order:
            raise GroupError("need one permutation per group element")
        for p in act:  # n entries, each exactly an int: one C call counts them
            if not len(p) == n == operator.countOf(map(type, p), int):
                perm_of(p, n)  # raises for this element
        for i in (group.identity, *group.gens):
            perm_of(act[i], n)
        if act[group.identity] != identity_perm(n):
            raise GroupError("identity must act trivially")
        bys = [right_by(act[s]) for s in group.gens]
        for w, p in enumerate(act):
            for s, by, col in zip(group.gens, bys, group.right):
                if by(p) != act[col[w]]:
                    raise GroupError(f"action axiom fails at ({w},{s})")


def orbit_eqrel(a: GroupAction) -> FinEqrel:
    """Orbit equivalence relation of an action: that of its generators."""
    return orbit_eqrel_of_perms(a.space_size, [a.act[s] for s in a.group.gens])


def orbit_pairs(gens: Iterable[Perm]) -> Iterable[tuple[int, int]]:
    """The pairs (x, g(x)) of every permutation: they span its orbit relation."""
    return itertools.chain.from_iterable(map(enumerate, gens))


def orbit_eqrel_of_perms(n: int, gens: Sequence[Perm]) -> FinEqrel:
    """Orbit relation of the group generated by permutations (no closure needed)."""
    return from_pairs(n, orbit_pairs(gens))


def is_automorphism(e: FinEqrel, t: Perm) -> bool:
    """x E y iff t(x) E t(y): each E-class maps into one class, and distinct
    classes into distinct classes."""
    images = [{e.class_index(t[x]) for x in c} for c in e.classes]
    return all(len(i) == 1 for i in images) and len(set().union(*images)) == len(images)


def extend_by_group(e: FinEqrel, gens: Sequence[Sequence[int]]) -> tuple[FinEqrel, bool]:
    """E^{∨G} = E joined with the orbit relation of gens; verdict = normality witnessed.

    The verdict is true iff every generator is an automorphism of E, in which
    case the generators witness E ◁ E^{∨G}.
    """
    perms = [perm_of(g, e.n) for g in gens]
    f = join_pairs(e, orbit_pairs(perms))
    witnessed = all(is_automorphism(e, p) for p in perms)
    return f, witnessed
