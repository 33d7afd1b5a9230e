"""Finite equivalence relations on {0, ..., n-1} as validated partitions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence


class EqrelError(ValueError):
    """Raised when partition data or a relation precondition is invalid."""


class CheckFailed(AssertionError):
    """Raised when a verified property fails (exit 1, even under python -O)."""


def _canon(classes: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The classes as sorted tuples, ordered by least element.  Raises
    EqrelError unless every class is an iterable of int (not bool) points."""
    try:
        kinds = set(map(type, itertools.chain.from_iterable(classes)))
    except TypeError as exc:  # classes, or one class, is not iterable
        raise EqrelError(f"classes must be lists of int points: {exc}") from exc
    if kinds - {int}:
        raise EqrelError(f"points must be ints, got {sorted(t.__name__ for t in kinds - {int})}")
    out = [tuple(sorted(set(c))) for c in classes]
    out = [c for c in out if c]
    out.sort(key=lambda c: c[0])
    return tuple(out)


def _unlisted(n: int, classes: Sequence[Sequence[int]], listed: int) -> str:
    """The error for classes that list fewer than n points: the first few
    points of [0, n) no class lists, and the count of the rest.  Nothing
    here is sized by n."""
    points = set(itertools.chain.from_iterable(classes))
    first = list(itertools.islice(itertools.filterfalse(points.__contains__, range(n)), 8))
    rest = n - sum(0 <= x < n for x in points) - len(first)
    more = f" and {rest} more" if rest else ""
    return (f"points {first}{more} not covered by any class: "
            f"the classes list {listed} points for a ground set of size {n}")


@dataclass(frozen=True)
class FinEqrel:
    """An equivalence relation on {0..n-1}, stored as its partition.

    Classes are sorted tuples, ordered by least element.  The constructor
    validates that the classes partition the ground set exactly.
    """

    n: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", _canon(self.classes))
        listed = sum(map(len, self.classes))
        # Fewer listed points than n cannot cover [0, n); checked before n
        # slots are allocated.  Otherwise, once the loop below finds every
        # point in range and in one class, the listed >= n points are
        # distinct points of [0, n), so they are all of it.
        if self.n > listed:
            raise EqrelError(_unlisted(self.n, self.classes, listed))
        idx = [-1] * self.n  # class of each point; -1 until a class claims it
        for i, c in enumerate(self.classes):
            for x in c:
                if not (0 <= x < self.n):
                    raise EqrelError(f"point {x} outside ground set of size {self.n}")
                if idx[x] >= 0:
                    raise EqrelError(f"point {x} appears in two classes")
                idx[x] = i
        if len(idx) != self.n:  # n < 0 leaves idx shorter than n
            raise EqrelError("points [] not covered by any class")
        object.__setattr__(self, "_cls_of", tuple(idx))

    # --- queries ---------------------------------------------------------

    def class_index(self, x: int) -> int:
        return self._cls_of[x]  # type: ignore[attr-defined]

    def class_of(self, x: int) -> tuple[int, ...]:
        return self.classes[self.class_index(x)]

    def related(self, x: int, y: int) -> bool:
        return self.class_index(x) == self.class_index(y)

    def refines(self, other: "FinEqrel") -> bool:
        """True iff self is a subrelation of other (every class inside one class)."""
        if self.n != other.n:
            return False
        # each point's other-class must be that of its self-class's least point
        other_of = other._cls_of  # type: ignore[attr-defined]
        rep = [other_of[c[0]] for c in self.classes]
        return tuple(map(rep.__getitem__, self._cls_of)) == other_of  # type: ignore[attr-defined]

    # --- operations ------------------------------------------------------

    def index_in(self, other: "FinEqrel") -> dict[tuple[int, ...], int]:
        """Number of self-classes inside each class of the coarser relation."""
        if not self.refines(other):
            raise EqrelError("index_in: relation is not a subrelation")
        counts: dict[tuple[int, ...], int] = {c: 0 for c in other.classes}
        for c in self.classes:
            counts[other.class_of(c[0])] += 1
        return counts


def build_partition(n: int, classes: Sequence[Sequence[int]]) -> FinEqrel:
    """Validate and build a FinEqrel from raw class data; the constructor
    canonicalizes it."""
    return FinEqrel(n, classes)


def delta(n: int) -> FinEqrel:
    """The identity relation on n points."""
    return FinEqrel(n, tuple((i,) for i in range(n)))


def full(n: int) -> FinEqrel:
    """The indiscrete relation on n points."""
    return FinEqrel(n, (tuple(range(n)),))


def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> FinEqrel:
    """Smallest equivalence relation containing the given pairs (union-find).

    Each find runs inline, with path halving (every point on the path is
    pointed at its grandparent), so a pair costs no Python call.  The
    chained assignment `parent[x] = x = parent[px]` writes parent[x] before
    it moves x on.
    """
    parent = list(range(n))
    for x, y in pairs:
        while (px := parent[x]) != x:
            parent[x] = x = parent[px]
        while (py := parent[y]) != y:
            parent[y] = y = parent[py]
        if x != y:
            parent[y] = x
    groups: dict[int, list[int]] = {}
    for x in range(n):
        r = x
        while (pr := parent[r]) != r:
            parent[r] = r = parent[pr]
        groups.setdefault(r, []).append(x)
    return FinEqrel(n, tuple(tuple(g) for g in groups.values()))


def join_pairs(e: FinEqrel, pairs: Iterable[tuple[int, int]]) -> FinEqrel:
    """E joined with the relation the pairs span, in one union-find: E's
    classes are connected by the pairs from each first point to the others."""
    spanning = ((c[0], x) for c in e.classes for x in c[1:])
    return from_pairs(e.n, itertools.chain(spanning, pairs))


def join(e: FinEqrel, f: FinEqrel) -> FinEqrel:
    """Smallest common coarsening of two relations."""
    if e.n != f.n:
        raise EqrelError("join: mismatched ground sets")
    return join_pairs(e, ((c[0], x) for c in f.classes for x in c[1:]))
