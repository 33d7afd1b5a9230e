"""Exact rational interval subsets of [0,1) and piecewise translations.

The measure algebra is simulated by finite unions of half-open rational
intervals; maps between them are piecewise translations, which are
automatically measure-preserving.  All endpoints are rationals and all
measures are exact.

Inside, every set and map carries a positive int denominator ``den`` and
stores its endpoints (and a map's offsets) as ints on the grid (1/den)Z:
[a/den, b/den) is kept as (a, b).  Merges, comparisons, measures and the
range, overlap and disjointness checks all run on these ints.  ``Fraction``
appears only at the public boundary -- ``intervals``, ``pieces`` and
``measure`` build exactly the Fractions the rational form has -- and in the
raw values the constructors accept.  ``intervals`` and ``pieces`` are built
once per object, on the first read, with one Fraction per distinct value,
and every later read returns the same tuple; a caller that already holds
the endpoint Fractions, as a tower stage does, hands them in instead.

The tower is built without this algebra, as a slot permutation (see
`cberlab.tower`).  Sets and maps are its exact boundary form, and
composition, restriction and agreement are criterion 9's cocycle check.  The
rest -- union, intersect, apply_set and partial_bijection_between -- is the
independent oracle that the tests recheck the slot tower against.

A binary operation first rescales both operands to the lcm of their
denominators.  No grid is fixed per tower: each object's denominator is the
lcm of those of its inputs, and in a tower over a box hierarchy every set
and map of stage n lands on the grid of that stage's tile size, each size a
multiple of the one before.  Two operands of one stage therefore share their
denominator and the rescale does nothing; across stages it multiplies the
coarser operand's ints by one factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

Iv = tuple[Fraction, Fraction]


class IntervalError(ValueError):
    """Raised on malformed interval data."""


def _normalize(den: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sorted, merged intervals on the grid 1/den; raises IntervalError when an
    interval leaves [0,1) or two intervals overlap.  Empty intervals drop."""
    out: list[tuple[int, int]] = []
    end = -1
    for a, b in sorted(pairs):
        if a == b:
            continue
        if not 0 <= a < b <= den:
            raise IntervalError(
                f"interval [{Fraction(a, den)},{Fraction(b, den)}) outside [0,1)"
            )
        if a < end:
            raise IntervalError(f"overlapping intervals at {Fraction(a, den)}")
        if a == end:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
        end = b
    return tuple(out)


def _grid(values: Iterable[Fraction]) -> int:
    """Least common denominator of some Fractions (1 for none)."""
    return math.lcm(1, *{v.denominator for v in values})


def _on(den: int, x: Fraction) -> int:
    """x as an int on the grid 1/den; den must be a multiple of x's denominator."""
    return x.numerator * (den // x.denominator)


def _fractions(den: int, items: tuple[tuple[int, ...], ...]) -> dict[int, Fraction]:
    """One Fraction v/den for each distinct int v in items: neighbouring
    intervals share an endpoint, and a map's pieces share a few offsets."""
    return {v: Fraction(v, den) for v in {v for it in items for v in it}}


def _scale(items: tuple[tuple[int, ...], ...], k: int) -> tuple[tuple[int, ...], ...]:
    return items if k == 1 else tuple(tuple(v * k for v in it) for it in items)


def _overlaps(x: tuple, y: tuple):
    """(lo, hi, u, v) for every item u of x and v of y whose spans [u0, u1)
    and [v0, v1) meet in [lo, hi).  Both are sorted with disjoint spans, so
    this is a linear merge."""
    i = j = 0
    while i < len(x) and j < len(y):
        u, v = x[i], y[j]
        lo, hi = max(u[0], v[0]), min(u[1], v[1])
        if lo < hi:
            yield lo, hi, u, v
        if u[1] < v[1]:
            i += 1
        else:
            j += 1


def _common(x, y) -> tuple[int, tuple, tuple]:
    """Both operands' int items rescaled to the lcm of their denominators."""
    if x._den == y._den:
        return x._den, x._items, y._items
    den = math.lcm(x._den, y._den)
    return den, _scale(x._items, den // x._den), _scale(y._items, den // y._den)


class _OnGrid:
    """Immutable int items on the grid 1/_den, compared as the rational
    objects they stand for: equal when equal after rescaling to a common
    denominator.  `_view` memoizes the public Fraction form (``intervals``
    or ``pieces``): it is built on the first read, or handed to `_new` by a
    caller that already holds those Fractions, and returned on every later
    read.  It plays no part in equality or hashing."""

    __slots__ = ("_den", "_items", "_view")

    @classmethod
    def _new(cls, den: int, items: tuple, view: tuple | None = None):
        self = object.__new__(cls)
        _set_den(self, den)
        _set_items(self, items)
        _set_view(self, view)
        return self

    def _fill(self, den: int, items: tuple, view: tuple | None = None) -> None:
        _set_den(self, den)
        _set_items(self, items)
        _set_view(self, view)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        _, x, y = _common(self, other)
        return x == y

    def __hash__(self) -> int:
        g = math.gcd(self._den, *(v for it in self._items for v in it))
        reduced = tuple(tuple(v // g for v in it) for it in self._items)
        return hash((type(self).__name__, self._den // g, reduced))


# The slots' own descriptors: they write past the __setattr__ that makes the
# objects immutable, in one C call each, with no attribute-name lookup.
_set_den, _set_items, _set_view = (_OnGrid._den.__set__, _OnGrid._items.__set__,
                                   _OnGrid._view.__set__)


class IntervalSet(_OnGrid):
    """A finite union of half-open intervals in [0,1); items are sorted,
    disjoint and non-adjacent (a, b) int pairs."""

    __slots__ = ()

    def __init__(self, raw: Iterable[tuple] = ()):
        pairs = [(Fraction(a), Fraction(b)) for a, b in raw]
        den = _grid(v for p in pairs for v in p)
        self._fill(den, _normalize(den, ((_on(den, a), _on(den, b)) for a, b in pairs)))

    @classmethod
    def _from_ints(cls, den: int, pairs: Iterable[tuple[int, int]]) -> "IntervalSet":
        return cls._new(den, _normalize(den, pairs))

    @property
    def intervals(self) -> tuple[Iv, ...]:
        if self._view is None:
            f = _fractions(self._den, self._items)
            _set_view(self, tuple((f[a], f[b]) for a, b in self._items))
        return self._view

    def _length(self) -> int:
        return sum(b - a for a, b in self._items)

    @property
    def measure(self) -> Fraction:
        return Fraction(self._length(), self._den)

    def __repr__(self) -> str:
        return f"IntervalSet(intervals={self.intervals!r})"

    def __bool__(self) -> bool:
        return bool(self._items)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        den, x, y = _common(self, other)
        out: list[tuple[int, int]] = []
        for a, b in sorted(x + y):  # two sorted runs: a linear merge
            if out and a <= out[-1][1]:
                if b > out[-1][1]:
                    out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
        return IntervalSet._from_ints(den, out)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        den, x, y = _common(self, other)
        return IntervalSet._from_ints(den, ((lo, hi) for lo, hi, _, _ in _overlaps(x, y)))


def _check_spans(den: int, pieces: Iterable[tuple[int, int, int]], moved: bool) -> None:
    """Raise IntervalError at the first piece, in the given order, whose
    source (target when moved) leaves [0,1) or starts before the previous
    one ends: where `_normalize` of those spans, in that order, raises."""
    end = -1
    for a, b, o in pieces:
        if moved:
            a, b = a + o, b + o
        if not 0 <= a < b <= den:
            raise IntervalError(
                f"interval [{Fraction(a, den)},{Fraction(b, den)}) outside [0,1)"
            )
        if a < end:
            raise IntervalError(f"overlapping intervals at {Fraction(a, den)}")
        end = b


def _check_pieces(den: int, raw: Iterable[tuple[int, int, int]]) -> tuple:
    """Sorted non-empty pieces; raises IntervalError unless the sources and
    the targets are each disjoint and inside [0,1).

    Both checks walk the pieces themselves, with no (a, b) pair per piece.
    The sources are in the pieces' own sorted order.  The targets are put in
    the order of their (a + o, b + o) pairs by one sort keyed by an int:
    once the sources pass, every length b - a is in 1..den, so
    (a + o)(den + 1) + (b - a) orders the targets as those pairs do, and
    each check raises the error that `_normalize` of the sorted pairs would."""
    pieces = tuple(sorted(p for p in raw if p[0] != p[1]))
    _check_spans(den, pieces, False)
    k = den + 1
    _check_spans(den, sorted(pieces, key=lambda p: (p[0] + p[2]) * k + p[1] - p[0]), True)
    return pieces


class IntervalMap(_OnGrid):
    """A piecewise translation: pieces (src_lo, src_hi, offset), disjoint
    sources, disjoint targets.  Measure preservation is automatic."""

    __slots__ = ()

    def __init__(self, raw: Iterable[tuple]):
        triples = [(Fraction(a), Fraction(b), Fraction(o)) for a, b, o in raw]
        den = _grid(v for t in triples for v in t)
        self._fill(den, _check_pieces(den, (tuple(_on(den, v) for v in t) for t in triples)))

    @classmethod
    def _from_ints(cls, den: int, raw: Iterable[tuple[int, int, int]],
                   ends: list[Fraction] | None = None) -> "IntervalMap":
        """The checked map of the int pieces raw.  A caller that holds the
        endpoint table ends[q] = Fraction(q, den), q = 0..den, passes it to
        have the `pieces` view built now with those very endpoints, and one
        new Fraction per distinct offset."""
        pieces = _check_pieces(den, raw)
        if ends is None:
            return cls._new(den, pieces)
        offs = {o: Fraction(o, den) for o in {o for _, _, o in pieces}}
        return cls._new(den, pieces, tuple((ends[a], ends[b], offs[o]) for a, b, o in pieces))

    @property
    def pieces(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        if self._view is None:
            f = _fractions(self._den, self._items)
            view = tuple((f[a], f[b], f[o]) for a, b, o in self._items)
            _set_view(self, view)
        return self._view

    def __repr__(self) -> str:
        return f"IntervalMap(pieces={self.pieces!r})"

    def domain(self) -> IntervalSet:
        """The union of the sources.  The constructor has checked that they
        are sorted and disjoint, so one pass merges the adjacent ones, with
        one pair per run of adjacent sources, not one per piece."""
        flat: list[int] = []  # lo, hi of each run so far
        for a, b, _ in self._items:
            if flat and flat[-1] == a:
                flat[-1] = b
            else:
                flat += a, b
        return IntervalSet._new(self._den, tuple(zip(flat[::2], flat[1::2])))

    def _meet(self, s: IntervalSet) -> tuple[int, list]:
        """(lo, hi, offset) for every overlap of s with a piece's source."""
        den, ps, ivs = _common(self, s)
        return den, [(lo, hi, p[2]) for lo, hi, p, _ in _overlaps(ps, ivs)]

    def apply_set(self, s: IntervalSet) -> IntervalSet:
        den, met = self._meet(s)
        # the sources are disjoint, so s lies in the domain iff it is all met
        if sum(hi - lo for lo, hi, _ in met) * s._den != s._length() * den:
            raise IntervalError("set is not inside the domain")
        return IntervalSet._from_ints(den, ((lo + o, hi + o) for lo, hi, o in met))

    def restrict(self, s: IntervalSet) -> "IntervalMap":
        return IntervalMap._from_ints(*self._meet(s))

    def compose(self, inner: "IntervalMap") -> "IntervalMap":
        """self after inner, on the points where the composite is defined:
        inner's targets, sorted (they are disjoint), met with self's sources
        in one merge."""
        den, outer, inner_ps = _common(self, inner)
        targets = sorted((a + o, b + o, o) for a, b, o in inner_ps)
        return IntervalMap._from_ints(
            den, ((lo - o, hi - o, o + q[2]) for lo, hi, (_, _, o), q in _overlaps(targets, outer))
        )

    def agreement_with(self, other: "IntervalMap") -> IntervalSet:
        """Subset of the common domain where the two maps coincide."""
        den, x, y = _common(self, other)
        return IntervalSet._from_ints(
            den, ((lo, hi) for lo, hi, p, q in _overlaps(x, y) if p[2] == q[2])
        )


def partial_bijection_between(a: IntervalSet, b: IntervalSet) -> IntervalMap | None:
    """The unique order- and measure-preserving piecewise translation a -> b,
    or None when the measures differ (no measure-preserving map can exist)."""
    den, src, dst = _common(a, b)
    if sum(y - x for x, y in src) != sum(y - x for x, y in dst):
        return None
    pieces = []
    i = j = 0
    sa = da = None
    while i < len(src) and j < len(dst):
        lo_s = src[i][0] if sa is None else sa
        lo_d = dst[j][0] if da is None else da
        take = min(src[i][1] - lo_s, dst[j][1] - lo_d)
        pieces.append((lo_s, lo_s + take, lo_d - lo_s))
        sa, da = lo_s + take, lo_d + take
        if sa == src[i][1]:
            i, sa = i + 1, None
        if da == dst[j][1]:
            j, da = j + 1, None
    return IntervalMap._from_ints(den, pieces)
