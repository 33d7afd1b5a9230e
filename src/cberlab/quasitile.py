"""Quasi-tilings of amenable-group windows by epsilon-disjoint translates.

All arithmetic is exact: ratios are fractions, and each coverage band is one
Fraction comparison (quasi_tile admits only eps >= 1/3, where one shape is
needed and the band exponents are integers).  Shapes and windows are finite
subsets of Z^d or Z/n.  Both share one bitset path: `_bits` picks the
encoding (a linear shift in a Z^d box, a rotation in Z/n), and the kernels
run on int masks as whole-mask algebra:

- T(A, B) = {c in A : B + c <= A} is the erosion A & AND_{v in B} (A - v),
  and |BA| is the popcount of the dilation OR_{v in B} (A + v).  Both run
  over B's offsets as maximal runs start + [0, L), with about log2 L + 2
  shifts per run by doubling, in one kernel (`_sweep`).  Both are exact
  because the Z^d box holds A + B (no c + v with c in A leaves it or
  aliases) and Z/n rotates (-v is the rotation by n - v).
- `_Window.invariance` reads |T| and |BA| as popcounts.
- greedy_disjoint_translates walks the set bits of T in ascending order.
  Bit order is the canonical order: row-major positions order a Z^d box
  lexicographically, and Z/n positions are its integers.  The walk holds U
  only in a span(B)-bit window that slides with the center
  (`_Window.walk`), one loop for Z^d and Z/n.  A center within `low`
  positions of the last accepted one is rejected by one comparison: B + c
  lies in U, so B + c + d adds at most |(B + d) \\ B| <= R d points, R the
  number of B's runs, since a run shifted by d leaves itself in at most d
  positions; low = floor((need - 1) / R).  That is exact for a segment, a
  Z/n interval and a box, and a smaller low changes no output.
- Its maximality recheck counts at every position at once, bit-sliced
  (slice j holds bit j of |(B + c) \\ U| for every c), as a sum over B's
  runs (start, L) of the sliding count W_L of the free mask ~U, shifted by
  -start.  W_L is built by doubling over L's binary digits, O(log^2 L)
  whole-mask operations, once per distinct L.  The counts are compared
  with the acceptance threshold slice by slice.  The family is maximal iff
  no rejected center, T & ~accepted, reaches it.
- A set that fills its bounding box, |s| = its volume, is that box, and
  its mask is a closed form: a product of geometric series in Z^d, one
  run of ones in Z/n.  `_bits` reads each coordinate of A once, for the
  encoding's box and for that test.  Any other mask is built by setting
  one byte per position and converting the bytes once, so every mask is
  linear in the window.  A Z^d point set's positions come from whole
  coordinate columns, one C-level map per coordinate; a Z/n set is
  range-checked by its least and greatest element.
- One encoding per window: `_Window` builds the encoding, A's mask, B's
  runs and T once per (A, B), and the invariance count and the greedy
  walk both read it.  quasi_tile builds the window itself and reads its
  (B, 1/3)-invariance before the walk, so a window that fails there costs
  no walk; covering_family takes the invariance from the greedy family's
  window.  Neither encodes A twice.
- The greedy family's covered mask U is the dilation by B of the mask of
  the accepted positions, from those positions alone, none of the walk's
  window words, shifts or wrap reads.  Its popcount must equal the sum of
  the walk's counts |(B + c) \\ U|, which telescope to |U| when each is
  right (`_Window.cover`).  quasi_tile's trimmed prefix is checked the same
  way.
- The centers, the covered set and the residue are decoded from set bits,
  streamed, so no list of their positions is held beside the elements.

check_tiling is the independent recheck, on byte arrays instead of int
masks, and it shares no code with the path above: one byte per point of
the box that holds A and every translate (the n elements of Z/n), B as its
runs along one axis, and per center and run one slice that is tested
against A, counted for fresh points and marked used.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import AbstractSet, Iterable, Iterator, Sequence

from .eqrel import CheckFailed


class TileError(ValueError):
    """Raised when tiling inputs or preconditions are invalid."""


# --- groups -----------------------------------------------------------------


class ZdGroup:
    """Z^d with tuple elements and lexicographic canonical order."""

    def __init__(self, d: int):
        if d < 1:
            raise TileError("dimension must be positive")
        self.d = d

    def op(self, a, b):
        return tuple(map(operator.add, a, b))

    @property
    def identity(self):
        return (0,) * self.d

    def box(self, side: int) -> frozenset:
        return frozenset(itertools.product(range(side), repeat=self.d))

    def segment(self, length: int) -> frozenset:
        return frozenset((x,) + (0,) * (self.d - 1) for x in range(length))


class CyclicGroup:
    """Z/n with integer elements 0..n-1."""

    def __init__(self, n: int):
        if n < 1:
            raise TileError("order must be positive")
        self.n = n

    def op(self, a, b):
        return (a + b) % self.n

    @property
    def identity(self):
        return 0


# --- bitset encodings -------------------------------------------------------
#
# Each encoding maps the group elements it needs to bit positions so that
# pos(c + v) = pos(c) + raw(v) (mod n in Z/n): a translate is one shift of a
# whole mask.


class _ZdBits:
    """Subsets of Z^d as integer bitmasks under a row-major position encoding
    of the box with corners los and his, so a translate is a single shift and
    set algebra is int arithmetic.  The caller picks a box that holds A, B
    and A + B, and raw is injective on it, so every mask and every translate
    of a point of A by B is exact.  Position p is the mixed-radix number
    whose digits are the coordinates minus the box's corner; `zero` is the
    position of the origin, which need not lie in the box.  Digit order is
    coordinate order, so bit order is the lexicographic order of the points
    of the box.  Nothing wraps: the box holds A + B."""

    wrap = None

    def __init__(self, los: Sequence[int], his: Sequence[int]):
        self.los, self.his = list(los), list(his)
        self.strides = [1] * len(los)
        for j in range(len(los) - 2, -1, -1):
            self.strides[j] = self.strides[j + 1] * (self.his[j + 1] - self.los[j + 1] + 1)
        self.zero = -sum(lo * s for lo, s in zip(self.los, self.strides))
        self.size = (self.his[0] - self.los[0] + 1) * self.strides[0]

    def raw(self, v) -> int:
        return sum(map(operator.mul, v, self.strides))

    def mask(self, s: AbstractSet, extents: tuple[list[int], list[int]] | None = None) -> int:
        """The mask of the points of s.  extents are s's least and greatest
        coordinates (los, his), as `_extents` reads them; they are read here
        unless the caller passes them.

        If |s| = prod_j (hi_j - lo_j + 1), s is its bounding box: s lies
        inside that box and, being a set, has as many points as it.  Its
        mask is then the closed form `box` of the extents, shifted to the
        position of lo, with no pass over the points.  Any other s takes the
        column path: the position zero + c_{d-1} + sum_{j < d-1} s_j c_j is
        built from whole columns, c_j = map(itemgetter(j), s), one C-level
        map per coordinate and none per point (the last stride is 1).  s is
        iterated once per coordinate, so it must be a set: one that yields
        its points in the same order on every pass."""
        los, his = extents or _extents(s, len(self.strides))
        sides = [hi - lo + 1 for lo, hi in zip(los, his)]
        if len(s) == math.prod(sides):
            return self.box(sides) << self.zero + self.raw(los)
        *head, last = map(operator.itemgetter, range(len(self.strides)))
        pos = map(self.zero.__add__, map(last, s))
        for coord, stride in zip(head, self.strides):
            pos = map(operator.add, pos, map(stride.__mul__, map(coord, s)))
        return _mask_at(pos, self.size)

    def box(self, extents: Sequence[int], step: int = 1) -> int:
        """The mask of the grid {step * i : 0 <= i_j < e_j} at the origin, in
        an encoding with corner 0 that holds it (step 1: the box of the
        extents): one product over the coordinates j of the geometric series
        sum_{i < e_j} 2^(i step s_j).  Its set bits ascend in row-major order."""
        m = 1
        for s, e in zip(self.strides, extents):
            m *= ((1 << e * step * s) - 1) // ((1 << step * s) - 1)
        return m

    def shifted(self, base_mask: int, r: int) -> int:
        """The mask translated by the element of raw offset r."""
        return base_mask << r if r >= 0 else base_mask >> -r

    def elements(self, m: int) -> Iterator[tuple]:
        """The points at the set bits of m, ascending, streamed.  The box's
        points in row-major order are its positions in order, so the bits
        select them from the product of the coordinate ranges.  In Z the
        range itself is selected, and only selected points become tuples."""
        flags = _flags(m)
        if len(self.los) == 1:
            return zip(itertools.compress(range(self.los[0], self.his[0] + 1), flags))
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.los, self.his)]
        return itertools.compress(itertools.product(*ranges), flags)


class _CyclicBits:
    """Subsets of Z/n as n-bit masks over 0..n-1; a translate is a rotation,
    and bit order is the integer order of Z/n, whose positions wrap at n."""

    zero = 0

    def __init__(self, group: CyclicGroup):
        self.n = self.size = self.wrap = group.n
        self.full = (1 << group.n) - 1

    def raw(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise TileError(f"{v!r} is not an element 0..{self.n - 1} of Z/{self.n}")
        return v

    def mask(self, s: AbstractSet) -> int:
        """The mask of the elements of s, after one range check of its least
        and greatest element; s is iterated three times, so it must be a set.
        If hi - lo + 1 = |s|, the set s of integers in [lo, hi] has as many
        elements as that interval, so it is the interval, and its mask is
        the closed form ((1 << |s|) - 1) << lo."""
        lo, hi = min(s, default=0), max(s, default=0)
        if lo < 0 or hi >= self.n:
            self.raw(lo if lo < 0 else hi)  # raises TileError, naming the element
        if hi - lo + 1 == len(s):
            return ((1 << len(s)) - 1) << lo
        return _mask_at(s, self.n)

    def shifted(self, base_mask: int, r: int) -> int:
        """The mask rotated by r; -v is the rotation by n - v."""
        r %= self.n
        return ((base_mask << r) | (base_mask >> (self.n - r))) & self.full

    def elements(self, m: int) -> Iterator[int]:
        """The elements at the set bits of m, ascending, streamed."""
        return itertools.compress(range(self.n), _flags(m))


def _extents(s: AbstractSet, d: int) -> tuple[list[int], list[int]]:
    """The least and greatest coordinate of the points of s on each of the d
    axes, from one column list per axis: each coordinate is read once.  An
    empty s reads lo = hi = 0, as `_CyclicBits.mask` does, so its mask
    takes the column path."""
    los, his = [], []
    for coord in map(operator.itemgetter, range(d)):
        col = list(map(coord, s))
        los.append(min(col, default=0))
        his.append(max(col, default=0))
    return los, his


def _bits(group: ZdGroup | CyclicGroup, a: frozenset, b: frozenset):
    """The bitset encoding of the group, covering A, B and A + B, and A's
    mask in it: the one place an encoding is sized from point sets.  In Z^d
    A's extents, read once for the box, also give its mask when A fills
    them (`_ZdBits.mask`)."""
    if isinstance(group, ZdGroup):
        if set(map(len, a)) | set(map(len, b)) != {group.d}:
            raise TileError(f"points of A and B must have {group.d} coordinates")
        (alo, ahi), (blo, bhi) = _extents(a, group.d), _extents(b, group.d)
        bits = _ZdBits(list(map(min, alo, blo, map(operator.add, alo, blo))),
                       list(map(max, ahi, bhi, map(operator.add, ahi, bhi))))
        return bits, bits.mask(a, (alo, ahi))
    if isinstance(group, CyclicGroup):
        bits = _CyclicBits(group)
        return bits, bits.mask(a)
    raise TileError(f"no bitset encoding for {type(group).__name__}")


_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _mask_at(positions: Iterable[int], size: int) -> int:
    """The int with the bits at the positions set, 0 <= position < size.
    One byte per position is set and the bytes are converted once, as
    binary digits: linear in size.  OR-ing 1 << p into a window-sized int
    would copy the whole int once per position.  The positions are
    streamed, never held in a list."""
    buf = bytearray(size)
    for p in positions:
        buf[p] = 1
    return int(buf.translate(_TO_DIGITS)[::-1], 2)


def _flags(m: int) -> bytes:
    """One byte per bit of m, least significant first: 1 where it is set."""
    return bin(m)[:1:-1].encode().translate(_TO_FLAGS)


def _set_bits(m: int) -> Iterator[int]:
    """Positions of the set bits of m, ascending, streamed."""
    return itertools.compress(itertools.count(), _flags(m))


# --- invariance -------------------------------------------------------------


def _runs(offs: Iterable[int]) -> list[tuple[int, int]]:
    """The offsets, sorted, as maximal runs (start, L) of consecutive ints:
    start + [0, L).  A segment is one run, a box at most one per row."""
    runs: list[tuple[int, int]] = []
    for r in sorted(offs):
        if runs and r == sum(runs[-1]):
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((r, 1))
    return runs


def _sweep(bits, m: int, runs: Sequence[tuple[int, int]], fold, sign: int) -> int:
    """The fold of shifted(m, sign*r) over B's offsets r, as runs start +
    [0, L): OR at sign 1 dilates, AND at sign -1 erodes.  Per run, doubling
    d = fold(d, shifted(d, sign*k)) for k = 1, 2, 4, ... while 2k <= L folds
    the shifts by [0, k); one by L - k < k extends that to [0, L), one by the
    start places it: about log2 L + 2 shifts per run, not L (van den Boomgaard
    and van Balen, CVGIP 1992).  B is not empty, so neither are its runs.
    Exact: each position c + start + j (j < L; c a bit of m, in A) is c + v,
    v in B, inside the Z^d box, which holds A + B; Z/n rotations compose."""
    def run(start: int, length: int) -> int:
        d, k = m, 1
        while 2 * k <= length:
            d = fold(d, bits.shifted(d, sign * k))
            k *= 2
        if length > k:
            d = fold(d, bits.shifted(d, sign * (length - k)))
        return bits.shifted(d, sign * start)

    return functools.reduce(fold, itertools.starmap(run, runs))


def _dilate(bits, m: int, runs: Sequence[tuple[int, int]]) -> int:
    """OR_{v in B} (m + v), by `_sweep`."""
    return _sweep(bits, m, runs, operator.or_, 1)


def _erode(bits, ma: int, runs: Sequence[tuple[int, int]]) -> int:
    """T(A, B) = A & AND_{v in B} (A - v): bit c of A - v is bit c + v of A."""
    return ma & _sweep(bits, ma, runs, operator.and_, -1)


class _Window:
    """One window A and shape B in one encoding: the bitset encoding, A's
    mask, B as the maximal runs (start, L) of its raw offsets, |B| and the
    erosion T(A, B).  The invariance count and the greedy walk both read
    this one build."""

    def __init__(self, bits, mask: int, runs: list[tuple[int, int]]):
        self.bits, self.mask, self.runs = bits, mask, runs
        self.shape_points = sum(length for _, length in runs)
        self.interior = _erode(bits, mask, runs)
        self.points = mask.bit_count()

    @classmethod
    def of(cls, group: ZdGroup | CyclicGroup, a: frozenset, b: frozenset) -> "_Window":
        """The window of the point sets A and B, in `_bits`'s encoding."""
        bits, ma = _bits(group, a, b)
        return cls(bits, ma, _runs(map(bits.raw, b)))

    def invariance(self, eps: Fraction) -> tuple[bool, int]:
        """(B, eps)-invariance of A: (|A \\ T(A, B)| <= eps|A|, |T|), |T| the
        popcount of the erosion.  When invariant, the growth consequence
        |BA| <= (1 + eps|B|)|A| is checked as a sanity check of the
        combinatorics; |BA| is the popcount of the dilation OR_{v in B} (A + v),
        exact for the same reason as the erosion (`_sweep`)."""
        t, na = self.interior.bit_count(), self.points
        ok = na - t <= eps * na
        if ok:
            mba = _dilate(self.bits, self.mask, self.runs)
            if mba.bit_count() > (1 + eps * self.shape_points) * na:
                raise CheckFailed("growth bound violated")
        return ok, t

    def walk(self, need: int) -> tuple[list[int], list[int]]:
        """The greedy pass: for the centers c at the set bits p of T, in
        order, accept c and add B + c to U when k = |(B + c) \\ U| >= need.
        Returns the accepted positions and their counts k.

        B + c lies in the w = span(B) positions from p + lo, lo the first
        run's start, where it is the w-bit `tile`: the sum over the runs of
        ((1 << L) - 1) << (start - lo).  `near` holds U's bits there.
        Centers ascend and each writes only its own window, so U at or past
        the window is what earlier centers wrote into it: moving on is one
        right shift of near.  In Z^d nothing wraps, since the box holds
        A + B.  In Z/n the window's positions are unreduced, lo >= 0, and
        those from n + lo on are the positions lo.. again, mod n; below lo,
        every position has one name.  The window reaches n + lo iff p + w > n.
        Only centers with p < w wrote positions lo..lo + w - 1, and `head`
        keeps their bits there, so that read ORs in head, shifted up by
        n - p.  That read is the one step particular to Z/n.

        A center that the last acceptance rules out is rejected by one
        comparison, with no call, shift or popcount.  Let c be the last
        accepted center, at position `last`, and c' = c + delta a later
        one.  U contains B + c, so |(B + c') \\ U| <= |(B + delta) \\ B| in
        positions: exact in Z^d, where the box keeps positions injective, an
        upper bound in Z/n, where reduction mod n can only merge them.  Each
        of the R runs, shifted by delta, leaves itself in at most
        min(delta, L) positions, so that count is at most R delta, below
        need for every delta <= low = floor((need - 1) / R).  low is the
        exact bound for a segment or a Z/n interval (need - 1), a k-box in
        Z^2 (ceil(need / k) - 1) and a Z^2 segment along coordinate 0 (0).
        Where it is smaller, more centers reach the exact count, which
        accepts the same ones with the same counts.  Before the first
        acceptance, last = -w rules nothing out: low <= (|B| - 1) / R < w."""
        runs, bits = self.runs, self.bits
        lo = runs[0][0]
        w = sum(runs[-1]) - lo
        tile = sum(((1 << length) - 1) << (start - lo) for start, length in runs)
        n = bits.wrap
        edge = bits.size if n is None else n - w  # the last center whose window does not wrap
        low = (need - 1) // len(runs)
        near = head = at = 0
        last = -w
        accepted, counts = [], []
        for p in _set_bits(self.interior):
            if p - last <= low:
                continue
            near >>= p - at
            at = p
            seen = near if p <= edge else near | head << (n - p)
            if (k := (tile & ~seen).bit_count()) >= need:
                near |= tile
                if p < w:
                    head |= tile << p
                last = p
                accepted.append(p)
                counts.append(k)
        return accepted, counts

    def cover(self, chosen: int, counts: Sequence[int]) -> int:
        """The mask of U, the union of B + c over the centers c at the set
        bits of `chosen`: the dilation of `chosen` by B's runs (`_dilate`).
        counts are the walk's |(B + c) \\ U| at each acceptance: they
        telescope to |U| when each one is right, so CheckFailed unless U's
        popcount is their sum."""
        u = _dilate(self.bits, chosen, self.runs)
        if u.bit_count() != sum(counts):
            raise CheckFailed("witness counts disagree with the translate union")
        return u


# --- greedy epsilon-disjoint families --------------------------------------


@dataclass
class DisjointFamily:
    centers: list  # canonical order of acceptance
    witnesses: list[int]  # |Bc \ U| at acceptance time
    window: _Window = field(repr=False, compare=False)  # the encoding the family was built on
    positions: list[int] = field(repr=False, compare=False)  # the centers' bit positions in it
    covered_mask: int = field(repr=False)  # U, the covered positions, as one mask

    @functools.cached_property
    def covered(self) -> frozenset:
        """U as elements, decoded on first read: quasi_tile needs only its
        popcount."""
        return frozenset(self.window.bits.elements(self.covered_mask))


def _add_sliced(x: list[int], y: list[int]) -> list[int]:
    """x + y for bit-sliced counts (slice j holds bit j of the count at every
    position): a ripple-carry add, slice by slice, that stops once y and the
    carry are spent."""
    if len(x) < len(y):
        x, y = y, x
    out, carry = [], 0
    for j, a in enumerate(x):
        if j >= len(y) and not carry:
            out.extend(x[j:])
            return out
        b = y[j] if j < len(y) else 0
        t = a ^ b
        out.append(t ^ carry)
        carry = (a & b) | (carry & t)
    if carry:
        out.append(carry)
    return out


def _window_counts(bits, free: int, length: int) -> list[int]:
    """W_L bit-sliced, L = length: W_L(p) counts the set bits of free in the
    positions p + [0, L).  Doubling over L's binary digits from the top:
    W_1 = free, W_2k(p) = W_k(p) + W_k(p + k) and W_k+1(p) = W_k(p) +
    W_1(p + k), each a ripple-carry add after shifting every slice of the
    second term by -k.  W_k has about log2 k slices, so W_L costs
    O(log^2 L) whole-mask operations."""
    w, k = [free], 1
    for digit in bin(length)[3:]:
        w = _add_sliced(w, [bits.shifted(x, -k) for x in w])
        k *= 2
        if digit == "1":
            w = _add_sliced(w, [bits.shifted(free, -k)])
            k += 1
    return w


def _check_maximal(bits, runs: Sequence[tuple[int, int]], covered: int, rejected: int,
                   need: int) -> None:
    """Raise CheckFailed if a rejected center c still has |(B + c) \\ U| >= need.

    The count is taken at every position at once, bit-sliced: slice j holds
    bit j of the count at every position.  With free = ~U and W_L(p) the
    number of free positions in p + [0, L) (`_window_counts`), |(B + c) \\ U|
    is the sum over B's runs (start, L) of W_L(c + start): the runs
    partition B's offsets.  So each run adds W_L shifted by -start, and runs
    of equal length share one W_L; a segment costs O(log^2 |B|) whole-mask
    operations, not |B| shifts.  The count is exact at every rejected c:
    each position it reads, c + start + j with j < L, is c + v for a v in
    B, in A since c is in T(A, B), so inside the Z^d box, where no shift
    drops or aliases it; Z/n rotations compose.  count >= need is then
    decided slice by slice from the top, over the rejected positions only:
    `eq` keeps the positions whose count agrees with need on the slices
    read so far, and `ge` those already above it."""
    if not rejected:
        return
    free = ((1 << bits.size) - 1) ^ covered
    windows: dict[int, list[int]] = {}
    slices: list[int] = []
    for start, length in runs:
        if length not in windows:
            windows[length] = _window_counts(bits, free, length)
        slices = _add_sliced(slices, [bits.shifted(x, -start) for x in windows[length]])
    ge, eq = 0, rejected
    for j in reversed(range(max(len(slices), need.bit_length()))):
        x = slices[j] if j < len(slices) else 0
        if need >> j & 1:
            eq &= x
        else:
            ge |= eq & x
            eq &= ~x
    if ge | eq:
        raise CheckFailed("greedy family is not maximal")


def greedy_disjoint_translates(
    group: ZdGroup | CyclicGroup, a: frozenset, b: frozenset, eps: Fraction
) -> DisjointFamily:
    """Maximal eps-disjoint family of B-translates inside A, canonical order.

    A center c in T(A,B) is accepted when the new part Bc \\ U keeps at least
    (1 - eps)|B| points.  The centers are the set bits of the erosion mask,
    walked in ascending bit order, which is the canonical order: the
    lexicographic order in a Z^d box, the integer order in Z/n.  The walk
    (`_Window.walk`) reads U through a sliding span(B)-bit window and
    returns the accepted positions and counts.  U is then dilated from
    those positions alone, and its popcount must be the sum of the counts
    (`_Window.cover`); every rejected center is rechecked against it by
    _check_maximal.  Centers and covered points are decoded from the set
    bits of their masks.
    """
    if not b:
        raise TileError("empty tile")
    return _greedy(_Window.of(group, a, b), eps)


def _greedy(win: _Window, eps: Fraction) -> DisjointFamily:
    """greedy_disjoint_translates on a window already built, so that
    quasi_tile can read the window's invariance before the walk."""
    need = math.ceil((1 - eps) * win.shape_points)  # int counts: k >= need iff k >= (1-eps)|B|
    bits = win.bits
    accepted, witnesses = win.walk(need)
    chosen = _mask_at(accepted, bits.size)
    covered = win.cover(chosen, witnesses)
    _check_maximal(bits, win.runs, covered, win.interior ^ chosen, need)
    return DisjointFamily(list(bits.elements(chosen)), witnesses, win, accepted, covered)


def covering_family(
    group: ZdGroup | CyclicGroup, a: frozenset, b: frozenset, eps: Fraction, delta: Fraction
) -> DisjointFamily:
    """Greedy family plus the covering bound for (B, delta)-invariant windows:
    a maximal eps-disjoint family covers at least eps(1-delta)|A| points."""
    fam = greedy_disjoint_translates(group, a, b, eps)
    ok, _ = fam.window.invariance(delta)
    if not ok:
        raise TileError("window is not sufficiently invariant for the covering bound")
    if fam.covered_mask.bit_count() < eps * (1 - delta) * len(a):
        raise CheckFailed("covering bound violated")
    return fam


# --- the quasi-tiling construction -----------------------------------------


def tiling_constants(eps: Fraction) -> tuple[int, list[Fraction], list[Fraction]]:
    """Shape count k, raw budgets p_i, and invariance moduli eta_i.

    k is least with 2*eps >= (1-eps)^k; p_i = eps(1-eps)^i;
    eta_i = (1-2eps)/(2*3^(k-i)) for i < k-1.
    """
    if not 0 < eps < 1:
        raise TileError("eps must be in (0,1)")
    k = 1
    while 2 * eps < (1 - eps) ** k:
        k += 1
    p = [eps * (1 - eps) ** i for i in range(k)]
    eta = [(1 - 2 * eps) / (2 * 3 ** (k - i)) for i in range(k - 1)]
    return k, p, eta


@dataclass
class QuasiTiling:
    eps: Fraction
    shapes: list[frozenset]
    centers: list[list]  # centers[i] for shape i
    budgets_raw: list[Fraction]
    budgets_scaled: list[Fraction]
    coverage: Fraction
    ledger: list[tuple[str, Fraction, str, bool]] = field(default_factory=list)

    def log(self, key: str, value: Fraction, relation: str, ok: bool) -> None:
        self.ledger.append((key, value, relation, ok))
        if not ok:
            raise AssertionError(f"{key}: {value} fails {relation}")


def _trim(witnesses: Sequence[int], n: int, cap: Fraction) -> int:
    """The largest count whose prefix coverage sum(witnesses[:count]) / n is
    at most cap, or 0.  The prefix sums are ints that never decrease (the
    witnesses are counts), and s / n <= cap iff s <= floor(cap n), so the
    count is one bisection against that one int."""
    return bisect.bisect_right(list(itertools.accumulate(witnesses)), math.floor(cap * n))


def quasi_tile(
    group: ZdGroup | CyclicGroup,
    a: frozenset,
    chain: Sequence[frozenset],
    eps: Fraction,
) -> QuasiTiling:
    """Epsilon-quasi-tile the window A by the one-shape chain [B]: trim a
    maximal eps-disjoint family of B-translates inside A, from the end of the
    canonical order, into the coverage band and under the budget, remove the
    covered part, and assert that the coverage reaches 1 - eps.

    eps >= 1 is rejected first, since the coverage target 1 - eps is then
    not positive, and eps < 1/3 next, since no input passes there.  The paper's
    construction takes k shapes, k least with 2eps >= (1-eps)^k, so k = 1
    iff eps >= 1/3.  For k >= 2, stage k-1's residue-band-low check needs a
    residue >= (1-eps)^(k + 2^(1-k)) > 2eps(1-eps)^(3/2), because
    (1-eps)^(k-1) > 2eps by the minimality of k and 1 + 2^(1-k) <= 3/2; and
    2eps(1-eps)^(3/2) > eps, because 4(1-eps)^3 > 1 for eps < 1/3.  But
    final:coverage needs a residue <= eps.  So the stages past the first,
    with their chain-descent and eta-invariance pre-checks, 2^i-root bands
    and budget split, served only inputs that cannot pass, and collapse.

    A shape longer than the window, |B| > |A|, is rejected next, since it
    cannot pass either: a translate B + c has |B| > |A| points, so none lies
    inside A, T(A, B) is empty, the family has no member, and the coverage
    is 0 < 1 - eps.  Without the gate the erosion alone costs |B| shifts of
    a box that holds A + B.

    Stage 0's band exponents have q = 2^0 = 1, so each band is a plain
    Fraction comparison, and its residue is A, so each band and its absolute
    band compare one ratio.  The ledger keeps the keys and relation strings
    of stage i = 0 of k = 1.
    """
    if eps >= 1:
        raise TileError(f"eps must be in [1/3, 1), got {eps}: from 1 on the coverage target "
                        "1 - eps is not positive")
    if eps < Fraction(1, 3):
        raise TileError(f"eps must be in [1/3, 1), got {eps}: below 1/3 no shape chain can pass")
    if len(chain) != 1:
        raise TileError(f"need one shape for eps={eps}, got {len(chain)}")
    (b,) = chain
    if len(b) > len(a):
        raise TileError(f"shape of {len(b)} points is longer than the window of {len(a)}: "
                        "no translate fits, so the coverage is 0")
    if group.identity not in b:
        raise TileError("every shape must contain the identity")
    n = len(a)
    if n <= 3:  # |A| delta <= 1 for the invariance modulus delta = 3^-k = 1/3
        raise TileError("window too small for the chosen eps")

    # One shape: its budget is p_0 = eps, and p_0 / sum(p) = 1 normalized.
    qt = QuasiTiling(eps, [b], [], [eps], [Fraction(1)], Fraction(0))
    win = _Window.of(group, a, b)
    ok, _ = win.invariance(Fraction(1, 3))
    qt.log("stage0:residue-invariance", Fraction(1), "A_0 is (B_0, 3^-1)-invariant", ok)
    fam = _greedy(win, eps)
    greedy = fam.covered_mask.bit_count()
    qt.log("stage0:greedy-coverage", Fraction(greedy, n), ">= eps(1-3^-1)",
           greedy >= eps * Fraction(2, 3) * n)
    cap = min(eps / (1 - eps), 1 - (1 - eps) ** 2)
    # count <= budget iff count <= floor(budget), for an int count.
    count = min(_trim(fam.witnesses, n, cap), n // len(b))
    cov = win.cover(_mask_at(fam.positions[:count], win.bits.size), fam.witnesses[:count])
    covered = cov.bit_count()
    ratio = Fraction(covered, n)
    low = ratio >= eps * (1 - eps)
    qt.log("stage0:band-low", ratio, ">= max(eps(1-eps)^(1/1), 1-(1-eps)^(1-1/1))", low)
    qt.log("stage0:band-high", ratio, "<= min(eps(1-eps)^(-1/1), 1-(1-eps)^(1+1/1))", ratio <= cap)
    qt.log("stage0:absolute-band-low", ratio, ">= eps(1-eps)^(0+1/1)", low)
    qt.log("stage0:absolute-band-high", ratio, "<= eps(1-eps)^(0-1/1)", ratio <= eps / (1 - eps))
    qt.log("stage0:budget-scaled", Fraction(len(b) * count, n), "<= 1", len(b) * count <= n)
    qt.centers.append(fam.centers[:count])
    left = (win.mask & ~cov).bit_count()
    res_ratio = Fraction(left, n)
    qt.log("stage0:residue-band-low", res_ratio, ">= (1-eps)^(1+1/1)", res_ratio >= (1 - eps) ** 2)
    qt.log("stage0:residue-band-high", res_ratio, "<= (1-eps)^(1-1/1)", res_ratio <= 1)
    qt.coverage = Fraction(n - left, n)
    qt.log("final:coverage", qt.coverage, ">= 1-eps", qt.coverage >= 1 - eps)
    return qt


@dataclass
class TilingCheck:
    bad_centers: int  # centers whose translate leaves A or adds < (1-eps)|B| new points
    coverage: Fraction
    coverage_ok: bool
    budget_raw_ok: bool
    budget: tuple[int, Fraction]  # |B||C| and p|A| under the scaled budget p

    @property
    def eps_disjoint(self) -> bool:
        return self.bad_centers == 0

    @property
    def budget_scaled_ok(self) -> bool:
        return self.budget[0] <= self.budget[1]


def check_tiling(group: ZdGroup | CyclicGroup, a: frozenset, qt: QuasiTiling) -> TilingCheck:
    """Independent re-verification of a quasi-tiling from its centers C
    alone, for the one shape B that quasi_tile takes: the centers whose
    translate leaves A or adds fewer than (1 - eps)|B| points to the union
    of the earlier ones, the union's coverage of A, and the budget load
    |B||C|.  A translate that leaves A still counts into the union.

    It shares no code with the bitset path.  Points are the bytes of two
    byte arrays, one marking A and one the union so far, over the
    row-major box that holds A and every B + c in Z^d (`_zd_layout`), over
    0..n-1 in Z/n (`_cyclic_layout`).  B is a few runs, each one slice of
    the arrays per center, and per slice the recheck reads whether it lies
    in A, counts its fresh bytes and marks it used (`_count_bad`).  An int
    count k has k >= (1 - eps)|B| iff k >= need = ceil((1 - eps)|B|), so
    need is the one threshold, computed once."""
    eps = qt.eps
    (b,), (centers,) = qt.shapes, qt.centers
    need = math.ceil((1 - eps) * len(b))
    if isinstance(group, ZdGroup):
        layout = _zd_layout(group.d, a, b, centers)
    elif isinstance(group, CyclicGroup):
        layout = _cyclic_layout(group.n, a, b, centers)
    else:
        raise TileError(f"no recheck for {type(group).__name__}")
    bad, union = _count_bad(*layout, need)
    coverage = Fraction(union, len(a))
    load = len(b) * len(centers)
    return TilingCheck(bad, coverage, coverage >= 1 - eps, load <= qt.budgets_raw[0] * len(a),
                       (load, qt.budgets_scaled[0] * len(a)))


# A layout: (A's membership bytes, the centers' positions, B's runs as
# (offset, span, L bytes 1), the step of a run); a run of L points of B + c
# at the position p is the slice [p + offset : p + offset + span : step].
_Layout = tuple[bytearray, Iterable[int], list[tuple[int, int, bytes]], int]


def _count_bad(inside: bytearray, starts: Iterable[int], runs: Sequence[tuple[int, int, bytes]],
               step: int, need: int) -> tuple[int, int]:
    """(the centers whose translate leaves A or adds fewer than need fresh
    points, |the union of the translates|), the translates taken in order.
    The runs of one translate are disjoint, so counting each run's fresh
    bytes before marking it counts the translate's fresh points.

    In Z^d every point of every translate lies in the array, so a slice
    never starts past its end or clips there.  In Z/n the arrays are the n
    elements, a center's position p and an offset are below n, and a run
    that starts past n - 1 starts at p + offset - n; one that crosses
    n - 1 -> 0 is read and written as [q, n) and [0, e - n), since a slice
    past the end of the array would clip silently."""
    n = len(inside)
    used = bytearray(n)
    bad = 0
    for p in starts:
        fresh, out = 0, False
        for offset, span, ones in runs:
            q = p + offset
            if q >= n:
                q -= n
            e = q + span
            if e <= n:
                out = out or 0 in inside[q:e:step]
                fresh += used[q:e:step].count(0)
                used[q:e:step] = ones
            else:
                out = out or 0 in inside[q:] or 0 in inside[:e - n]
                fresh += used.count(0, q) + used.count(0, 0, e - n)
                used[q:] = ones[:n - q]
                used[:e - n] = ones[n - q:]
        bad += out or fresh < need
    return bad, used.count(1)


def _lines(b: Iterable[tuple], j: int) -> list[list]:
    """B's maximal runs along axis j, as [first point, L]: the points v,
    v + e_j, ..., v + (L - 1)e_j of B, with v - e_j and v + L e_j not in B."""
    runs: list[list] = []
    last = None
    for rest, x in sorted((v[:j] + v[j + 1:], v[j]) for v in b):
        if last == (rest, x - 1):
            runs[-1][1] += 1
        else:
            runs.append([rest[:j] + (x,) + rest[j:], 1])
        last = rest, x
    return runs


def _zd_layout(d: int, a: AbstractSet, b: AbstractSet, centers: Sequence) -> _Layout:
    """The layout of Z^d: the row-major box from the least to the greatest
    coordinate of A and of B + C on each axis, B + C's being B's plus C's.
    Every point of every translate lies in it, so its position is exact, and
    a translate that leaves A still lands in the union.  A that fills its
    bounding box (|A| equal to the box's volume) is marked by one slice per
    row; any other A by one byte per point, its positions summed from whole
    columns.  B is split into its maximal runs along the axis with the
    fewest (the last one on a tie, whose stride is 1), each of step
    stride_j: a segment is one run and a k-box k."""
    if (set(map(len, a)) | set(map(len, b)) | set(map(len, centers))) - {d}:
        raise TileError(f"points of A, B and C must have {d} coordinates")
    cols = [list(map(operator.itemgetter(j), a)) for j in range(d)]
    alo, ahi = [min(c, default=0) for c in cols], [max(c, default=0) for c in cols]
    lo, hi = alo[:], ahi[:]
    if b and centers:
        for j, coord in enumerate(map(operator.itemgetter, range(d))):
            bj, cj = list(map(coord, b)), list(map(coord, centers))
            lo[j] = min(lo[j], min(bj) + min(cj))
            hi[j] = max(hi[j], max(bj) + max(cj))
    strides = [1] * d
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * (hi[j + 1] - lo[j + 1] + 1)
    zero = -sum(map(operator.mul, lo, strides))
    inside = bytearray((hi[0] - lo[0] + 1) * strides[0])
    sides = [h - l + 1 for l, h in zip(alo, ahi)]
    if len(a) == math.prod(sides):
        row = b"\1" * sides[-1]
        heads = itertools.product(*(range(l, h + 1) for l, h in zip(alo[:-1], ahi[:-1])))
        for head in heads:
            p = zero + sum(map(operator.mul, head, strides)) + alo[-1]
            inside[p:p + sides[-1]] = row
    else:
        pos = map(zero.__add__, cols[-1])
        for col, stride in zip(cols, strides[:-1]):
            pos = map(operator.add, pos, map(stride.__mul__, col))
        for p in pos:
            inside[p] = 1
    j, lines = min(((j, _lines(b, j)) for j in reversed(range(d))), key=lambda jl: len(jl[1]))
    step = strides[j]
    runs = [(sum(map(operator.mul, v, strides)), (length - 1) * step + 1, b"\1" * length)
            for v, length in lines]
    starts = (zero + sum(map(operator.mul, c, strides)) for c in centers)
    return inside, starts, runs, step


def _cyclic_layout(n: int, a: AbstractSet, b: AbstractSet, centers: Sequence) -> _Layout:
    """The layout of Z/n: the elements 0..n-1.  An interval A (|A| =
    hi - lo + 1 inside 0..n-1) is marked by one slice; any other A by one
    byte per element, elements outside 0..n-1 skipped, since no translate
    reaches them and a negative index would count from the end.  B, reduced
    mod n, is split into its maximal runs of consecutive elements (`_lines`
    on B as points of Z), and a center c sits at c mod n."""
    inside = bytearray(n)
    lo, hi = min(a, default=0), max(a, default=0)
    if 0 <= lo and hi < n and hi - lo + 1 == len(a):
        inside[lo:hi + 1] = b"\1" * len(a)
    else:
        for x in a:
            if 0 <= x < n:
                inside[x] = 1
    runs = [(r, length, b"\1" * length) for (r,), length in _lines({(v % n,) for v in b}, 0)]
    return inside, (c % n for c in centers), runs, 1


# --- hierarchies of exact tilings ------------------------------------------

FOLNER_CAP = 10**6


@dataclass
class HierarchyLevel:
    side: int  # the tile [0, side)^d, tiled by the previous level's grid range(0, side, prev)^d
    eps: Fraction


@dataclass
class TilingHierarchy:
    group: ZdGroup
    levels: list[HierarchyLevel]
    # (key, lhs, rhs, verdict) for each check build_hierarchy ran
    ledger: list[tuple[str, int, int | Fraction, bool]] = field(default_factory=list)


def build_hierarchy(
    group: ZdGroup, eps_seq: Sequence[Fraction], levels: int
) -> TilingHierarchy:
    """Nested exact box tilings of Z^d: one tile per level.

    Level n+1's side is the least multiple of level n's side making level n+1
    (level-n-tile, eps_n)-invariant and eps_{n+1}-deep for the generators.
    A tile beyond FOLNER_CAP points raises TileError as soon as the side
    search passes it.  For each level above the first, the ledger records
    the grid tiling (|covered| = |tile|) and the invariance
    (|A \\ T(A, B)| <= eps|A|, from `_Window.invariance`'s count).
    Each eps must lie in (0, 1), or TileError: for eps > 1 the tower's
    agreement bound (1 - eps)(1 - 3 eps) exceeds 1, so no tower meets it.
    """
    if levels < 1:
        raise TileError("need at least one level")
    if len(eps_seq) < levels or not all(0 < e < 1 for e in eps_seq[:levels]):
        raise TileError("need one eps in (0, 1) per level")
    d = group.d
    sides = [1]
    for n in range(1, levels):
        prev = sides[-1]
        # generator depth 1/lo <= eps_n: start at the least such multiple.
        # invariance: the lo-box has (lo - prev + 1)^d points c whose
        # prev-box translate stays inside, so |A \ T(A, B)| <= eps_{n-1} |A|
        # reads lo^d - (lo - prev + 1)^d <= eps_{n-1} lo^d.  Both fail on an
        # initial run of multiples only, so the least side is found upwards.
        lo = prev * max(1, math.ceil(1 / (eps_seq[n] * prev)))
        while lo**d <= FOLNER_CAP and lo**d - (lo - prev + 1) ** d > eps_seq[n - 1] * lo**d:
            lo += prev
        if lo**d > FOLNER_CAP:
            raise TileError(f"level {n} needs side >= {lo} (|tile| = {lo**d} > cap {FOLNER_CAP})")
        sides.append(lo)
    out = TilingHierarchy(group, [HierarchyLevel(1, eps_seq[0])])
    for n in range(1, levels):
        prev, side = sides[n - 1], sides[n]
        size = side**d
        # One encoding per level, with corner 0: the box [0, side + prev - 2]^d
        # holds the tile and tile + box, so every shift below is exact.  The
        # sum of the translates c + box over the grid range(0, side, prev)^d is
        # one product, comb * box, comb = box([k]*d, prev) with k = side // prev.
        # As popcount(a + b) = popcount(a) + popcount(b) - (number of carries)
        # (Warren, Hacker's Delight, ch. 5), its popcount is k^d prev^d iff the
        # translates are disjoint, and that is |tile| iff side = k prev; then
        # it is their union `used`, the tile's mask, which the invariance erodes.
        bits = _ZdBits([0] * d, [side + prev - 2] * d)
        mbox = bits.box([prev] * d)
        used = bits.box([side // prev] * d, prev) * mbox
        covered = used.bit_count()
        tiled = covered == size
        out.ledger.append(
            (f"level {n}: {prev}-boxes tile the {side}-box, |covered| = |tile|",
             covered, size, tiled)
        )
        if not tiled:
            raise CheckFailed("grid tiling broken")
        # The origin is the corner, so the box's set bits are its raw offsets.
        ok, t = _Window(bits, used, _runs(_set_bits(mbox))).invariance(eps_seq[n - 1])
        out.ledger.append(
            (f"level {n}: ({prev}-box, eps) invariance, |A \\ T| <= eps|A|",
             size - t, eps_seq[n - 1] * size, ok)
        )
        if not ok:
            raise CheckFailed(f"level {n} fails ({prev}-box, eps) invariance")
        out.levels.append(HierarchyLevel(side, eps_seq[n]))
    return out
