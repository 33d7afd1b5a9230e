"""Choice sequences and the links they generate, evaluated on windows.

For a finite-index pair E ⊆ F with constant index N, a choice sequence picks
one point of each E-class inside every F-class.  On an amplified space
(points x paired with copy indices) the sequence is made injective, then a
complete section, then a family of bijections, and finally yields a link for
the amplified pair.  It is evaluated on a window of copies, listed in closed
form, and only fully-materialized link classes are emitted.  The builder
only builds: `verify_windowed_link` is the one check of its classes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

from .eqrel import EqrelError, FinEqrel

Point = tuple[int, int]  # (base point, copy index)


@dataclass(frozen=True)
class ChoiceSequence:
    """Stage-1 data: maps f_0..f_{N-1} given by powers of a canonical rotation.

    σ rotates each sorted F-class c by one place, so σ^t(c[a]) = c[(a+t) % |c|].
    f_i(x) = σ^{exps[i][x]}(x) is the first point of the walk from x that
    lands in the i-th new E-class; f_0 = identity.  images[i][x] = f_i(x).
    """

    e: FinEqrel
    f: FinEqrel
    index: int
    exps: tuple[tuple[int, ...], ...]  # exps[i][x]
    images: tuple[tuple[int, ...], ...]  # images[i][x] = f_i(x)


def choice_sequence(e: FinEqrel, f: FinEqrel) -> ChoiceSequence:
    if not e.refines(f):
        raise EqrelError("E is not a subrelation of F")
    indices = set(e.index_in(f).values())
    if len(indices) != 1:
        raise EqrelError(f"index [F:E] is not constant: {sorted(indices)}")
    n_index = indices.pop()
    exps = [[0] * e.n for _ in range(n_index)]
    images = [[0] * e.n for _ in range(n_index)]
    for c in f.classes:
        for a, x in enumerate(c):
            # One walk around the class records every first-hit time and point.
            seen: set[int] = set()
            t = 0
            while len(seen) < n_index:
                y = c[(a + t) % len(c)]
                ci = e.class_index(y)
                if ci not in seen:
                    exps[len(seen)][x] = t
                    images[len(seen)][x] = y
                    seen.add(ci)
                t += 1
    return ChoiceSequence(e, f, n_index, tuple(map(tuple, exps)), tuple(map(tuple, images)))


@dataclass
class WindowedLink:
    """Link classes emitted on a window of the amplified space."""

    e: FinEqrel
    f: FinEqrel
    depth: int
    classes: list[tuple[Point, ...]]

    @functools.cached_property
    def flags(self) -> dict[str, bool]:
        """The two verdicts of the latest verifier pass, which records them
        here; a read runs a pass only when none has run yet, so `classes`
        must not change after the first verification.  Kept with `support`
        only for perfbench's `_run_choice`.  complete_section tests == of
        E-classes; on built links ⊇ holds too."""
        return verify_windowed_link(self).flags

    @property
    def support(self) -> set[Point]:
        return set(itertools.chain.from_iterable(self.classes))


def choice_sequence_link(e: FinEqrel, f: FinEqrel, depth: int) -> WindowedLink:
    """Windowed link for the amplified pair, built from a choice sequence.

    h_i is the injective complete-section map on the residual space X x N:
    the copy index splits as m = m2*N + k, the sequence index rotates by k,
    and copies are injectivized through the Cantor pairing
    cantor(m2, t) = s(s+1)/2 + t with s = m2 + t, so
    h_i(x, m) = (f_j(x), cantor(m2, t)*N + k) with j = (i+k) % N and
    t = exps[j][x].  The bijectivized map φ_i sends the point whose h_i-image
    has rank r (by copy, then base) among the images in its E-class C to the
    r-th point of C's window, (C[r mod |C|], r div |C|).  A link class is
    emitted only when all N members land inside the window.  A depth below N
    is malformed input and raises EqrelError.

    The ranks need no list of images.  As 0 <= t <= s, cantor(m2, t) orders
    as the pair (s, t), and k < N, y < |X|, so the images (y, copy) are
    ordered by (s, t, k, y).  A source of C is a pair (x, k) whose image
    y = f_j(x) lies in C; it meets diagonal s (at m2 = s - t) iff t <= s.
    Sorted by (t, k, y), the sources on diagonal s are a prefix of that
    list, so source q on diagonal s has rank first[s] + q, where first[s]
    counts the images on the diagonals before s: one prefix sum of the
    sources' t values, the same for every i.  Those ranks are increasing in
    m2, so each source fills its window preimages (x, m2*N + k), one stride
    of the flat table apart, until its rank reaches |C|*depth_q.  Every
    image is ranked, not only those below a bound on the copies, so the
    ranks are exact by construction.
    """
    cs = choice_sequence(e, f)
    n = cs.index
    if depth < n:
        raise EqrelError(f"window depth {depth} below index {n}")
    depth_q = depth // n
    size, window = e.n, e.n * depth_q
    stride = n * size  # one step of m2 in the flat table, pre = m*|X| + x
    e_of = e._cls_of  # type: ignore[attr-defined]
    # A source's diagonals s = t + m2 that meet the window end before
    # max t + ceil(depth_q / N).
    diagonals = max(map(max, cs.exps)) + -(-depth_q // n)
    t_counts = [[0] * diagonals for _ in e.classes]
    for ts, ys in zip(cs.exps, cs.images):
        for t, y in zip(ts, ys):
            t_counts[e_of[y]][t] += 1
    firsts = [
        list(itertools.accumulate(itertools.accumulate(counts), initial=0))
        for counts in t_counts
    ]

    phi: list[list[Point | None]] = []
    for i in range(n):
        sources: list[list[tuple[int, int, int, int]]] = [[] for _ in e.classes]
        for k in range(n):
            j = (i + k) % n
            for x, (t, y) in enumerate(zip(cs.exps[j], cs.images[j])):
                sources[e_of[y]].append((t, k, y, x))
        table: list[Point | None] = [None] * window
        for group, c, first in zip(sources, e.classes, firsts):
            group.sort()
            size_c = len(c)
            limit = size_c * depth_q
            for q, (t, k, _, x) in enumerate(group):
                start = k * size + x
                # the ranks first[s] + q for s = t, t+1, ... while in the window
                hi = t + len(range(start, window, stride))
                ranks = first[t : bisect.bisect_left(first, limit - q, t, hi)]
                table[start : start + len(ranks) * stride : stride] = [
                    (c[(r := f0 + q) % size_c], r // size_c * n + i) for f0 in ranks
                ]
        phi.append(table)

    classes = [
        tuple(sorted(qs))
        for x in range(size)
        for qs in zip(*(table[x::size] for table in phi))
        if None not in qs
    ]
    return WindowedLink(e, f, depth, classes)


@dataclass
class IncidenceReport:
    verified_classes: int
    truncated_points: int
    disjoint: bool
    incident: bool

    @property
    def all_ones(self) -> bool:
        return self.disjoint and self.incident

    @property
    def flags(self) -> dict[str, bool]:
        return {"maps_injective": self.disjoint, "complete_section": self.incident}

    @property
    def exact(self) -> bool:
        return self.truncated_points == 0

    def verdict(self) -> str:
        if self.all_ones and self.exact:
            return "verified exactly"
        if self.all_ones:
            return "consistent so far"
        return "incidence violated"


def verify_windowed_link(wl: WindowedLink) -> IncidenceReport:
    """Check all-ones incidence on the emitted classes, in one pass.

    Each emitted class must pick exactly one point from each amplified E-class
    of its amplified F-class; incidence is exact on emitted classes and
    reported as consistent (not refuted) for truncated window points.  Point
    (y, m) flags window position m*|X| + y of one bytearray, so one pass
    decides all three: a copy m outside [0, depth) or sorted E-class indices
    other than those of the F-class of the first point fail incidence (E
    refines F, so the class then lies in that F-class and meets each of its
    E-classes once); a position flagged twice fails disjointness; and the
    positions never flagged are the truncated ones.  The verdicts are
    recorded as `wl.flags`.
    """
    e_of, f_of = wl.e._cls_of, wl.f._cls_of  # type: ignore[attr-defined]
    blocks = [sorted({e_of[y] for y in c}) for c in wl.f.classes]
    size, depth = wl.e.n, wl.depth
    hit = bytearray(size * depth)
    disjoint = incident = True
    for c in wl.classes:
        if sorted([e_of[y] for y, _ in c]) != blocks[f_of[c[0][0]]]:
            incident = False
        for y, m in c:
            if not 0 <= m < depth:
                incident = False
            elif hit[p := m * size + y]:
                disjoint = False
            else:
                hit[p] = 1
    rep = IncidenceReport(len(wl.classes), size * depth - hit.count(1), disjoint, incident)
    wl.flags = rep.flags
    return rep
