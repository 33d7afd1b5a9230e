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

import functools
from dataclasses import dataclass

from .eqrel import EqrelError, FinEqrel

Point = tuple[int, int]  # (base point, copy index)


def cantor_pair(m: int, t: int) -> int:
    return (m + t) * (m + t + 1) // 2 + t


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
        """One verifier pass, memoized at the first read, so `classes` must not
        change after it; kept with `support` only for perfbench's `_run_choice`.
        complete_section tests == of E-classes; on built links ⊇ holds too."""
        inc = verify_windowed_link(self)
        return {"maps_injective": inc.disjoint, "complete_section": inc.incident}

    @property
    def support(self) -> set[Point]:
        return {p for c in self.classes for p in c}


def choice_sequence_link(e: FinEqrel, f: FinEqrel, depth: int) -> WindowedLink:
    """Windowed link for the amplified pair, built from a choice sequence.

    h_i is the injective complete-section map on the residual space X x N:
    the copy index splits as m = m2*N + k, the sequence index rotates by k,
    and copies are injectivized through the pairing function, so
    h_i(x, m) = (f_j(x), cantor(m2, t)*N + k) with j = (i+k) % N and
    t = exps[j][x].  The bijectivized map φ_i sends the point whose h_i-image
    has rank r (by copy, then base) among the images in its E-class C to the
    r-th point of C's window, (C[r mod |C|], r div |C|).  A link class is
    emitted only when all N members land inside the window.  A depth below N
    is malformed input and raises EqrelError.

    Preimages are ints, (x, m) -> m*|X| + x.  A candidate is key*span + its
    preimage, where its h_i-image (y, copy) gives key copy*|X| + y, unique as
    h_i is injective.  φ_i lists per window preimage (y, mq*N + i), or None.
    """
    cs = choice_sequence(e, f)
    n = cs.index
    if depth < n:
        raise EqrelError(f"window depth {depth} below index {n}")
    depth_q = depth // n
    # For m < depth_q, cantor(m2, t)*N + k < cantor(depth_q//N + 1, max t + 1)*N
    # <= bound, since cantor grows in both arguments and k < N: every image of
    # a window point is enumerated, so its rank is exact.
    bound = max(
        cantor_pair(depth_q // n + 1, max(max(r) for r in cs.exps) + 1) * n, depth_q
    )
    size, window = e.n, e.n * depth_q
    span = bound * size  # keys and preimages are below it, as m <= copy < bound

    phi: list[list[Point | None]] = []
    for i in range(n):
        by_class: list[list[int]] = [[] for _ in e.classes]
        for x in range(size):
            for k in range(n):
                j = (i + k) % n
                y, t = cs.images[j][x], cs.exps[j][x]
                group = by_class[e.class_index(y)]
                m2 = 0
                while (copy := cantor_pair(m2, t) * n + k) < bound:
                    group.append((copy * size + y) * span + (m2 * n + k) * size + x)
                    m2 += 1
        table: list[Point | None] = [None] * window
        for group, c in zip(by_class, e.classes):
            group.sort()
            for r, cand in enumerate(group[: len(c) * depth_q]):
                if (pre := cand % span) < window:
                    table[pre] = (c[r % len(c)], r // len(c) * n + i)
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
    positions never flagged are the truncated ones.
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
    return IncidenceReport(len(wl.classes), size * depth - hit.count(1), disjoint, incident)
