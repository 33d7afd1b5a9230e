"""Choice sequences and the links they generate, evaluated on windows.

For a finite-index pair E ⊆ F with constant index N, a choice sequence picks
one point of each E-class inside every F-class.  On an amplified space
(points x paired with copy indices) the sequence is made injective, then a
complete section, then a family of bijections, and finally yields a link for
the amplified pair.  Everything is evaluated lazily on a window of copies;
only fully-materialized link classes are emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .eqrel import CheckFailed, EqrelError, FinEqrel

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
    flags: dict[str, bool] = field(default_factory=dict)

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
    has rank r (by copy, then base) among the images in its E-class to the
    r-th point of that class's window.  A link class is emitted only when all
    N members land inside the window.  A depth below N is malformed input and
    raises EqrelError.
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
    windows = [[(x, m) for m in range(depth_q) for x in c] for c in e.classes]

    phi: list[dict[Point, Point]] = []
    for i in range(n):
        by_class: list[list[tuple[int, int, int, int]]] = [[] for _ in e.classes]
        for x in range(e.n):
            for k in range(n):
                j = (i + k) % n
                y, t = cs.images[j][x], cs.exps[j][x]
                group = by_class[e.class_index(y)]
                m2 = 0
                while (copy := cantor_pair(m2, t) * n + k) < bound:
                    group.append((copy, y, x, m2 * n + k))
                    m2 += 1
        table: dict[Point, Point] = {}
        for group, win in zip(by_class, windows):
            group.sort()
            for (_, _, x, m), q in zip(group, win):
                table[x, m] = q
        phi.append(table)

    classes: list[tuple[Point, ...]] = []
    for x in range(e.n):
        for m in range(depth_q):
            qs = [table.get((x, m)) for table in phi]
            if None not in qs:
                members = ((y, mq * n + i) for i, (y, mq) in enumerate(qs))
                classes.append(tuple(sorted(members)))

    seen: set[Point] = set()
    for c in classes:
        for p in c:
            if p in seen:  # pragma: no cover - injectivity guarantees this
                raise CheckFailed(f"emitted classes collide at {p}")
            seen.add(p)

    blocks = _f_block_eclasses(e, f)
    wl = WindowedLink(e, f, depth, classes)
    wl.flags["maps_injective"] = len(seen) == sum(map(len, classes))
    wl.flags["complete_section"] = all(
        set(blocks[f.class_index(c[0][0])]) <= {e.class_index(p[0]) for p in c}
        for c in classes
    )
    return wl


def _f_block_eclasses(e: FinEqrel, f: FinEqrel) -> list[list[int]]:
    return [sorted({e.class_index(y) for y in c}) for c in f.classes]


@dataclass
class IncidenceReport:
    verified_classes: int
    truncated_points: int
    all_ones: bool
    exact: bool

    def verdict(self) -> str:
        if self.all_ones and self.exact:
            return "verified exactly"
        if self.all_ones:
            return "consistent so far"
        return "incidence violated"


def verify_windowed_link(wl: WindowedLink) -> IncidenceReport:
    """Check all-ones incidence on the emitted classes.

    Each emitted class must pick exactly one point from each amplified E-class
    of its amplified F-class; incidence is exact on emitted classes and
    reported as consistent (not refuted) for truncated window points.
    """
    e, f = wl.e, wl.f
    all_ones = True
    blocks = _f_block_eclasses(e, f)
    for c in wl.classes:
        block = blocks[f.class_index(c[0][0])]
        hits = [e.class_index(p[0]) for p in c]
        if sorted(hits) != block:
            all_ones = False
            break
        if any(p[1] >= wl.depth or p[1] < 0 for p in c):
            all_ones = False
            break
        if len({f.class_index(p[0]) for p in c}) != 1:
            all_ones = False
            break
    support = wl.support
    window_total = e.n * wl.depth
    truncated = window_total - len(support)
    return IncidenceReport(
        verified_classes=len(wl.classes),
        truncated_points=truncated,
        all_ones=all_ones,
        exact=truncated == 0,
    )

