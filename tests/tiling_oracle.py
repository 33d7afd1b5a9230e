"""The set-based tiling recheck, kept as the oracle that the byte-array
`quasitile.check_tiling` is compared with: each translate B + c is a
frozenset of points built by the group's own `op`, and the union of the
translates is a set."""

from __future__ import annotations

import itertools
from fractions import Fraction

from cberlab.quasitile import CyclicGroup, QuasiTiling, TilingCheck, ZdGroup


def translate(group: ZdGroup | CyclicGroup, b: frozenset, c) -> frozenset:
    return frozenset(map(group.op, b, itertools.repeat(c)))


def check_tiling_by_sets(group: ZdGroup | CyclicGroup, a: frozenset, qt: QuasiTiling) -> TilingCheck:
    """check_tiling by sets: a center is bad if B + c leaves A or adds fewer
    than (1 - eps)|B| points (a Fraction) to the union so far, and every
    translate joins the union."""
    eps = qt.eps
    (b,), (centers,) = qt.shapes, qt.centers
    fresh = (1 - eps) * len(b)
    used: set = set()
    bad = 0
    for c in centers:
        bc = translate(group, b, c)
        if not bc <= a or len(bc - used) < fresh:
            bad += 1
        used |= bc
    coverage = Fraction(len(used), len(a))
    load = len(b) * len(centers)
    return TilingCheck(bad, coverage, coverage >= 1 - eps, load <= qt.budgets_raw[0] * len(a),
                       (load, qt.budgets_scaled[0] * len(a)))
