"""The per-element lookup lift, kept as the oracle that
`links.lift_from_link` is compared with: every element g of the generated
group, at every point x, is looked up as the one point of [x]_L in the class
g·[x]_E.  It makes |G|·n lookups and composes nothing."""

from __future__ import annotations

from cberlab.groups import FinGroup, Perm, identity_perm
from cberlab.links import Link, LinkError, OuterAction


def lift_by_lookup(outer: OuterAction, link: Link) -> tuple[Perm, ...]:
    """One image per group element (in shortlex order) and point, each read
    off the (L-class, E-class) table."""
    e = outer.e
    gens = outer.gens if outer.gens else (identity_perm(len(e.classes)),)
    group = FinGroup.generated(gens)
    l_of = [link.l.class_index(x) for x in range(e.n)]
    e_of = [e.class_index(x) for x in range(e.n)]
    point = {(l_of[x], e_of[x]): x for x in range(e.n)}
    acts: list[Perm] = []
    for cp in group.elems:
        img = []
        for x in range(e.n):
            y = point.get((l_of[x], cp[e_of[x]]))
            if y is None:
                raise LinkError(f"link invalid for lifting: [{x}]_L misses g·[{x}]_E")
            img.append(y)
        acts.append(tuple(img))
    return tuple(acts)
