"""The windowed choice-sequence link from its definition, kept as the oracle
that `choice.choice_sequence_link` is compared with: every image of h_i
below a bound that covers the window is listed as a tuple keyed by its
Cantor-paired copy, each E-class's list is sorted, and each φ_i is a dict
keyed by (x, m)."""

from __future__ import annotations

from cberlab.choice import choice_sequence
from cberlab.eqrel import CheckFailed, EqrelError


def cantor_pair(m: int, t: int) -> int:
    return (m + t) * (m + t + 1) // 2 + t


def reference_link(e, f, depth):
    """Test oracle: the construction from the definition, with the window
    listed point by point and each φ_i a dict keyed by (x, m)."""
    cs = choice_sequence(e, f)
    n = cs.index
    if depth < n:
        raise EqrelError(f"window depth {depth} below index {n}")
    depth_q = depth // n
    bound = max(
        cantor_pair(depth_q // n + 1, max(max(r) for r in cs.exps) + 1) * n, depth_q
    )
    windows = [[(x, m) for m in range(depth_q) for x in c] for c in e.classes]

    phi = []
    for i in range(n):
        by_class = [[] for _ in e.classes]
        for x in range(e.n):
            for k in range(n):
                j = (i + k) % n
                y, t = cs.images[j][x], cs.exps[j][x]
                group = by_class[e.class_index(y)]
                m2 = 0
                while (copy := cantor_pair(m2, t) * n + k) < bound:
                    group.append((copy, y, x, m2 * n + k))
                    m2 += 1
        table = {}
        for group, win in zip(by_class, windows):
            group.sort()
            for (_, _, x, m), q in zip(group, win):
                table[x, m] = q
        phi.append(table)

    classes = []
    for x in range(e.n):
        for m in range(depth_q):
            qs = [table.get((x, m)) for table in phi]
            if None not in qs:
                members = ((y, mq * n + i) for i, (y, mq) in enumerate(qs))
                classes.append(tuple(sorted(members)))

    seen = set()
    for c in classes:
        for p in c:
            if p in seen:
                raise CheckFailed(f"emitted classes collide at {p}")
            seen.add(p)

    blocks = [sorted({e.class_index(y) for y in c}) for c in f.classes]
    flags = {
        "maps_injective": len(seen) == sum(map(len, classes)),
        "complete_section": all(
            set(blocks[f.class_index(c[0][0])]) <= {e.class_index(p[0]) for p in c}
            for c in classes
        ),
    }
    return classes, flags
