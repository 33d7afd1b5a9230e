"""Seeded instance generation and canonical JSON serialization.

An instance is a nested pair E ⊆ F with a normality witness that is valid by
construction: E-classes come in uniform blocks, F-blocks join the classes of
a block, and the witness generators rotate the classes of each block.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

from .eqrel import EqrelError, FinEqrel, build_partition
from .groups import perm_of
from .report import canonical_json

MAX_GEN_SIZE = 64


@dataclass(frozen=True)
class Instance:
    e: FinEqrel
    f: FinEqrel
    witness: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        return canonical_json(
            {"n": self.e.n, "E": self.e.classes, "F": self.f.classes, "witness": self.witness}
        )

    @staticmethod
    def from_json(text: str) -> "Instance":
        try:
            payload = json.loads(text)
            n = payload["n"]
            return Instance(build_partition(n, payload["E"]), build_partition(n, payload["F"]),
                            tuple(perm_of(p, n) for p in payload["witness"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise EqrelError(f"malformed instance: {exc}") from exc


def _block_shapes(rng: random.Random, max_size: int, max_index: int) -> list[tuple[int, int]]:
    """Random (class size, class count) shapes filling at most max_size points."""
    shapes: list[tuple[int, int]] = []
    room = max_size
    while room >= 1:
        m = rng.randint(1, min(3, room))
        k = rng.randint(1, min(max_index, room // m))
        shapes.append((m, k))
        room -= m * k
        if rng.random() < 0.4:
            break
    return shapes


def build_block_instance(shapes: list[tuple[int, int]]) -> Instance:
    """Canonical (unshuffled) instance for a list of (m, k) block shapes.

    Block of shape (m, k): k E-classes of size m inside one F-class; the
    witness generator rotates the classes, preserving within-class order.
    """
    e_classes: list[list[int]] = []
    f_classes: list[list[int]] = []
    gens: list[list[int]] = []
    n = sum(m * k for m, k in shapes)
    base = 0
    for m, k in shapes:
        block = list(range(base, base + m * k))
        cls = [block[i * m : (i + 1) * m] for i in range(k)]
        e_classes.extend(cls)
        f_classes.append(block)
        g = list(range(n))
        for i in range(k):
            src, dst = cls[i], cls[(i + 1) % k]
            for a, b in zip(src, dst):
                g[a] = b
        gens.append(g)
        base += m * k
    e = build_partition(n, e_classes)
    f = build_partition(n, f_classes)
    return Instance(e, f, tuple(tuple(g) for g in gens))


def _relabel(inst: Instance, perm: list[int]) -> Instance:
    """Apply a relabeling x -> perm[x] to every component."""
    e = build_partition(inst.e.n, [[perm[x] for x in c] for c in inst.e.classes])
    f = build_partition(inst.f.n, [[perm[x] for x in c] for c in inst.f.classes])
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    wit = tuple(
        tuple(perm[g[inv[x]]] for x in range(len(perm))) for g in inst.witness
    )
    return Instance(e, f, wit)


def gen_instance(seed: int, max_size: int = 12, max_index: int = 4) -> Instance:
    """Seeded random instance with a valid witness, |X| <= max_size."""
    if not 1 <= max_size <= MAX_GEN_SIZE:
        raise EqrelError(f"size bound must be in 1..{MAX_GEN_SIZE}")
    if max_index < 1:
        raise EqrelError(f"index bound must be at least 1, got {max_index}")
    rng = random.Random(seed)
    inst = build_block_instance(_block_shapes(rng, max_size, max_index))
    perm = list(range(inst.e.n))
    rng.shuffle(perm)
    return _relabel(inst, perm)


@dataclass(frozen=True)
class ChainInstance:
    """E with a two-step chain F0 ⊆ F1 ⊆ F2 and cumulative witnesses."""

    e: FinEqrel
    chain: tuple[FinEqrel, FinEqrel, FinEqrel]
    witnesses: tuple[tuple[tuple[int, ...], ...], ...]


def gen_chain(seed: int, max_size: int = 24) -> ChainInstance:
    """Seeded 3-level chain with uniform shapes inside each superblock.

    Points sit in s superblocks of q blocks of k classes of size m; F0 joins
    classes within a block, F1 within a superblock, F2 everything.  Witnesses
    rotate classes, blocks, and superblocks respectively; each is an
    E-automorphism because all shapes are uniform.
    """
    rng = random.Random(seed)
    while True:
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        q = rng.randint(1, 3)
        s = rng.randint(1, 3)
        if m * k * q * s <= max_size:
            break
    n = m * k * q * s
    pts = list(range(n))
    e_classes = [pts[i * m : (i + 1) * m] for i in range(k * q * s)]
    f0 = [pts[i * m * k : (i + 1) * m * k] for i in range(q * s)]
    f1 = [pts[i * m * k * q : (i + 1) * m * k * q] for i in range(s)]
    f2 = [pts]

    def cycle(groups: list[list[int]]) -> list[int]:
        g = list(range(n))
        for i, src in enumerate(groups):
            dst = groups[(i + 1) % len(groups)]
            for a, b in zip(src, dst):
                g[a] = b
        return g

    w0 = [cycle(e_classes[i * k : (i + 1) * k]) for i in range(q * s)]
    w1 = [cycle(f0[i * q : (i + 1) * q]) for i in range(s)]
    w2 = [cycle(f1)]
    e = build_partition(n, e_classes)
    chain = (build_partition(n, f0), build_partition(n, f1), build_partition(n, f2))
    wit = (
        tuple(tuple(g) for g in w0),
        tuple(tuple(g) for g in w0 + w1),
        tuple(tuple(g) for g in w0 + w1 + w2),
    )
    return ChainInstance(e, chain, wit)


# --- exhaustive oracles -----------------------------------------------------


def all_partitions(points: list[int]):
    """All set partitions of `points` (Bell-number many)."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_links(e: FinEqrel, f: FinEqrel) -> list[FinEqrel]:
    """Brute-force all (E, F)-links: per F-class partitions whose product
    satisfies the incidence condition."""
    from .links import verify_link

    per_block: list[list[list[list[int]]]] = []
    for c in f.classes:
        opts = []
        for part in all_partitions(list(c)):
            ok = all(
                len(set(e.class_of(x)) & set(lc)) == 1
                for x in c
                for lc in part
            )
            if ok:
                opts.append(part)
        per_block.append(opts)
    out = []
    for combo in itertools.product(*per_block):
        classes = [c for part in combo for c in part]
        l = build_partition(e.n, classes)
        ok, _ = verify_link(e, f, l)
        if ok:
            out.append(l)
    return out


def link_count(e: FinEqrel, f: FinEqrel) -> int:
    """Number of (E, F)-links in closed form: ∏ over F-classes of (m!)^(k−1).

    In an F-class of k E-classes of size m, a link is fixed by k − 1
    bijections from the first E-class onto the others, each L-class being a
    point of the first class with its images.  If the E-class sizes in an
    F-class differ, no L-class can meet each of them once, so the count is 0.
    """
    count = 1
    for c in f.classes:
        ids = {e.class_index(x) for x in c}
        sizes = {len(e.classes[i]) for i in ids}
        if len(sizes) != 1:
            return 0
        count *= math.factorial(sizes.pop()) ** (len(ids) - 1)
    return count


def exhaustive_shapes(max_size: int = 8) -> list[list[tuple[int, int]]]:
    """All instances up to symmetry: multisets of (m, k) block shapes with
    total size in 2..max_size."""
    out: list[list[tuple[int, int]]] = []

    def rec(remaining: int, floor: tuple[int, int], acc: list[tuple[int, int]]):
        if acc:
            out.append(list(acc))
        for m in range(1, remaining + 1):
            for k in range(1, remaining // m + 1):
                if (m, k) < floor:
                    continue
                rec(remaining - m * k, (m, k), acc + [(m, k)])

    rec(max_size, (1, 1), [])
    return [s for s in out if sum(m * k for m, k in s) >= 2]
