"""The benchmark's contract with the library: one pass of each perfbench
workload at each of the seeds 0, 1 and 7, and of `links` and `tiling` at
the seeds 2 to 5 as well, run through
`perfbench/workloads.py` and hashed as `perfbench/run.py` hashes a pass,
must give its recorded digest and its recorded failures, and so must a
second `links` pass over the same items.  The workloads
read library APIs (fields, return shapes, report text) that no other test
pins, so a change that breaks the benchmark fails here first.  The
benchmark also compares the share of failed items, which the digest does
not pin: a failing item's text is its error, whatever raised it.  The
`links` passes also hold every pair item's lift to the lookup oracle, and
the `tiling` items hold `check_tiling` to the set-based oracle."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
from collections import Counter

import pytest
from lift_oracle import lift_by_lookup
from tiling_oracle import check_tiling_by_sets

from cberlab import quasitile

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name: str):
    """Import a perfbench module from its file, writing no bytecode there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load("workloads")
Tracer = _load("tracing").Tracer


class _KeepLifts(Tracer):
    """An untraced tracer that keeps each lift's arguments and action."""

    def __init__(self):
        super().__init__(False)
        self.lifts = []

    def call(self, name, fn, *args):
        out = fn(*args)
        if name == "links.lift_from_link":
            self.lifts.append((args, out))
        return out


# The failed items of one pass, by exception type.  The tiling failures are
# the eps = 1/3 items, which cannot pass, and some eps = 2/5 windows.
FAILURES = {
    ("links", 0): {}, ("links", 1): {}, ("links", 2): {}, ("links", 3): {},
    ("links", 4): {}, ("links", 5): {}, ("links", 7): {},
    ("tiling", 0): {"AssertionError": 8}, ("tiling", 1): {"AssertionError": 7},
    ("tiling", 2): {"AssertionError": 7}, ("tiling", 3): {"AssertionError": 7},
    ("tiling", 4): {"AssertionError": 7}, ("tiling", 5): {"AssertionError": 7},
    ("tiling", 7): {"AssertionError": 7},
    ("tower", 0): {}, ("tower", 1): {}, ("tower", 7): {},
}


PASSES = [pytest.param(w, 1, id=w) for w in workloads.WORKLOADS] + [
    pytest.param(w, seed, id=f"{w}-seed{seed}") for w in workloads.WORKLOADS for seed in (0, 7)
] + [pytest.param(w, seed, id=f"{w}-seed{seed}") for w in ("links", "tiling") for seed in (2, 3, 4, 5)]


@pytest.mark.parametrize("workload, seed", PASSES)
def test_one_pass_gives_the_recorded_digest(workload, seed):
    tr = _KeepLifts()
    digests, failures = [], Counter()
    for item in workloads.make_items(workload, seed, tr):
        text, passed, error = workloads.run_item(item, seed, tr)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if not passed:
            failures[error or "CheckFailed"] += 1
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        recorded = json.load(fh)[workload][str(seed)]
    assert digest == recorded, f"failures: {failures}"
    assert failures == Counter(FAILURES[workload, seed])
    if workload == "links":  # one lift per wide and bulk item
        assert len(tr.lifts) == workloads.WIDE_ITEMS + len(workloads.BULK_SIZES)
    for (outer, link), action in tr.lifts:
        assert action.act == lift_by_lookup(outer, link)


def test_repeated_passes_over_one_item_list_give_the_recorded_digest(monkeypatch):
    """`perfbench/run.py` builds the item list once, then runs pass after
    pass over the same input objects under its SIGALRM speed probe.  State
    that one pass leaves on a shared input (a pair's relations, or a memo on
    them) shows only from the second pass on, and the one-pass tests above
    cannot see it: that is the gap behind a benchmark run that fails a larger
    share of items than those tests do.  Two `links` passes at seed 1, each
    through run.py's own `run_pass`, must both give the recorded digest and
    fail nothing."""
    monkeypatch.setitem(sys.modules, "calibrate", _load("calibrate"))
    run = _load("run")
    items = workloads.make_items("links", 1, Tracer(False))
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        recorded = json.load(fh)["links"]["1"]
    for _ in range(2):
        p = run.run_pass(items, 1, Tracer(False), workloads)
        assert p.failures == []
        assert hashlib.sha256("".join(p.digests).encode()).hexdigest() == recorded


def _forged(g, a, centers: list) -> list:
    """The centers, then a repeat of the first, a center next to the last,
    and translates that leave the window past its greatest and below its
    least point; in Z/n, the center n - 1, whose translate crosses
    n - 1 -> 0, and the int n + 1, which is 1 mod n."""
    if isinstance(g, quasitile.CyclicGroup):
        return centers + [centers[0], centers[-1] + 1, g.n - 1, g.n + 1]
    lo, hi = min(a), max(a)
    return centers + [centers[0], tuple(x + 1 for x in centers[-1]), hi, (lo[0] - 1,) + lo[1:]]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_recheck_matches_the_set_oracle_on_the_tiling_items(seed):
    """Every `tiling` tile item that quasi_tile passes, rechecked as built
    and with forged centers appended: the byte-array check_tiling and the
    set-based oracle give the same TilingCheck.  Its windows sit at
    negative coordinates and its Z/n translates wrap."""
    checked = 0
    for item in workloads.make_items("tiling", seed, Tracer(False)):
        if item.kind != "tile":
            continue
        g, a, b, eps = item.inputs
        try:
            qt = quasitile.quasi_tile(g, a, [b], eps)
        except AssertionError:
            continue
        chk = quasitile.check_tiling(g, a, qt)
        assert chk == check_tiling_by_sets(g, a, qt) and chk.eps_disjoint
        qt.centers[0] = _forged(g, a, qt.centers[0])
        chk = quasitile.check_tiling(g, a, qt)
        assert chk == check_tiling_by_sets(g, a, qt) and chk.bad_centers >= 3
        checked += 1
    assert checked >= 5
