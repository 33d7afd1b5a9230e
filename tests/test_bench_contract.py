"""The benchmark's contract with the library: one pass of each perfbench
workload at each of the seeds 0, 1 and 7, run through
`perfbench/workloads.py` and hashed as `perfbench/run.py` hashes a pass,
must give its recorded digest and its recorded failures.  The workloads
read library APIs (fields, return shapes, report text) that no other test
pins, so a change that breaks the benchmark fails here first.  The
benchmark also compares the share of failed items, which the digest does
not pin: a failing item's text is its error, whatever raised it."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
from collections import Counter

import pytest

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


# The failed items of one pass, by exception type.  The tiling failures are
# the eps = 1/3 items, which cannot pass, and some eps = 2/5 windows.
FAILURES = {
    ("links", 0): {}, ("links", 1): {}, ("links", 7): {},
    ("tiling", 0): {"AssertionError": 8}, ("tiling", 1): {"AssertionError": 7},
    ("tiling", 7): {"AssertionError": 7},
    ("tower", 0): {}, ("tower", 1): {}, ("tower", 7): {},
}


PASSES = [pytest.param(w, 1, id=w) for w in workloads.WORKLOADS] + [
    pytest.param(w, seed, id=f"{w}-seed{seed}") for w in workloads.WORKLOADS for seed in (0, 7)
]


@pytest.mark.parametrize("workload, seed", PASSES)
def test_one_pass_gives_the_recorded_digest(workload, seed):
    tr = Tracer(False)
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
