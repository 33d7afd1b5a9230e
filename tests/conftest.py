import gc

import pytest


@pytest.fixture
def gc_passes():
    """passes(f): the collections, of any generation, that the cyclic
    garbage collector runs during f(), counted from just after a full
    collection.  A young generation fills after about 700 new tracked
    containers (lists, tuples, dicts, instances) net, so a call that builds
    one per item of a large input runs many, and one that builds a few runs
    none."""
    def passes(f) -> int:
        gc.collect()
        before = sum(s["collections"] for s in gc.get_stats())
        f()
        return sum(s["collections"] for s in gc.get_stats()) - before
    return passes
