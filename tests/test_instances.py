import json

import pytest

from cberlab.eqrel import EqrelError, build_partition, full
from cberlab.groups import extend_by_group, is_automorphism
from cberlab.instances import (
    Instance,
    all_partitions,
    build_block_instance,
    enumerate_links,
    exhaustive_shapes,
    gen_chain,
    gen_instance,
    link_count,
)


def test_gen_instance_witness_valid_by_construction():
    for seed in range(100):
        inst = gen_instance(seed)
        assert inst.e.refines(inst.f)
        for g in inst.witness:
            assert is_automorphism(inst.e, g)
        f, witnessed = extend_by_group(inst.e, inst.witness)
        assert f == inst.f and witnessed


def test_instance_to_json_matches_json_dumps():
    """The one canonical writer gives the bytes json.dumps gave for every
    generated instance."""
    for seed in range(200):
        inst = gen_instance(seed)
        payload = {
            "n": inst.e.n,
            "E": [list(c) for c in inst.e.classes],
            "F": [list(c) for c in inst.f.classes],
            "witness": [list(p) for p in inst.witness],
        }
        assert inst.to_json() == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_gen_instance_deterministic_bytes():
    a = gen_instance(42).to_json()
    b = gen_instance(42).to_json()
    assert a == b


def test_instance_json_roundtrip():
    inst = gen_instance(7)
    assert Instance.from_json(inst.to_json()) == inst


def test_malformed_instance_rejected():
    with pytest.raises(EqrelError):
        Instance.from_json('{"n": 3, "E": [[0, 1]], "F": [[0,1,2]], "witness": []}')
    with pytest.raises(EqrelError):
        Instance.from_json('{"n": 2}')


def test_size_bounds():
    with pytest.raises(EqrelError):
        gen_instance(0, max_size=100)
    assert gen_instance(0, max_size=64).e.n <= 64


def test_index_one_gives_e_equals_f():
    inst = build_block_instance([(2, 1), (3, 1)])
    assert inst.e == inst.f


def test_gen_chain_structure():
    for seed in range(30):
        ch = gen_chain(seed)
        assert ch.e.refines(ch.chain[0])
        assert ch.chain[0].refines(ch.chain[1])
        assert ch.chain[1].refines(ch.chain[2])
        for wit, f in zip(ch.witnesses, ch.chain):
            got, witnessed = extend_by_group(ch.e, wit)
            assert got == f and witnessed


def test_all_partitions_bell_numbers():
    assert len(list(all_partitions([0, 1, 2]))) == 5
    assert len(list(all_partitions(list(range(5))))) == 52


def test_enumerate_links_three_pairs():
    e = build_partition(6, [[0, 1], [2, 3], [4, 5]])
    assert len(enumerate_links(e, full(6))) == 4


def test_link_count_closed_form_matches_enumeration():
    shapes = exhaustive_shapes(7)
    for shape in shapes:
        inst = build_block_instance(shape)
        assert link_count(inst.e, inst.f) == len(enumerate_links(inst.e, inst.f)), shape
    assert len(shapes) == 122


def test_link_count_zero_on_uneven_classes():
    e = build_partition(3, [[0, 1], [2]])
    assert link_count(e, full(3)) == len(enumerate_links(e, full(3))) == 0


def test_exhaustive_shapes_count_and_bounds():
    shapes = exhaustive_shapes(8)
    assert all(2 <= sum(m * k for m, k in s) <= 8 for s in shapes)
    # multisets: no ordered duplicates
    assert len({tuple(sorted(s)) for s in shapes}) == len(shapes)
    assert len(shapes) > 100
