import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cberlab import quasitile
from cberlab.cli import _nearest_root, main
from cberlab.instances import build_block_instance, gen_instance
from cberlab.quasitile import ZdGroup, build_hierarchy
from cberlab.report import canonical_json
from cberlab.tower import build_tower


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gen_deterministic(capsys):
    c1, out1 = run(capsys, "gen", "--seed", "9")
    c2, out2 = run(capsys, "gen", "--seed", "9")
    assert c1 == c2 == 0
    assert out1 == out2


def test_gen_roundtrips_through_link(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "--seed", "5", "--out", str(path)]) == 0
    code, out = run(capsys, "link", "--instance", str(path))
    rep = json.loads(out)
    assert code == 0
    assert rep["outcome"] == "pass"
    assert all(entry["verdict"] for entry in rep["ledger"])


@pytest.mark.parametrize("n", [10**7, 10**9])
def test_link_rejects_a_ground_set_far_larger_than_its_classes_at_once(tmp_path, capsys, n):
    """The 48-byte instance that made link allocate n slots and print every
    missing point: now one short input error, before anything is sized by n."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "E": [[0]], "F": [[0]], "witness": []}))
    start = time.perf_counter()
    code = main(["link", "--instance", str(path)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("input error: ")
    assert elapsed < 1 and len(err.encode()) < 1024


def test_link_and_lift_on_a_wide_class(tmp_path, capsys):
    """One F-class of k E-classes of size 3: the link and the lift must stay
    polynomial, where a search over E-transversals would face 3^k and a
    multiplication table |G|^2 = k^2 entries."""
    path = tmp_path / "wide.json"
    for k in (30, 200):
        n = 3 * k
        path.write_text(build_block_instance([(3, k)]).to_json())
        code, out = run(capsys, "link", "--instance", str(path))
        assert code == 0
        assert json.loads(out)["metrics"]["L"] == [list(range(r, n, 3)) for r in range(3)]
        code, out = run(capsys, "lift", "--instance", str(path))
        rep = json.loads(out)
        assert code == 0
        assert rep["metrics"]["group_order"] == k
        # The ledger's real check: 3 orbits (one per rank) inside 1 F-class.
        assert [(c["lhs"], c["rhs"], c["verdict"]) for c in rep["ledger"]] == [(3, 1, True)]
        assert all(p[x] % 3 == x % 3 for p in rep["metrics"]["action"] for x in range(n))


def test_lift_beyond_closure_cap_is_input_error(tmp_path, capsys):
    """(0 1) and an 8-cycle generate S_8: 40,320 elements exceed CLOSURE_CAP,
    so the lift is rejected before it is materialised."""
    path = tmp_path / "s8.json"
    path.write_text(json.dumps({
        "n": 8,
        "E": [[x] for x in range(8)],
        "F": [list(range(8))],
        "witness": [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]],
    }))
    assert main(["lift", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: generated group exceeds cap 10000\n"


def test_lift_report_frozen(capsys):
    code, out = run(capsys, "lift", "--seed", "6")
    assert code == 0
    assert len(out.encode()) == 195
    assert _digest(out) == "0990e521ce46b6bb874c37099a93e98e48df9cf04bdb8e95ada7c81ca364c701"


def test_s7_lift_report_frozen(tmp_path, capsys):
    """(0 1) and a 7-cycle generate S_7 on 7 singleton classes inside one
    F-class: the lift prints all 5,040 permutations, byte for byte."""
    path = tmp_path / "s7.json"
    path.write_text(json.dumps({
        "n": 7,
        "E": [[x] for x in range(7)],
        "F": [list(range(7))],
        "witness": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]],
    }))
    code, out = run(capsys, "lift", "--instance", str(path))
    assert code == 0
    assert len(out.encode()) == 80826
    assert _digest(out) == "fb208aa7e1a42943878d829d7b4930a1e0136fb128dd66a0062cf5e70e31323c"


def test_verify_link_pass_and_fail(tmp_path, capsys):
    inst = gen_instance(3)
    raw = json.loads(inst.to_json())

    code, out = run(capsys, "link", "--seed", "3")
    l_classes = json.loads(out)["metrics"]["L"]

    good = dict(raw, L=l_classes)
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    assert main(["verify-link", "--instance", str(path)]) == 0
    capsys.readouterr()

    bad = dict(raw, L=[[x] for x in range(raw["n"])])
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "verify-link", "--instance", str(path))
    if inst.e != inst.f:
        assert code == 1
        assert json.loads(out)["outcome"] == "fail"


# Class data for verify-link's "L", as a function of the instance size n.
MALFORMED_L = {
    "not a list": lambda n: 5,
    "str point": lambda n: [["a"]],
    "float point": lambda n: [[0.0, *range(1, n)]],
    "list point": lambda n: [[[0]]],
    # a full class, so True cannot pass as the point 1
    "bool point": lambda n: [[0, True, *range(2, n)]],
}


@pytest.mark.parametrize("l_classes", MALFORMED_L.values(), ids=MALFORMED_L.keys())
def test_verify_link_malformed_classes_are_input_error(tmp_path, capsys, l_classes):
    """Class data that is not lists of int points is rejected where
    partitions are validated; it used to end in a TypeError traceback."""
    raw = json.loads(gen_instance(3).to_json())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(raw, L=l_classes(raw["n"]))))
    assert main(["verify-link", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error")


@pytest.mark.parametrize(
    "command", ["link", "lift", "verify-link", "equidecompose", "choice-link"])
@pytest.mark.parametrize("witness, message", [
    pytest.param([[1.0, 0.0]], "permutation entries must be ints", id="float"),
    pytest.param([[True, 0]], "permutation entries must be ints", id="bool"),
    pytest.param([[0, 0]], "not a permutation of 2 points", id="repeat"),
])
def test_malformed_witness_is_input_error(tmp_path, capsys, command, witness, message):
    """A witness of float points used to end in a TypeError traceback, and
    one holding true for 1 used to pass; Instance.from_json rejects both,
    and any other non-permutation, as input."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "E": [[0], [1]], "F": [[0, 1]], "witness": witness}))
    assert main([command, "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: malformed instance: {message}")


@pytest.mark.parametrize("index", ["0", "-2"])
def test_gen_index_below_one_is_input_error(capsys, index):
    # It used to reach randrange and exit with "empty range for randrange()".
    assert main(["gen", "--index", index]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: index bound must be at least 1, got {index}\n"


def test_missing_field_is_input_error(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(gen_instance(1).to_json())
    assert main(["verify-link", "--instance", str(path)]) == 2


def test_bad_json_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["link", "--instance", str(path)]) == 2


def test_bad_fraction_is_input_error():
    assert main(["tile", "--eps", "nonsense"]) == 2


def test_tile_rejects_small_eps_before_the_constants(monkeypatch):
    """eps < 1/3 cannot pass, and its shape count k grows like log(1/eps)/eps
    (6,212 exact powers at eps = 1/1000): the rejection must not compute it."""
    monkeypatch.setattr(quasitile, "tiling_constants", lambda eps: pytest.fail("constants computed"))
    assert main(["tile", "--eps", "1/100000", "--size", "10"]) == 2


@pytest.mark.parametrize("eps", ["1", "3/2"])
def test_tile_rejects_eps_from_one_on_for_its_own_reason(eps, capsys):
    """From 1 on the coverage target 1 - eps is not positive: the message
    names the upper bound, not the lower one."""
    assert main(["tile", "--eps", eps, "--size", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: eps must be in [1/3, 1), got {eps}: from 1 on")
    assert "below 1/3" not in err


def test_tile_multi_shape_chain_is_input_error():
    # It used to run all three stages and exit 1 at stage1:residue-band-low.
    assert main(["tile", "--eps", "1/4", "--size", "50000", "--chain", "500,2,1"]) == 2


@pytest.mark.parametrize("group", ["z", "z2"])
def test_negative_tile_size_is_input_error(group, capsys):
    # On z2 the side used to be round(size ** 0.5): a complex number, and an
    # uncaught TypeError with exit 1.
    assert main(["tile", "--group", group, "--size", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: window size must be nonnegative")


def test_tile_side_is_the_nearest_integer_root():
    assert [_nearest_root(n) for n in (0, 1, 2, 3, 12, 13, 100000)] == [0, 1, 1, 2, 3, 4, 316]
    for n in range(5000):
        s = _nearest_root(n)
        assert (2 * s - 1) ** 2 < 4 * n < (2 * s + 1) ** 2 or n == s == 0
        assert s == round(n ** 0.5)  # the float rule it replaces, for n >= 0


def test_nonpositive_hierarchy_eps_is_input_error():
    assert main(["hierarchy", "--eps", "0,0", "--levels", "2"]) == 2


@pytest.mark.parametrize("argv", [
    ["hierarchy", "--eps", "2,3", "--levels", "2"],
    ["hierarchy", "--eps", "1/2,1", "--levels", "2"],
    ["lift-sim", "--eps", "3/2,1/4", "--stages", "2"],
], ids=["hierarchy", "hierarchy-eps-1", "lift-sim"])
def test_eps_outside_the_unit_interval_is_input_error(capsys, argv):
    """eps >= 1 asks no invariance of a level, and for eps > 1 the agreement
    bound (1 - eps)(1 - 3 eps) exceeds 1: input error, not a failed check."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: need one eps in (0, 1) per level")


def test_hierarchy_failed_invariance_exits_1(monkeypatch, capsys):
    """A failed invariance recheck is a verified property failing, not
    malformed input."""
    monkeypatch.setattr(quasitile._Window, "invariance", lambda self, eps: (False, 0))
    code = main(["hierarchy", "--levels", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "level 1 fails (1-box, eps) invariance" in captured.err


def test_hierarchy_ledger_is_the_real_check(capsys):
    """One grid-tiling and one invariance entry per level above the first,
    each with its counted sides: |covered| against |tile|, and |A \\ T|
    against eps|A|."""
    levels = 3
    code, out = run(capsys, "hierarchy", "--levels", str(levels))
    rep = json.loads(out)
    assert code == 0
    sides = rep["metrics"]["sides"]
    tiling = [c for c in rep["ledger"] if "|covered| = |tile|" in c["key"]]
    invariance = [c for c in rep["ledger"] if "invariance" in c["key"]]
    assert len(tiling) == len(invariance) == levels - 1
    assert len(rep["ledger"]) == 2 * (levels - 1)
    assert [(c["lhs"], c["rhs"]) for c in tiling] == [(s, s) for s in sides[1:]]
    # eps = 1/16, 1/32: the 32-box holds every 1-box translate, and the
    # 992-box loses the 31 last centers of its 32-box translates.
    assert [(c["lhs"], c["rhs"]) for c in invariance] == [
        (0, {"num": 2, "den": 1}),
        (31, {"num": 31, "den": 1}),
    ]
    assert all(c["verdict"] is True for c in rep["ledger"])
    assert not any(v is True for c in rep["ledger"] for v in (c["lhs"], c["rhs"]))


def test_z2_hierarchy_report_frozen(capsys):
    """The canonical ℤ² hierarchy report, byte for byte: each level's grid
    tiling and invariance counts, read off the level's one encoding."""
    code, out = run(capsys, "hierarchy", "--group", "z2", "--eps", "1/8,1/16,1/32", "--levels", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9a76c36af5fde24d2b9a494ca0b8ca35c0c10487f3b13c249b86cadc7cd861a3"
    )


@pytest.mark.parametrize("depth", ["0", "-5"])
def test_choice_link_depth_below_index_is_input_error(depth):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cberlab.cli", "choice-link", "--seed", "1", "--depth", depth],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: window depth")


def test_no_floats_in_reports(capsys):
    code, out = run(capsys, "hierarchy", "--levels", "2")
    assert code == 0
    payload = json.loads(out, parse_float=lambda s: pytest.fail(f"float {s}"))
    assert payload["outcome"] == "pass"


def test_lift_sim_small(capsys):
    code, out = run(capsys, "lift-sim", "--stages", "2", "--eps", "1/16,1/32")
    rep = json.loads(out)
    assert code == 0
    assert rep["outcome"] == "pass"


def test_lift_sim_outcome_is_read_off_the_ledger(capsys):
    """A sequence that does not halve fails its summability check, and the
    report says so: outcome "fail" beside the false verdict, and exit 1."""
    code, out = run(capsys, "lift-sim", "--eps", "1/16,1/16,1/16", "--stages", "2")
    rep = json.loads(out)
    verdicts = {c["key"]: c["verdict"] for c in rep["ledger"]}
    assert verdicts["summability: eps halves stage to stage"] is False
    assert (code, rep["outcome"]) == (1, "fail")


@pytest.mark.parametrize("knob", [["--seed", "0"], ["--out", "suite.json"]])
def test_suite_takes_no_seed_or_out(knob):
    """The suite's criteria fix their own seeds and it prints a table, so
    it accepts neither knob; argparse rejects them before any criterion runs."""
    with pytest.raises(SystemExit) as exc:
        main(["suite", *knob])
    assert exc.value.code == 2


def test_extend_and_hf_and_smooth(capsys):
    for argv in (["extend-link", "--seed", "2"], ["hf-link", "--seed", "2"],
                 ["link", "--seed", "4"], ["lift", "--seed", "6"],
                 ["choice-link", "--seed", "1", "--depth", "120"],
                 ["tile", "--group", "z2", "--eps", "2/5", "--size", "100000", "--chain", "9"]):
        code, out = run(capsys, *argv)
        assert code == 0, (argv, out)


def _old_stage_payload(out: str, d: int) -> str:
    """The report with each stage {side, eps, slots} spelled out as the
    interval payload it replaced: T_g = [[p/size, (p + 1)/size]] under str(g)
    for p = pi_n(g), g in row-major order over [0, side)^d, and base
    [[0, 1/size]].  So the old report is a function of the new one."""
    payload = json.loads(out)
    stages = []
    for st in payload["metrics"]["stages"]:
        side, slots = st["side"], st["slots"]
        size = len(slots)
        stages.append({
            "side": side,
            "eps": st["eps"],
            "base": [[Fraction(0), Fraction(1, size)]],
            "targets": {
                str(g): [[Fraction(p, size), Fraction(p + 1, size)]]
                for g, p in zip(itertools.product(range(side), repeat=d), slots)
            },
        })
    payload["metrics"]["stages"] = stages
    return canonical_json(payload) + "\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_lift_sim_report_frozen(capsys):
    """The canonical report of a 3-stage tower, byte for byte, and the
    interval payload it replaced, rebuilt from its slot lists."""
    code, out = run(capsys, "lift-sim", "--stages", "3", "--seed", "0")
    assert code == 0
    assert len(out.encode()) == 5037
    assert _digest(out) == "8521ca0e4823c2efdbb939c85f03fd82671c7124639ea6765623e67cfeb502a9"
    assert _digest(_old_stage_payload(out, 1)) == (
        "c65348d98eeedfbcede8f7626877c7f5da23ff01a58d9b788fbed78f726071c4"
    )


def test_z2_lift_sim_report_frozen(capsys):
    """The canonical report of a 2-stage tower over Z^2, byte for byte, with
    no floats, and the interval payload it replaced."""
    code, out = run(capsys, "lift-sim", "--group", "z2", "--eps", "1/8,1/16",
                    "--stages", "2", "--seed", "0")
    assert code == 0
    assert len(out.encode()) == 1627
    assert _digest(out) == "f4c23c8fd3ef8fc2d8858cae44f8d8b75b0fb7a26033851f8067217e28e2ee97"
    assert _digest(_old_stage_payload(out, 2)) == (
        "52084f3c5d471dca840e16d084335be26814e761470fee2c07f3555afe6c5976"
    )
    payload = json.loads(out, parse_float=lambda s: pytest.fail(f"float {s}"))
    assert payload["outcome"] == "pass"


def test_z2_lift_sim_nonzero_pair_report_frozen(capsys):
    """The canonical report of a 3-stage tower over Z^2, byte for byte: its
    pair (1, 2) report is taken at g = (1, 0), with agreement 3/4."""
    code, out = run(capsys, "lift-sim", "--group", "z2", "--eps", "1/2,1/4,1/8",
                    "--stages", "3", "--seed", "0")
    assert code == 0
    assert len(out.encode()) == 3300
    assert _digest(out) == "1ef5cb8eee42b462789ddaf49eb6d09e42f135be20d874efc8242438ca4f2b45"
    assert _digest(_old_stage_payload(out, 2)) == (
        "350fc4f1e0a8e3810fcb0fcf2ceabdce0eb0e1c3bf0b5792d312be15b91553d8"
    )


@pytest.mark.parametrize("group,d,eps", [
    ("z", 1, "1/16,1/32,1/64"),
    ("z2", 2, "1/2,1/4,1/8"),
], ids=["z", "z2"])
def test_lift_sim_slots_are_the_tower_permutations(capsys, group, d, eps):
    """Each emitted stage is pi_n itself: the tower's slot list, a
    permutation of range(side^d) that sends the identity to slot 0."""
    code, out = run(capsys, "lift-sim", "--group", group, "--eps", eps, "--stages", "3")
    assert code == 0
    fracs = [Fraction(x) for x in eps.split(",")]
    tower = build_tower(build_hierarchy(ZdGroup(d), fracs, 3), 3)
    emitted = json.loads(out)["metrics"]["stages"]
    assert len(emitted) == len(tower.stages)
    for st, tst in zip(emitted, tower.stages):
        assert st["slots"] == tst.slots
        assert sorted(st["slots"]) == list(range(st["side"] ** d))
        assert st["slots"][0] == 0


def test_choice_link_reports_frozen(capsys):
    """Canonical choice-link reports at depth 120: two exactly verified
    windows and two with truncated points."""
    frozen = {
        0: "549bf74bae4d65a7e5f316238a4f031edd2e9b9f7f1cf4d04033ccf773b6d3a6",
        1: "6c9a0f401294a8832a65f89aed55790eb55c92b5a8d536d703b201bc4e3a5b74",
        6: "fbc23856a221ba72e34550a278cbf414af3bbc96313420ea9af9ea9a20877b86",
        9: "f70446200fa6a0bf807cc73c09b4a519a72efeee7e504c8effadb8f05abdcd5b",
    }
    for seed, digest in frozen.items():
        code, out = run(capsys, "choice-link", "--seed", str(seed), "--depth", "120")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


def _equidecompose(tmp_path, capsys, a, b):
    # 8 points: E-classes {0,1}, {2,3}, {4,5}, {6,7}.
    raw = json.loads(build_block_instance([(2, 2), (2, 2)]).to_json())
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(dict(raw, A=a, B=b)))
    return run(capsys, "equidecompose", "--instance", str(path))


def test_equidecompose_ledger_is_the_real_check(tmp_path, capsys):
    code, out = _equidecompose(tmp_path, capsys, [0, 2, 2], [3, 1])
    rep = json.loads(out)
    assert code == 0 and rep["metrics"]["witness"] == [[0, 1], [2, 3]]
    assert [(c["lhs"], c["rhs"], c["verdict"]) for c in rep["ledger"]] == [(True, True, True)]
    code, out = _equidecompose(tmp_path, capsys, [0, 1], [0, 2])
    rep = json.loads(out)
    assert code == 0 and rep["metrics"]["witness"] is None
    assert [(c["lhs"], c["rhs"], c["verdict"]) for c in rep["ledger"]] == [(False, False, True)]


def test_equidecompose_point_outside_ground_set_is_input_error(tmp_path, capsys):
    # -1 used to wrap to point 7 and 99 to end in an IndexError traceback.
    for a in ([99], [-1], [[1]], 5, [True]):
        code, out = _equidecompose(tmp_path, capsys, a, [7])
        assert code == 2 and out == ""


def test_gen_report_frozen(capsys):
    code, out = run(capsys, "gen", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9ca494bf8db11cc2c8657ddeb0edc25505aac1373c7f5a6bd7210270965eb437"
    )


def test_tile_rechecks_are_exact_comparisons(capsys):
    """The eps-disjointness recheck compares the count of bad centers with
    0, and the budget recheck |B||C| with p|A| (p = 1 for the one shape):
    40 centers of the 5-segment on 200 points.  The raw budget |B||C| <= eps|A|
    fails on every passing run, so it is not a metric."""
    code, out = run(capsys, "tile", "--size", "200", "--eps", "2/5", "--chain", "5")
    assert code == 0
    ledger = {e["key"]: (e["lhs"], e["rhs"], e["verdict"]) for e in json.loads(out)["ledger"]}
    assert ledger["eps-disjointness (recheck): centers leaving A or adding"
                  " < (1-eps)|B| new points = 0"] == (0, 0, True)
    assert ledger["normalized budget |B||C| <= p|A| (recheck)"] == (
        200, {"den": 1, "num": 200}, True)
    assert set(json.loads(out)["metrics"]) == {"centers", "coverage"}


def test_tile_report_frozen_at_a_long_chain(capsys):
    """The canonical tile report of a 2000-point segment on 10^5 points of
    Z, byte for byte: the shape long enough that the walk's skip rule and
    the maximality recheck's run counts carry the run."""
    code, out = run(capsys, "tile", "--size", "100000", "--eps", "2/5", "--chain", "2000")
    assert code == 0
    assert len(out.encode()) == 1779
    assert _digest(out) == "63cf6f4c40c4548428d1b29ed56932eafd1a8b721f3c6e414fd68cf0c92cb371"
