"""The CLI contract under mutated instances and argument lists.

Every command but `suite` runs in process on drawn arguments, with instances
on stdin (`--instance -`); nothing is read from or written to a file.  Exit
0 means every check ran and passed, 1 that a verified property failed, 2
malformed input, and nothing else may escape.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from cberlab.cli import main
from cberlab.instances import gen_instance

BIG = 10**4
INSTANCE = ("verify-link", "link", "lift", "equidecompose", "choice-link")
OPTIONS = {  # command -> options beside --seed (and --instance); no --out
    "gen": ("--size", "--index"),
    "verify-link": (),
    "link": (),
    "lift": (),
    "equidecompose": (),
    "extend-link": (),
    "hf-link": (),
    "choice-link": ("--depth",),
    "tile": ("--group", "--eps", "--size", "--chain"),
    "hierarchy": ("--group", "--eps", "--levels"),
    "lift-sim": ("--group", "--eps", "--stages"),
}

ints = st.integers(-2, BIG).map(str)
fracs = st.builds("{}/{}".format, st.integers(-2, BIG), st.integers(0, BIG))
junk = st.one_of(
    ints,
    fracs,
    st.lists(st.one_of(ints, fracs), min_size=1, max_size=4).map(",".join),
    st.sampled_from(["z", "z2", "z3", "", "x", "-", "1.5", "1e3", "nan", "0,", ",1"]),
)
WELL_TYPED = {  # option -> values of its type, drawn as often as junk
    "--group": st.sampled_from(["z", "z2"]),
    "--eps": st.lists(fracs, min_size=1, max_size=4).map(",".join),
    "--chain": st.lists(ints, min_size=1, max_size=2).map(",".join),
}
leaves = st.one_of(
    st.integers(-3, BIG),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-3, BIG), max_size=3),
)


def _slots(node):
    """Every (container, key) of a JSON tree, depth first."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def instance_texts(draw) -> str:
    """A generated instance with an L and two point lists, then up to three
    edits: a value replaced by a leaf, a key or item dropped, or a leaf
    appended to a list."""
    inst = gen_instance(draw(st.integers(0, BIG)), draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    payload = json.loads(inst.to_json())
    points = st.lists(st.integers(0, inst.e.n - 1), max_size=inst.e.n)
    payload["L"] = draw(st.sampled_from([payload["E"], payload["F"], [[x] for x in range(inst.e.n)]]))
    payload["A"], payload["B"] = draw(points), draw(points)
    for _ in range(draw(st.integers(0, 3))):
        node, key = draw(st.sampled_from(list(_slots(payload))))
        edit = draw(st.sampled_from(["replace", "drop", "append"]))
        if edit == "replace":
            node[key] = draw(leaves)
        elif edit == "drop":
            del node[key]
        elif isinstance(node[key], list):
            node[key].append(draw(leaves))
        if not payload:
            break
    return json.dumps(payload)


@st.composite
def cases(draw) -> tuple[list[str], str]:
    """(argv, stdin): a command, drawn values for some of its options, and
    at times an option it does not have."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(("--seed", *OPTIONS[command])), unique=True)):
        argv += [option, draw(st.one_of(WELL_TYPED.get(option, ints), junk))]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--bogus", "1"]
    stdin = ""
    if command in INSTANCE and draw(st.integers(0, 4)) > 0:
        argv += ["--instance", "-"]
        stdin = draw(instance_texts())
    return argv, stdin


def run_main(argv: list[str], stdin: str) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Inputs that once ran for minutes: a ground set far beyond the listed
# points, and a shape longer than the window.
OVERSIZED = [
    (["link", "--instance", "-"], '{"n":10000000,"E":[[0]],"F":[[0]],"witness":[]}'),
    (["tile", "--size", "100", "--chain", "100000"], ""),
]


@settings(max_examples=200, deadline=None)
@given(case=cases())
@example(case=OVERSIZED[0])
@example(case=OVERSIZED[1])
def test_cli_contract_holds_on_mutated_input(case):
    argv, stdin = case
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2), (argv, code, err)
    report = json.loads(out) if out.strip() else None
    if isinstance(report, dict) and "outcome" in report:
        assert (code == 0) == (report["outcome"] == "pass"), (argv, code, report)
    if code == 2:
        assert out == "", argv
        assert err.startswith(("input error:", "usage:")), (argv, err)
    if code == 1:
        failed = isinstance(report, dict) and report.get("outcome") == "fail"
        assert failed or err.startswith("assertion failure:"), (argv, out, err)


@pytest.mark.parametrize("argv, stdin", OVERSIZED)
def test_oversized_inputs_exit_2_at_once(argv, stdin):
    """Refused before any work sized by the input."""
    start = time.perf_counter()
    code, out, err = run_main(argv, stdin)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and err.startswith("input error:")
