"""Self-tests of the benchmark: determinism, tracing neutrality, valid inputs
and metric names.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from cberlab import groups  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _cheap_items(workload: str, seed: int) -> list:
    """Every item of the workload that runs in well under a second."""
    items = workloads.make_items(workload, seed, Tracer(False))
    if workload == "links":
        return [it for it in items if it.kind != "bulk"]
    if workload == "tiling":
        return [it for it in items if it.kind == "covering" or it.sizes["A"] < 6000]
    return [workloads.Item(0, "tower", {"levels": 3}, (3, 5, 1, 3, 2, 4))]


def _outcomes(items, seed, traced=False):
    return [workloads.run_item(it, seed, Tracer(traced)) for it in items]


def _digest_line(workload: str, hash_seed: str) -> tuple[str, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0"],
        capture_output=True, text=True, check=True, timeout=170,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.strip().startswith("digest"))
    result = json.loads(lines[-1])
    assert result["correct"]
    return digest, result["failed"]


def test_same_seed_gives_same_digest_and_failures_across_processes():
    assert _digest_line("links", "1") == _digest_line("links", "2")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_outputs(workload):
    first = _outcomes(_cheap_items(workload, 5), 5)
    again = _outcomes(_cheap_items(workload, 5), 5)
    assert first == again


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_agree(workload):
    items = _cheap_items(workload, 6)
    assert _outcomes(items, 6, traced=True) == _outcomes(items, 6, traced=False)


@pytest.mark.parametrize("seed", (1, 2))
def test_every_pair_witness_passes_extend_by_group(seed):
    pairs = [it for it in workloads.make_items("links", seed, Tracer(False))
             if it.kind in ("wide", "bulk")]
    assert {it.kind for it in pairs} == {"wide", "bulk"}
    for it in pairs:
        e, f, wit, _ = it.inputs
        assert groups.extend_by_group(e, wit) == (f, True), it.sizes


def test_item_sizes_stay_in_their_ranges():
    for it in workloads.make_items("links", 4, Tracer(False)):
        if it.kind == "wide":
            assert it.sizes["n"] <= 27 and 6 <= it.sizes["index"] <= 9
        if it.kind == "bulk":
            assert 500 <= it.sizes["n"] <= 2000 and it.sizes["index"] <= 3
    tiles = [it for it in workloads.make_items("tiling", 4, Tracer(False)) if it.kind == "tile"]
    assert all(5000 <= it.sizes["A"] <= 50000 for it in tiles if it.sizes["group"] == "Z")


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(run.E2E_UNITS)
    assert layer == list(run.per_layer_units(workloads))
    assert [m["unit"] for m in spec["per_layer"]] == list(run.per_layer_units(workloads).values())
    for name in e2e + layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "links", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
