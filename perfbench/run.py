"""cberlab benchmark: seeded closed-loop workloads with verified outputs.

    python3 perfbench/run.py --workload links --seed 1 --seconds 10 --trace 0

One process runs one workload on one thread.  Items run one after another,
each checked before the next starts; one pass runs every seeded item once,
and passes repeat until --seconds have elapsed.  The last stdout line is a
JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
with --trace 0, per-layer metrics from spans with --trace 1.  Times are
calibrated to a nominal CPU speed (see calibrate.py).  trajectory.py runs
every workload and prints every metric by name.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
# items per run: at least 10 samples beyond p90 (tower has one long item)
MIN_ITEMS = {"links": 100, "tiling": 100, "tower": 1}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


@dataclass
class Pass:
    traced: bool
    slowdown: float  # host slowdown over the pass; `wall` is divided by it
    wall: float
    raw_wall: float  # uncalibrated, speed-probe time included, as spans see it
    latencies: list[float]
    digests: list[str]
    failures: list[str]  # exception type, or "CheckFailed", per failed item
    tracer: object


def _load_program():
    """Import the program from the checkout's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "cberlab", "__init__.py")):
        sys.exit(f"perfbench: no cberlab sources under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, HERE]
    import workloads
    return workloads


def per_layer_units(workloads) -> dict[str, str]:
    units = {}
    for name in workloads.CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    for name in workloads.COUNTERS:
        units[name] = "bytes" if name == "report.bytes" else "count"
    units["links.useful_ratio"] = "frac"
    units["choice.emitted_ratio"] = "frac"
    for kind in workloads.LINK_KINDS:
        units[f"links.item.{kind}.busy_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    units["trace.span_coverage"] = "frac"
    return units


def run_pass(items, seed, tr, workloads) -> Pass:
    """One closed-loop pass over every item, timed under a speed probe.

    The pass time and every item latency are divided by the host's slowdown
    over the whole pass.
    """
    from calibrate import SpeedProbe, clock

    raw, digests, failures = [], [], []  # raw: item latency, probe time taken out
    with SpeedProbe() as probe:
        t0 = clock()
        for item in items:
            t, spent = clock(), probe.spent
            with tr.span(f"item.{item.kind}", item=item.id, **item.sizes):
                text, passed, error = workloads.run_item(item, seed, tr)
            raw.append(clock() - t - (probe.spent - spent))
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            if not passed:
                failures.append(error or "CheckFailed")
        raw_wall = clock() - t0
    k = probe.slowdown()
    return Pass(tr.enabled, k, (raw_wall - probe.spent) / k, raw_wall,
                [lat / k for lat in raw], digests, failures, tr)


def measure(args) -> int:
    workloads = _load_program()
    from calibrate import clock, slowdown_now
    from tracing import Tracer

    setup_tr = Tracer(bool(args.trace))
    items = workloads.make_items(args.workload, args.seed, setup_tr)
    raw_setup = clock() - START
    setup_k = slowdown_now()  # host slowdown for the set-up times and spans
    if args.probe_setup:
        print(raw_setup / setup_k)
        return 0
    if args.record:
        p = run_pass(items, args.seed, Tracer(False), workloads)
        digest = hashlib.sha256("".join(p.digests).encode()).hexdigest()
        _record_digest(args.workload, args.seed, digest)
        print(f"{args.workload} seed {args.seed}: stored {digest}")
        return 0
    setup_s = statistics.median(_probe_setup(args) for _ in range(SETUP_PROBES))

    passes: list[Pass] = []
    t_run = clock()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(items, args.seed, Tracer(traced), workloads))
        done = (clock() - t_run >= args.seconds
                and len(passes) * len(items) >= MIN_ITEMS[args.workload])
        if done and (not args.trace or len(passes) >= 2):
            break

    repeat_ok = all(p.digests == passes[0].digests for p in passes)
    run_digest = hashlib.sha256("".join(passes[0].digests).encode()).hexdigest()
    stored = _stored_digests().get(args.workload, {}).get(str(args.seed))
    digest_ok = stored is None or stored == run_digest
    attempted = sum(len(p.digests) for p in passes)
    failures = [f for p in passes for f in p.failures]

    untraced = [p for p in passes if not p.traced]
    lat = sorted(x for p in untraced for x in p.latencies)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in untraced),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_p90_ms": 1e3 * p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in lat if x > p90)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  items/pass {len(items)}  host slowdown "
          + " ".join(f"{p.slowdown:.3f}" for p in passes))
    for name, value in e2e.items():
        extra = f"  ({len(lat)} samples, {beyond} beyond p90)" if name.startswith("item_") else ""
        print(f"  {name:<14} {value:.6g} {E2E_UNITS[name]}{extra}")
    print(f"  failed_frac    {len(failures) / attempted:.6g} ({len(failures)}/{attempted})"
          + "".join(f"  {t}x{failures.count(t)}" for t in sorted(set(failures))))
    status = ("not stored for this seed" if stored is None
              else "matches stored digest" if digest_ok else f"DIFFERS from stored {stored}")
    print(f"  digest         {run_digest} {status}; passes identical: {repeat_ok}")

    if args.trace:
        metrics, traced_pass = _per_layer(workloads, passes, setup_tr, setup_k)
        units = per_layer_units(workloads)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.jsonl")
        setup_tr.dump(path, "setup", "w")
        traced_pass.tracer.dump(path, "pass", "a")
        for name in units:
            print(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
        print(f"  raw spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics, units = e2e, E2E_UNITS

    result = {
        "correct": bool(repeat_ok and digest_ok),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def _per_layer(workloads, passes: list[Pass], setup_tr, setup_k: float):
    """Per-layer metrics from the set-up spans plus the traced pass of median
    wall, each span time divided by the slowdown of its phase."""
    traced = sorted((p for p in passes if p.traced), key=lambda p: p.wall)
    tp = traced[(len(traced) - 1) // 2]
    calls, b1 = setup_tr.busy()
    c2, b2 = tp.tracer.busy()
    calls.update(c2)
    busy = Counter({name: s / setup_k for name, s in b1.items()})
    busy.update({name: s / tp.slowdown for name, s in b2.items()})
    counters = setup_tr.counters + tp.tracer.counters
    out = {}
    for name in workloads.CALLS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
    for name in workloads.COUNTERS:
        out[name] = counters[name]
    out["links.useful_ratio"] = _ratio(counters["links.link_classes"], counters["links.fsr_candidates"])
    out["choice.emitted_ratio"] = _ratio(counters["choice.emitted_points"], counters["choice.window_points"])
    for kind in workloads.LINK_KINDS:
        out[f"links.item.{kind}.busy_s"] = busy[f"item.{kind}"]
    untraced_wall = statistics.median(p.wall for p in passes if not p.traced)
    out["trace.overhead_frac"] = tp.wall / untraced_wall - 1
    out["trace.span_coverage"] = tp.tracer.top_level_seconds() / tp.raw_wall
    return out, tp


def _ratio(num, den):
    return num / den if den else 0.0


def _probe_setup(args) -> float:
    """Calibrated set-up time of a fresh interpreter: imports plus building the inputs."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _stored_digests() -> dict:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _record_digest(workload: str, seed: int, digest: str) -> None:
    data = _stored_digests()
    table = data.setdefault(workload, {})
    table[str(seed)] = digest
    data[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, DIGESTS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("links", "tiling", "tower"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="run one pass and store its digest as the expected one for the seed")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return measure(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
