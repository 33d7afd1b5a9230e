"""Run every workload and print every metric; optionally write a trajectory point.

    python3 perfbench/trajectory.py --seeds 1-3
    python3 perfbench/trajectory.py --seeds 1-10 --point 0   # writes perfbench/BENCH_0.json

Each workload runs once per seed untraced and once traced (on the first
seed), each run in its own process and for the `run_seconds` of
BENCHMARK.json.  For every end-to-end metric the median,
the quartiles and the spread, (q3 - q1) / median, over the seeds are printed;
the traced run's report is printed whole, with its failures by type, its
digest check and every per-layer metric.  Compare two points only when they
were taken on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("links", "tiling", "tower")
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SECONDS = json.load(_fh)["run_seconds"]


def _run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    ap.add_argument("--point", type=int, help="write perfbench/BENCH_<point>.json")
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    out = {
        "point": args.point,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seeds": seeds,
        "seconds": SECONDS,
        "workloads": {},
    }
    print(f"python {out['python']}  {out['platform']}  nproc {out['nproc']}  seeds {args.seeds}")
    ok = True
    for workload in WORKLOADS:
        runs = [_run(workload, s, 0)[0] for s in seeds]
        traced, report = _run(workload, seeds[0], 1)
        entry = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {k: {"unit": v["unit"], **_summary([r["metrics"][k]["value"] for r in runs])}
                           for k, v in runs[0]["metrics"].items()},
            "per_layer": traced["metrics"],
        }
        out["workloads"][workload] = entry
        ok = ok and entry["correct"]
        print(f"\n{workload}: {len(seeds)} untraced runs, correct {entry['correct']}, failed_frac "
              f"{entry['failed'] / entry['attempted']:.6g} ({entry['failed']}/{entry['attempted']})")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<14} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.3f}")
        print(report)
    if args.point is not None:
        path = os.path.join(HERE, f"BENCH_{args.point}.json")
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
