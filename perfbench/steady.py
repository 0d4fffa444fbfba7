"""Steadiness check: repeat every workload and compare two sets of runs.

Run from the root of a clawvol checkout:

    python3 perfbench/steady.py [--first-seed 1]

It makes two sets of ten runs of every workload.  Each run is ``run.py`` in
a fresh process with its own seed, counting up from ``--first-seed``.
Within a set the workload order alternates from one repetition to the next,
so a slow stretch of the machine does not always land on the same workload.
For every workload and end-to-end metric the command prints the median and
quartiles of each set, the quartile spread as a share of the median, and
the change of the median from the first set to the second.  A metric passes
when both spreads and the change stay within its bound in BENCHMARK.json;
a spread above a third of the bound is flagged.  The share of failed
operations must be the same in every run.  Raw results go to
``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
RUNS = 10  # per workload and set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    took = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"steady: {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, took_s=took)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(before: float, after: float, better: str) -> float:
    """Share by which ``after`` is worse than ``before`` (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def analyse(results: list[dict], spec: dict) -> bool:
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in results if r["workload"] == workload]
        if not mine:
            continue
        print(f"\n{workload}")
        # Whole rounds in every run: the failed share must not move at all.
        shares = {Fraction(r["failed"], r["attempted"]) for r in mine}
        if len(shares) > 1 or not all(r["correct"] for r in mine):
            ok = False
        print(f"  failed share: {', '.join(map(str, sorted(shares)))}; "
              f"correct in {sum(r['correct'] for r in mine)} of {len(mine)} runs")
        print(f"  {'metric':14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'change':>7}  bound")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in mine if r["set"] == s]
                median, q1, q3, rel = spread(values)
                change = "" if first is None else worse_by(first, median, metric["better"])
                bad = rel > bound or (change != "" and change > bound)
                ok = ok and not bad
                first = median if first is None else first
                change_text = f"{change:+7.3f}" if change != "" else " " * 7
                flag = "  FAIL" if bad else ("" if rel < bound / 3
                                            else "  (spread above a third of the bound)")
                print(f"  {name:14} {s:>3} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{rel:7.3f} {change_text}  {bound}{flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / time.strftime("steady-%Y%m%d-%H%M%S.json")

    results = []
    seed = args.first_seed
    for s in range(SETS):
        for rep in range(RUNS):
            order = workloads if (s * RUNS + rep) % 2 == 0 else workloads[::-1]
            for workload in order:
                result = run_once(workload, seed, spec["run_seconds"])
                result["set"] = s
                results.append(result)
                out_path.write_text(json.dumps(results, indent=1))
                print(f"set {s} run {rep} {workload} seed {seed}: {result['took_s']:.1f} s",
                      file=sys.stderr, flush=True)
                seed += 1

    ok = analyse(results, spec)
    print(f"\n{'steady: two sets agree within the bounds' if ok else 'steady: NOT within the bounds'}"
          f" ({out_path.name})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
