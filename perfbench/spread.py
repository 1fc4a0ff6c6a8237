"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads ladder,jitter,verify --seeds 1-10
                                [--seconds S] [--out F]

Runs ``run.py`` once per workload and seed, one process at a time, from
the checkout root.  For each metric it prints the median over runs and
the quartile spread (Q3 - Q1) / median, with ``statistics.quantiles(n=4)``,
for the reported estimator (the mean of a run's repetitions), and for
the minimum and the median of the repetitions, next to a third of the
metric's bound in BENCHMARK.json.  It also checks that the share of
failed operations is the same in every run of a workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    return {"seed": seed, "result": result, "detail": detail}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        reported = [r["result"]["metrics"][name]["value"] for r in runs]
        row = {"median": statistics.median(reported), "spread": spread(reported),
               "bound": bound, "values": reported}
        if name in runs[0]["detail"]:
            row["other"] = {}
            for label, estimator in (("min", min), ("median", statistics.median)):
                per_run = [estimator(r["detail"][name]) for r in runs]
                row["other"][label] = {"median": statistics.median(per_run), "spread": spread(per_run)}
        out[name] = row
    shares = {Fraction(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
    out["failed_share"] = [str(s) for s in sorted(shares)]
    out["reps"] = [len(r["detail"]["solve_s"]) for r in runs]
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", help="write every run and the summary as JSON")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds) for seed in _seeds(args.seeds)]
        summary = summarise(runs, bounds)
        report[workload] = {"runs": runs, "summary": summary}
        print(f"{workload}: reps per run {summary['reps']}, failed share {summary['failed_share']}")
        steady &= len(summary["failed_share"]) == 1
        for name in bounds:
            row = summary[name]
            line = (f"  {name:12s} median {row['median']:.4g}  spread {row['spread']:.3%}"
                    f"  (bound/3 {row['bound'] / 3:.3%})")
            for label, other in row.get("other", {}).items():
                line += (f"  | {label} over repetitions: median {other['median']:.4g}"
                         f"  spread {other['spread']:.3%}")
            print(line, flush=True)
            steady &= name == "setup_s" or row["spread"] <= row["bound"]
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
