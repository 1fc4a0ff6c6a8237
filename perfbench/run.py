"""Benchmark command: one named workload per run.

    python3 perfbench/run.py --workload ladder|jitter|verify --seed N
                             --seconds S --trace 0|1 [--levels 32,64] [--out F]

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  With ``--trace 0`` the workload repeats
identical, freshly built work for ``--seconds`` seconds and the last
stdout line reports the end-to-end metrics (means over repetitions)
with the attempted and failed operation counts.  With ``--trace 1`` one
traced repetition of every workload gives the per-layer metrics, and
the spans are written to ``--out``.  ``--levels`` replaces the ladder
levels of a traced run and prints the per-stage baseline table.  A wrong
output ends the run with exit status 1 and no result line.
"""

import os

# One BLAS/OpenMP thread: steadier, and no slower on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"


def _load_package():
    """Import the workloads against this checkout's ``src``, or exit 2."""
    if not (SRC / "hodgefem" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'hodgefem'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hodgefem

    if Path(hodgefem.__file__).resolve().parent != SRC / "hodgefem":
        print(f"run.py: imported hodgefem from {hodgefem.__file__}", file=sys.stderr)
        sys.exit(2)
    import checks
    import measure

    return checks, measure


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["ladder", "jitter", "verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--levels", help="ladder levels of a traced run, e.g. 32,64 or 32,64,128")
    p.add_argument("--out", help="trace file (default perfbench/out/trace-<workload>-<seed>.json)")
    args = p.parse_args(argv)
    levels = tuple(int(x) for x in args.levels.split(",")) if args.levels else None
    if levels and not (args.trace and args.workload == "ladder"):
        p.error("--levels needs --workload ladder --trace 1")

    checks, measure = _load_package()
    try:
        if args.trace:
            name = f"BENCH_m{'-'.join(map(str, levels))}" if levels else (
                f"trace-{args.workload}-{args.seed}")
            out = Path(args.out) if args.out else OUT_DIR / f"{name}.json"
            result = measure.traced_run(args.seed, levels, out)
        else:
            wl = measure.workloads.WORKLOADS[args.workload](args.seed)
            result = measure.timed_run(wl, args.seconds)
    except checks.CheckFailed as exc:
        print(f"run.py: wrong output: {exc}", file=sys.stderr)
        return 1
    line = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
