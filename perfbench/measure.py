"""Timed and traced runs of the workloads, and the baseline table."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads


def _unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name or "_s_per_iter" in name:
        return "s"
    if "cells_per_template" in name:
        return "cells/template"
    if "true_rel_residual" in name:
        return "ratio"
    return "count"


def _check_failures(rec, known) -> None:
    unexpected = [name for name in rec.failed if name not in known]
    if unexpected:
        raise checks.CheckFailed(f"operations failed: {', '.join(unexpected)}")


def timed_run(wl, seconds: float) -> dict:
    """Repeat the workload for ``seconds``; means over repetitions, untraced."""
    attempted = failed = 0
    known = workloads.KNOWN_FAULTS.get(wl.name, set())
    reps = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        rec = workloads.Recorder(traced=False)
        wl.repeat(rec)
        _check_failures(rec, known)
        reps.append(rec.phases)
        attempted += rec.attempted
        failed += len(rec.failed)
        # whole repetitions only, and none that would end past the deadline
        now = perf_counter()
        if now + (now - start) > deadline:
            break
    setup_samples = [r["setup"] for r in reps]
    solve_samples = [r["solve"] for r in reps]
    # every repetition on stderr, so spread.py can compare estimators
    print(json.dumps({"workload": wl.name, "setup_s": setup_samples, "solve_s": solve_samples}),
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.mean(setup_samples), "s"),
        "solve_s": (statistics.mean(solve_samples), "s"),
        "peak_rss_mb": (workloads.peak_rss_mb(), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _span_cost(n: int = 2000) -> float:
    """Seconds one traced call adds, measured on empty calls."""
    rec = workloads.Recorder(traced=True)
    t0 = perf_counter()
    for _ in range(n):
        with rec.call("empty"):
            pass
    return (perf_counter() - t0) / n


def _baseline_table(rec, levels) -> str:
    cols = [
        ("mesh", "mesh.build_s"), ("prod", "globalspace.product_s"),
        ("basis", "globalspace.basis_s"), ("assemble", "solver.assemble_s"),
        ("CG", "solver.cg_s"), ("errors", "solver.errors_s"),
        ("interp", "globalspace.interpolate_s"), ("constraints", "globalspace.constraints_s"),
        ("rank", "globalspace.rank_s"), ("oracle", "solver.oracle_s"),
    ]
    head = ["m", "cells", "dofs", "CG iters"] + [c for c, _ in cols] + ["peak RSS MB"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    v = rec.values
    for m in levels:
        tag = f"m{m}"
        row = [str(m), f"{v[f'mesh.cells.{tag}']:,}", f"{v[f'globalspace.dofs.{tag}']:,}",
               f"{v[f'solver.cg_iters.{tag}']:,}"]
        for _, key in cols:
            t = v.get(f"{key}.{tag}")
            row.append("—" if t is None else f"{1000 * t:,.0f}")
        rss = max(s["rss_mb"] for s in rec.spans if s["name"].endswith("." + tag))
        row.append(f"{rss:,.0f}")
        lines.append("| " + " | ".join(row) + " |")
    return "times in ms\n" + "\n".join(lines)


def traced_run(seed: int, levels, out: Path) -> dict:
    """One traced repetition of every workload (of the ladder alone with --levels)."""
    # warm-up: fills quadrature_rule's cache and the lazy scipy imports
    workloads.Ladder(seed, levels=(4,)).repeat(workloads.Recorder(traced=False))
    rec = workloads.Recorder(traced=True)
    todo = [workloads.Ladder(seed, levels=levels or workloads.LADDER_LEVELS)]
    if not levels:
        todo += [workloads.Jitter(seed), workloads.Verify(seed)]
    failure = None
    for wl in todo:
        rec.rep = wl.name
        try:
            wl.repeat(rec)
        except checks.CheckFailed as exc:
            if not levels:
                raise
            failure = exc  # the table is still written, then the run fails
        _check_failures(rec, set().union(*workloads.KNOWN_FAULTS.values()))
    for method in ("pcg", "dense-fallback", "raised"):
        rec.values.setdefault(f"solver.cg_method.{method}", 0)
    rec.value("trace.spans", len(rec.spans))
    rec.value("trace.overhead_s", len(rec.spans) * _span_cost())

    for span in rec.spans:
        inner = sum(c["end"] - c["start"] for c in rec.spans if c["parent"] == span["id"])
        span["self_s"] = span["end"] - span["start"] - inner
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"seed": seed, "levels": list(levels or workloads.LADDER_LEVELS),
           "values": rec.values, "spans": rec.spans}
    if levels:
        doc["table"] = _baseline_table(rec, levels)
        print(doc["table"], file=sys.stderr)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"trace written to {out}", file=sys.stderr)
    if failure is not None:
        raise failure
    metrics = {name: (v, _unit(name)) for name, v in sorted(rec.values.items())}
    return {"attempted": rec.attempted, "failed": len(rec.failed), "metrics": metrics}
