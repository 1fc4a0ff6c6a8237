"""Command line front end.

Subcommands:

  verify        run the verification suite, emit a JSON report
  interpolate   interpolation convergence study over refined meshes (CSV)
  solve         solve the model problem over refined meshes (CSV)
  basis         dump the global kernel basis as JSON lines plus a
                dimension audit

Exit codes: 0 success, 1 a verification or audit check failed, 2 bad
usage (a missing or unwritable path included), 3 numerical failure
(solver breakdown or singular system).  A PCG that does not reach
``--tol`` within its iteration cap is such a failure: ``solve`` names it
on stderr and exits 3.  ``solve`` and ``interpolate`` write each CSV row
as soon as its mesh is finished, so a failure keeps the rows of the
meshes before it.

A JSON config file can preload any long option (keys use either dashes
or underscores); explicit command line flags win.  A key that is no
command's long option exits 2 and is named on stderr.  CSV output is
deterministic for a fixed input except for the wall_ms column.

Each subcommand loads only the layers it uses.  Importing this module
loads numpy and the exact layers (forms, simplices, element, mesh,
fields, verify), which is all that ``verify`` needs: it loads no scipy.
The scipy-backed layers are imported inside the commands that use
them: ``basis`` imports globalspace (scipy.sparse), and ``solve`` and
``interpolate`` import solver (scipy.sparse and scipy.sparse.linalg).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from .fields import DEFAULT_FIELD, FIELDS, get_field
from .mesh import (
    CRISSCROSS,
    DIAGONAL,
    Triangulation,
    check_mesh_parameter,
    generate_square_mesh,
    read_mesh,
)
from .simplices import quadrature_rule
from .verify import full_suite

if TYPE_CHECKING:
    from .solver import StudyRow

__all__ = ["main"]

_PATTERNS = {"diagonal": DIAGONAL, "crisscross": CRISSCROSS}

CSV_HEADER = "mesh_m,h,dofs,l2_err,rot_err,div_err,energy_err"
CSV_HEADER_SOLVE = CSV_HEADER + ",cg_iters,wall_ms"


def _load_mesh(args) -> Triangulation:
    if args.mesh_file:
        return read_mesh(args.mesh_file)
    return generate_square_mesh(args.mesh_m, _PATTERNS[args.pattern])


def _parse_refinements(value) -> list[int]:
    """Mesh levels from a comma separated string or a config list; usage errors exit 2."""
    tokens = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        # through str, so a float such as 2.5 in a config list is refused, not truncated
        ms = [int(str(tok)) for tok in tokens if str(tok).strip()]
    except ValueError:
        ms = None
    if not ms:
        msg = f"error: --refinements takes comma separated integers, got {value!r}"
        print(msg, file=sys.stderr)
        raise SystemExit(2)
    return ms


def _check_study_args(ms: list[int], quad_order: int) -> None:
    """Raise the owners' ValueErrors for a bad mesh level or quadrature order,
    and a ValueError for a repeated level, which leaves no rate to fit.

    Run before any output, so a usage error writes no CSV.
    """
    for i, m in enumerate(ms):
        check_mesh_parameter(m)
        if m in ms[:i]:
            raise ValueError(f"mesh level {m} is repeated in --refinements")
    quadrature_rule(2, quad_order)


@contextmanager
def _output(path: str | None):
    """stdout for no path or "-", else the file at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as f:
            yield f


def _csv_row(row: StudyRow) -> str:
    """The row under CSV_HEADER, or under CSV_HEADER_SOLVE for a solve's row."""
    e = row.errors
    base = (
        f"{row.m},{row.h:.12g},{row.dofs},{e['l2']:.12e},{e['rot']:.12e},"
        f"{e['div']:.12e},{e['energy']:.12e}"
    )
    if row.cg_iters is not None:
        base += f",{row.cg_iters},{row.wall_ms:.3f}"
    return base


def cmd_verify(args) -> int:
    for option in ("simplices", "triangles"):
        if getattr(args, option) < 0:
            raise ValueError(f"--{option} must be a count >= 0, got {getattr(args, option)}")
    checks = full_suite(
        seed=args.seed, norm_count=args.simplices, triangle_count=args.triangles
    )
    failed = [c for c in checks if not c.passed]
    report = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "passed": len(checks) - len(failed),
        "failed": len(failed),
    }
    with _output(args.out) as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    for c in failed:
        print(c.line(), file=sys.stderr)
    return 1 if failed else 0


def cmd_study(args) -> int:
    """``interpolate`` and ``solve``: one CSV row per mesh, written as soon
    as the mesh is finished, then the fitted energy rate on stderr.

    The command name, not the options, decides whether the study solves,
    since a config file preloads ``--tol`` and ``--oracle`` for every
    command.  Exit 1 when an oracle gap or residual is over its bound or
    not a number.
    """
    from .solver import check_tol, fit_rate, study

    field = get_field(args.field)
    ms = _parse_refinements(args.refinements)
    _check_study_args(ms, args.quad_order)
    header, tol, oracle_max_m = CSV_HEADER, None, None
    if args.command == "solve":
        check_tol(args.tol, "--tol")
        header, tol = CSV_HEADER_SOLVE, args.tol
        oracle_max_m = {"on": max(ms), "auto": 4, "off": None}[args.oracle]
    rows = study(field, ms, _PATTERNS[args.pattern], args.quad_order, tol, oracle_max_m)
    done: list[StudyRow] = []
    status = 0
    with _output(args.out) as out:
        out.write(header + "\n")
        for row in rows:
            done.append(row)
            out.write(_csv_row(row) + "\n")
            if row.oracle_gap is not None:
                print(
                    f"oracle m={row.m}: energy gap {row.oracle_gap:.3e}, constraint residual "
                    f"{row.oracle_residual:.3e}",
                    file=sys.stderr,
                )
                if not (row.oracle_gap <= 1e-8 and row.oracle_residual <= 1e-10):
                    status = 1
    if len(done) >= 2:
        print(f"fitted energy rate: {fit_rate(done):.4f}", file=sys.stderr)
    return status


def cmd_basis(args) -> int:
    from .globalspace import build_constraints, build_global_basis, build_product_space

    tri = _load_mesh(args)
    prod = build_product_space(tri)
    cons = build_constraints(tri, prod)
    basis = build_global_basis(tri, prod)
    try:
        rank, nullity = cons.rank(), cons.nullity()
    except ValueError as exc:
        reason = str(exc).removeprefix("rank audit: ")
        print(f"basis: rank audit failed: {reason}", file=sys.stderr)
        return 1
    with _output(args.out) as out:
        for fn in basis.functions:
            out.write(
                json.dumps(
                    {
                        "category": fn.category,
                        "anchor": fn.anchor,
                        "cells": list(fn.cells),
                        "entries": [[idx, str(val)] for idx, val in fn.entries],
                    }
                )
                + "\n"
            )
        audit = {
            "cells": len(tri.cells),
            "vertices": len(tri.vertices),
            "interior_vertices": len(tri.interior_vertices),
            "product_dim": prod.dim,
            "constraint_rows": cons.rows,
            "rank": rank,
            "nullity": nullity,
            "basis_count": len(basis),
            "counts": basis.counts(),
            "count_matches_nullity": len(basis) == nullity,
        }
        out.write(json.dumps({"audit": audit}) + "\n")
    return 0 if len(basis) == nullity else 1


def _add_mesh_flags(p, refinements_default):
    p.add_argument("--pattern", choices=sorted(_PATTERNS), default="diagonal")
    p.add_argument(
        "--refinements",
        default=refinements_default,
        help="comma separated mesh parameters, e.g. 2,4,8,16",
    )
    p.add_argument("--quad-order", type=int, default=6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgefem",
        description="Nonconforming finite elements for fields with rot and div control",
    )
    parser.add_argument("--config", help="JSON file preloading any long option")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification suite (JSON report)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simplices", type=int, default=100, help="simplices per norm check")
    p.add_argument("--triangles", type=int, default=1000, help="triangles for unisolvence")
    p.add_argument("--out", type=str, help="output path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("interpolate", help="interpolation convergence study (CSV)")
    p.add_argument("--field", choices=sorted(FIELDS), default=DEFAULT_FIELD)
    _add_mesh_flags(p, "2,4,8,16")
    p.add_argument("--out", type=str, help="output path (default stdout)")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("solve", help="solve the model problem (CSV)")
    p.add_argument("--field", choices=sorted(FIELDS), default=DEFAULT_FIELD)
    _add_mesh_flags(p, "4,8,16,32")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument(
        "--oracle",
        choices=["auto", "on", "off"],
        default="auto",
        help=(
            "run the saddle-point cross-check, which eliminates the cells and "
            "factors the multiplier system of B "
            "(auto: meshes with m <= 4)"
        ),
    )
    p.add_argument("--out", type=str, help="output path (default stdout)")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("basis", help="dump the global basis (JSON lines + audit)")
    p.add_argument("--mesh-m", type=int, default=4)
    p.add_argument("--mesh-file", type=str, help="read the mesh from a file instead")
    p.add_argument("--pattern", choices=sorted(_PATTERNS), default="diagonal")
    p.add_argument("--out", type=str, help="output path (default stdout)")
    p.set_defaults(func=cmd_basis)
    return parser


def _check_config_value(key, value, action: argparse.Action) -> None:
    """Raise ValueError naming ``key`` when a JSON value does not fit its option.

    A string passes: argparse converts a string default with the option's
    ``type=`` and reports a bad one itself.  Other values are kept as
    they are, so an ``int`` option takes a JSON integer, a ``float``
    option a JSON number, a ``str`` option (a path) nothing else, and an
    option with choices one of them.
    """
    if isinstance(value, str):
        return
    kinds = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}
    if action.type in kinds:
        allowed, what = kinds[action.type]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"key {key!r} takes {what}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"key {key!r} takes one of {', '.join(action.choices)}, got {value!r}")


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path} holds a JSON {type(cfg).__name__}, not an object")
    defaults = {str(k).replace("-", "_"): v for k, v in cfg.items()}
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    # a key must be the long option of some command; it then reaches
    # every subparser, so the defaults apply regardless of command
    options = {a.dest: a for p in parsers for a in p._actions if a.option_strings}
    options.pop("help")
    unknown = [k for k in cfg if str(k).replace("-", "_") not in options]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    for k, v in cfg.items():
        _check_config_value(k, v, options[str(k).replace("-", "_")])
    for p in parsers:
        p.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error reading config: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # a missing or unwritable path is bad usage
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
