"""The benchmark's workloads and the recorder that times them.

A workload builds its inputs from the seed once, in its constructor,
and then runs identical repetitions through ``repeat(rec)``.  Each
repetition builds everything afresh from those inputs, times its
``setup`` and ``solve`` phases on the recorder, and checks its outputs
(``checks.CheckFailed`` on a wrong answer).  Only the package's public
functions are called; every call into a layer is one operation and,
when the recorder traces, one span.
"""

from __future__ import annotations

import random
import re
import resource
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import hodgefem
from hodgefem.fields import as_callback, get_field
from hodgefem.globalspace import (
    build_constraints,
    build_global_basis,
    build_product_space,
    global_interpolate,
)
from hodgefem.mesh import DIAGONAL, Triangulation, format_mesh, generate_square_mesh, parse_mesh
from hodgefem.solver import assemble, error_norms, solve_oracle, solve_system
from hodgefem.verify import identity_suite, norm_suite, unisolvence_suite

import checks

FIELD = "polyflow"
TOL = 1e-10
LADDER_LEVELS = (16, 32)
# The oracle's sparse factorization and the dense rank audit are run
# up to these levels; the audit needs O(rows^2) memory (1 GB at m = 64).
ORACLE_MAX_M = 64
RANK_MAX_M = 32
# Interior vertices move by (i, j) / (16 m) with integers |i|, |j| <= 3,
# about a fifth of h, so every cell becomes its own template.
JITTER_STEPS = 3
# jitter4 takes the run's seed; PCG needs at most 0.57 of its iteration
# cap there over seeds 0-99.  jitter16 is the kept fault: with this
# fixed seed Jacobi PCG needs 6,422 iterations against a cap of 5,057,
# and solve_cg raises.
JITTER_SEEDED_M = 4
JITTER_FAULT_M = 16
JITTER_FAULT_SEED = 1
KNOWN_FAULTS = {"jitter": {f"solver.cg_s.jitter{JITTER_FAULT_M}"}}
VERIFY_NORM_COUNT = 120
VERIFY_TRIANGLE_COUNT = 200
IMPORT_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import hodgefem.cli; print(time.perf_counter() - t0)"
)

_CG_ITERS = re.compile(r"did not converge in (\d+) iterations")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Times one repetition: its phases always, its layer calls when traced.

    Every ``call`` is one attempted operation; a call that raises counts
    as failed.  When tracing, each phase and call is a span (id, name,
    parent, repetition, start, end, peak RSS at its end), kept in memory,
    and ``values`` holds each call's duration and the counts recorded
    next to it.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.rep = "0"
        self.phases: dict[str, float] = {}
        self.spans: list[dict] = []
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed: list[str] = []
        self._parent: int | None = None

    @contextmanager
    def _span(self, name: str, is_phase: bool):
        span = None
        if self.traced:
            span = {"id": len(self.spans), "name": name, "parent": self._parent, "rep": self.rep}
            self.spans.append(span)
            parent, self._parent = self._parent, span["id"]
        ok = False
        t0 = perf_counter()
        try:
            yield
            ok = True
        finally:
            t1 = perf_counter()
            if is_phase:
                self.phases[name] = self.phases.get(name, 0.0) + (t1 - t0)
            elif not ok:
                self.failed.append(name)
            if span is not None:
                self._parent = parent
                span.update(start=t0, end=t1, ok=ok, rss_mb=peak_rss_mb())
                if not is_phase:
                    self.values[name] = t1 - t0

    def phase(self, name: str):
        return self._span(name, True)

    def call(self, name: str):
        self.attempted += 1
        return self._span(name, False)

    def value(self, name: str, v: float) -> None:
        self.values[name] = v

    def bump(self, name: str) -> None:
        self.values[name] = self.values.get(name, 0) + 1


def _discretise(rec: Recorder, tag: str, tri, field):
    """Product space, kernel basis and assembled system of one mesh."""
    with rec.call(f"globalspace.product_s.{tag}"):
        prod = build_product_space(tri)
    with rec.call(f"globalspace.basis_s.{tag}"):
        basis = build_global_basis(tri, prod)
    with rec.call(f"solver.assemble_s.{tag}"):
        system = assemble(tri, field, prod=prod, basis=basis)
    cells = len(tri.cells)
    rec.value(f"mesh.cells.{tag}", cells)
    rec.value(f"globalspace.templates.{tag}", len(prod.templates))
    rec.value(f"globalspace.cells_per_template.{tag}", cells / len(prod.templates))
    rec.value(f"globalspace.dofs.{tag}", len(basis))
    rec.value(f"globalspace.phi_nnz.{tag}", basis.Phi.nnz)
    rec.value(f"solver.nnz_A.{tag}", system.A.nnz)
    return prod, basis, system


def _solve(rec: Recorder, tag: str, system):
    """PCG on the reduced system; None when the solver raises."""
    name = f"solver.cg_s.{tag}"
    try:
        with rec.call(name):
            result = solve_system(system, tol=TOL)
    except RuntimeError as exc:
        match = _CG_ITERS.search(str(exc))
        iters = int(match.group(1)) if match else 0
        method, result = "raised", None
    else:
        iters, method = result.iterations, result.method
    rec.bump(f"solver.cg_method.{method}")
    rec.value(f"solver.cg_iters.{tag}", iters)
    if rec.traced and iters:
        rec.value(f"solver.cg_s_per_iter.{tag}", rec.values[name] / iters)
    return result


def _audit(rec: Recorder, tag: str, m: int, tri, prod):
    """The ``basis`` audit: constraint rows and, up to RANK_MAX_M, the rank of B."""
    with rec.call(f"globalspace.constraints_s.{tag}"):
        cons = build_constraints(tri, prod)
    rec.value(f"globalspace.constraint_rows.{tag}", cons.rows)
    rank = None
    if m <= RANK_MAX_M:
        with rec.call(f"globalspace.rank_s.{tag}"):
            rank = cons.rank()
    return cons, rank


def _check_solution(rec: Recorder, tag: str, system, result) -> None:
    rel = checks.true_residual(f"{tag} solve", system.A, result.u, system.b, TOL)
    rec.value(f"solver.cg_true_rel_residual.{tag}", rel)


def _check_dimension(tag: str, tri, basis, rank) -> None:
    checks.basis_dimension(
        f"{tag} basis", len(basis), len(tri.cells), len(tri.vertices),
        len(tri.interior_vertices), rank,
    )


class Ladder:
    """Structured diagonal meshes through the solve, interpolate and basis paths."""

    name = "ladder"

    def __init__(self, seed: int, levels=LADDER_LEVELS):
        # structured meshes: the seed changes nothing here
        self.levels = tuple(levels)
        self.field = get_field(FIELD)
        self.mu = as_callback(self.field)

    def repeat(self, rec: Recorder) -> None:
        problems = []
        with rec.phase("setup"):
            for m in self.levels:
                tag = f"m{m}"
                with rec.call(f"mesh.build_s.{tag}"):
                    tri = generate_square_mesh(m, DIAGONAL)
                problems.append((m, tag, tri, *_discretise(rec, tag, tri, self.field)))
        outputs = []
        with rec.phase("solve"):
            for m, tag, tri, prod, basis, system in problems:
                result = _solve(rec, tag, system)
                if result is None:
                    raise checks.CheckFailed(f"{tag}: PCG raised on a structured mesh")
                with rec.call(f"solver.errors_s.{tag}"):
                    errs = error_norms(result.u_cell, prod, self.field)
                with rec.call(f"globalspace.interpolate_s.{tag}"):
                    u_int = global_interpolate(self.mu, tri, prod)
                with rec.call(f"solver.interp_errors_s.{tag}"):
                    int_errs = error_norms(u_int, prod, self.field)
                cons, rank = _audit(rec, tag, m, tri, prod)
                oracle = None
                if m <= ORACLE_MAX_M:
                    with rec.call(f"solver.oracle_s.{tag}"):
                        oracle = solve_oracle(system, cons)
                outputs.append((tag, tri, basis, system, result, errs, u_int, int_errs, cons, rank, oracle))

        hs, solve_errs, interp_errs = [], [], []
        for tag, tri, basis, system, result, errs, u_int, int_errs, cons, rank, oracle in outputs:
            _check_dimension(tag, tri, basis, rank)
            _check_solution(rec, tag, system, result)
            checks.constraint_membership(f"{tag} interpolant", cons.B, u_int)
            if oracle is not None:
                checks.oracle_agreement(
                    f"{tag} oracle", system.A_cell, cons.B, result.u_cell, oracle.x_cell
                )
            hs.append(tri.h)
            solve_errs.append(errs["energy"])
            interp_errs.append(int_errs["energy"])
        checks.energy_rate("solve", hs, solve_errs)
        checks.energy_rate("interpolate", hs, interp_errs)


def jittered_mesh(m: int, seed: int) -> Triangulation:
    """A diagonal mesh whose interior vertices move by seeded exact rationals."""
    base = generate_square_mesh(m, DIAGONAL)
    rng = random.Random(seed)
    interior = set(base.interior_vertices)
    step = 16 * m
    vertices = []
    for i, (x, y) in enumerate(base.vertices):
        if i in interior:
            x += Fraction(rng.randint(-JITTER_STEPS, JITTER_STEPS), step)
            y += Fraction(rng.randint(-JITTER_STEPS, JITTER_STEPS), step)
        vertices.append((x, y))
    return Triangulation(vertices, base.cells)


class Jitter:
    """Perturbed meshes read back from mesh files: one template per cell."""

    name = "jitter"

    def __init__(self, seed: int):
        self.field = get_field(FIELD)
        self.meshes = []
        for m, mesh_seed in ((JITTER_SEEDED_M, seed), (JITTER_FAULT_M, JITTER_FAULT_SEED)):
            tri = jittered_mesh(m, mesh_seed)
            self.meshes.append((m, f"jitter{m}", tri.vertices, tri.cells, format_mesh(tri)))

    def repeat(self, rec: Recorder) -> None:
        problems = []
        with rec.phase("setup"):
            for m, tag, _, _, text in self.meshes:
                with rec.call(f"mesh.parse_s.{tag}"):
                    tri = parse_mesh(text)
                problems.append((m, tag, tri, *_discretise(rec, tag, tri, self.field)))
        outputs = []
        with rec.phase("solve"):
            for m, tag, tri, prod, basis, system in problems:
                result = _solve(rec, tag, system)
                if result is not None:
                    with rec.call(f"solver.errors_s.{tag}"):
                        error_norms(result.u_cell, prod, self.field)
                cons, rank = _audit(rec, tag, m, tri, prod)
                outputs.append((tri, basis, system, result, cons, rank))

        for (m, tag, vertices, cells, _), (tri, basis, system, result, cons, rank) in zip(
            self.meshes, outputs
        ):
            checks.mesh_round_trip(f"{tag} mesh file", vertices, cells, tri.vertices, tri.cells)
            _check_dimension(tag, tri, basis, rank)
            checks.kernel_roundoff(f"{tag} kernel", cons.B, basis.Phi)
            if result is not None:
                _check_solution(rec, tag, system, result)


def import_seconds() -> float:
    """Time ``import hodgefem.cli`` in a fresh interpreter, measured inside it."""
    src = str(Path(hodgefem.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_CHILD, src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class Verify:
    """The exact Fraction core alone: the three verification suites."""

    name = "verify"

    def __init__(self, seed: int):
        self.seed = seed

    def repeat(self, rec: Recorder) -> None:
        # ``hodgefem verify`` pays only the package import as set-up; one
        # child per repetition samples it across the whole run
        with rec.call("verify.import_child_s"):
            seconds = import_seconds()
        rec.phases["setup"] = seconds
        rec.value("import_s", seconds)
        with rec.phase("solve"):
            with rec.call("verify.identity_s"):
                results = identity_suite(self.seed)
            with rec.call("verify.norm_s"):
                results += norm_suite(VERIFY_NORM_COUNT, self.seed)
            with rec.call("verify.unisolvence_s"):
                results += unisolvence_suite(VERIFY_TRIANGLE_COUNT, self.seed)
        rec.value("verify.checks", checks.all_passed("verify", results))


WORKLOADS = {w.name: w for w in (Ladder, Jitter, Verify)}
