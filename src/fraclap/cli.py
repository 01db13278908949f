"""Batch command-line front end.

Subcommands: ``potential``, ``fraclap``, ``validate``, ``matpow``,
``diffuse``.  Output is CSV with a header row and 17-significant-digit
doubles; runs with ``--out`` also write ``FILE.manifest.json`` capturing all
parameters so identical manifests imply bit-identical CSV.

Exit codes: 0 success, 1 failed validation checks, 2 argument errors,
3 numerical errors (the error class name goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__, discrete
from .domain import BoundaryData, TestFunction, boundary_quadrature, make_interval_grid, make_rectangle_grid
from .errors import GammaPole, MissingBoundaryData, NotPositiveDefinite, NotSymmetric
from .operators import Definition, FracLapRequest, evaluate
from .quadrature import DEFAULT_GAUSS_ORDER, DEFAULT_RADIAL_ORDER
from .riesz import PotentialRequest, RuleParams, riesz_potential_field
from .special import ConstantMode
from .validate import run_suite

_NOTES = [
    "green identity surface term evaluated with the field itself (the stray "
    "symbol in the identity's surface integrand is read as the field)",
    "augmented surface kernels default to the rigorous variant derived from "
    "the green identity; the as-printed variant is available for comparison",
]


def _fmt(v):
    return f"{float(v):.17g}"


def _doubles(n, sep):
    """A ``%`` template of ``n`` doubles joined by ``sep``.

    Filling it formats a whole block in one C-level pass, with the bytes of
    ``_fmt``: ``%.17g`` and ``format(v, ".17g")`` both call
    ``PyOS_double_to_string(v, 'g', 17)``.
    """
    return sep.join(["%.17g"] * n)


def _matrix_rows(m):
    """The CSV lines of a 2D array, one ``%`` pass per row.

    Every table goes through here: ``potential`` and ``fraclap`` pass their
    points beside their value columns, ``matpow`` the dense power.
    """
    row = _doubles(m.shape[1], ",")
    return [row % tuple(r) for r in m.tolist()]


def _write_output(args, header, rows, extra_params):
    """The header line, then each of ``rows`` (a line or a block of lines) and a newline.

    The large writers pass blocks, each formatted by one ``%`` pass over a
    template, so no value costs a Python call; ``diffuse`` passes one block
    per time slice, so its whole output is never one string.
    """
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    if args.out:
        manifest = {
            "version": __version__,
            "command": args.command,
            "parameters": extra_params,
            "notes": _NOTES,
        }
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _parse_domain(text, d):
    parts = [float(t) for t in text.split(",")]
    if d == 1:
        if len(parts) != 2:
            raise ValueError("1D domain needs two comma-separated bounds a,b")
        return make_interval_grid(parts[0], parts[1], 21)
    if len(parts) != 4:
        raise ValueError("2D domain needs four bounds a1,b1,a2,b2")
    return make_rectangle_grid(parts[0], parts[1], parts[2], parts[3], 13, 13)


def _parse_func(spec, grid):
    d = grid.dim
    name, _, rest = spec.partition(":")
    if name == "const":
        return TestFunction.constant(float(rest or "1"), dim=d)
    if name == "affine":
        vals = [float(t) for t in rest.split(",")]
        if len(vals) != d + 1:
            raise ValueError(f"affine spec needs {d + 1} values in {d}D "
                             "(gradient components then offset)")
        return TestFunction.affine(vals[:-1], vals[-1])
    if name == "quad":
        return TestFunction.quadratic(dim=d)
    if name == "gauss":
        vals = [float(t) for t in rest.split(",")]
        if len(vals) != d + 1:
            raise ValueError(f"gauss spec needs {d} center coordinates and a width")
        return TestFunction.gaussian_bump(vals[:-1], vals[-1])
    if name == "sine":
        return TestFunction.sine_mode(int(rest or "1"), grid)
    raise ValueError(f"unknown function spec {spec!r}")


def _parse_points(text, d):
    if d == 1:
        return np.asarray([float(t) for t in text.split(",")], float)
    pts = []
    for pair in text.split(";"):
        xy = [float(t) for t in pair.split(",")]
        if len(xy) != 2:
            raise ValueError("2D points are semicolon-separated x,y pairs")
        pts.append(xy)
    return np.asarray(pts, float)


def _eval_points(args, grid):
    if args.all_interior:
        return grid.interior_nodes()
    if not args.points:
        raise ValueError("either --points or --all-interior is required")
    return _parse_points(args.points, grid.dim)


def _rule(args):
    return RuleParams(radial_order=args.radial, gauss_order=args.gauss)


def _common_params(args, grid):
    return {
        "d": grid.dim,
        "domain": list(grid.bounds),
        "constant_mode": args.constant,
        "radial_order": args.radial,
        "gauss_order": args.gauss,
    }


# ---------------------------------------------------------------------------

def _cmd_potential(args):
    grid = _parse_domain(args.domain, args.d)
    phi = _parse_func(args.func, grid)
    req = PotentialRequest(grid=grid, phi=phi, sigma=args.sigma,
                           eval_points=_eval_points(args, grid),
                           mode=ConstantMode.parse(args.constant), rule=_rule(args))
    values = [v for _, v in riesz_potential_field(req)]
    header = "x,value" if grid.dim == 1 else "x,y,value"
    rows = _matrix_rows(np.column_stack([req.eval_points, values]))
    params = _common_params(args, grid)
    params.update({"sigma": args.sigma, "func": args.func,
                   "points": args.points, "all_interior": args.all_interior})
    _write_output(args, header, rows, params)
    return 0


def _cmd_fraclap(args):
    grid = _parse_domain(args.domain, args.d)
    phi = _parse_func(args.func, grid)
    defs = [Definition.parse(t) for t in args.definition]
    if not defs:
        raise ValueError("at least one --def is required")
    boundary = None
    needs_bc = any(d in (Definition.AUGMENTED, Definition.AUGMENTED_AS_PRINTED) for d in defs)
    if needs_bc:
        bq = boundary_quadrature(grid)
        if args.bc_from_func:
            boundary = BoundaryData.from_function(bq, phi)
        elif args.dirichlet is not None and args.neumann is not None:
            boundary = BoundaryData.from_values(bq, args.dirichlet, args.neumann)
        else:
            raise MissingBoundaryData(
                "augmented definitions need --bc-from-func or both "
                "--dirichlet and --neumann")
    pts = _eval_points(args, grid)
    values = {}
    for dfn in dict.fromkeys(defs):  # a repeated --def is evaluated once
        req = FracLapRequest(grid=grid, phi=phi, s=args.s, eval_points=pts,
                             mode=ConstantMode.parse(args.constant),
                             definition=dfn, boundary=boundary, rule=_rule(args))
        values[dfn] = [v for _, v in evaluate(req)]
    names = [d.value for d in defs]
    cols = [np.asarray(values[d], float) for d in defs]
    # one reldiff column per pair of definitions, |a - b| / max(|a|, |b|, 1e-300)
    pairs = list(itertools.combinations(range(len(defs)), 2))
    for i, j in pairs:
        a, b = cols[i], cols[j]
        cols.append(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300))
    rows = _matrix_rows(np.column_stack([pts, *cols]))
    coord_hdr = "x" if grid.dim == 1 else "x,y"
    if len(defs) == 1:
        header = f"{coord_hdr},value,definition"
        rows = [f"{row},{names[0]}" for row in rows]
    else:
        header = ",".join([coord_hdr, *names,
                           *(f"reldiff_{names[i]}_{names[j]}" for i, j in pairs)])
    params = _common_params(args, grid)
    params.update({"s": args.s, "func": args.func, "definitions": names,
                   "points": args.points, "all_interior": args.all_interior,
                   "bc_from_func": args.bc_from_func,
                   "dirichlet": args.dirichlet, "neumann": args.neumann})
    _write_output(args, header, rows, params)
    return 0


def _cmd_validate(args):
    recs = run_suite(args.suite)
    width = max(len(r["check"]) for r in recs)
    for r in recs:
        status = "PASS" if r["pass"] else "FAIL"
        print(f'{status}  {r["suite"]:<9} {r["check"]:<{width}}  '
              f'measured={r["measured"]:.3e}  tol={r["tolerance"]:.1e}')
    report = {"suite": args.suite, "checks": recs,
              "all_pass": all(r["pass"] for r in recs)}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    else:
        print(json.dumps(report))
    return 0 if report["all_pass"] else 1


_ASSEMBLE_FIELDS = {"1d": ("n", "length"), "2d": ("nx", "ny", "lx", "ly")}


def _parse_assemble(spec):
    """The matrix-free Dirichlet stencil of a ``1d:n,length`` / ``2d:nx,ny,lx,ly`` spec."""
    kind, _, rest = spec.partition(":")
    if kind not in _ASSEMBLE_FIELDS:
        raise ValueError(f"unknown assembly spec {spec!r}; expected 1d:n,length "
                         "or 2d:nx,ny,lx,ly")
    names = _ASSEMBLE_FIELDS[kind]
    vals = rest.split(",")
    try:
        if len(vals) != len(names):
            raise ValueError(f"got {len(vals)} values")
        d = len(names) // 2
        return discrete.DirichletStencil(tuple(int(v) for v in vals[:d]),
                                         tuple(float(v) for v in vals[d:]))
    except ValueError as exc:
        raise ValueError(f"assembly spec {spec!r} expects {kind}:{','.join(names)} "
                         f"(integer node counts, positive lengths): {exc}") from None


def _cmd_matpow(args):
    if not 0.0 < args.s <= 2.0:
        raise ValueError(f"order must lie in (0, 2], got {args.s!r}")
    # a user matrix needs a dense eigh; an assembled stencil runs through the DST-I
    if args.matrix is not None:
        op = discrete.sym_eigendecompose(discrete.load_matrix_csv(args.matrix))
    else:
        op = _parse_assemble(args.assemble)
    alpha = args.s / 2.0
    params = {"matrix": args.matrix, "assemble": args.assemble, "s": args.s,
              "apply": args.apply, "check": args.check,
              "boundary_conditions": "homogeneous dirichlet"}
    if args.check == "spectral":
        eig = op.dense()
        power = discrete.matrix_fractional_power(eig, alpha)
        lam = np.sort(np.linalg.eigvalsh(power))
        measured = float(np.max(np.abs(lam - eig.eigenvalues ** alpha)
                                / np.maximum(eig.eigenvalues ** alpha, 1e-300)))
        tol = 1e-10
    elif args.check == "semigroup":
        # K^(s/4) (K^(s/4) v) = K^(s/2) v on three seeded random vectors as one block,
        # matrix-free; K^(s/2) v and the first K^(s/4) v (order s/2) share the modes of v
        v = np.random.default_rng(0).standard_normal((3, op.n))
        modes, lam, half_s = op.to_modes(v), op.eigenvalues, args.s / 2.0
        half, full = np.split(op.from_modes(np.concatenate(
            [lam ** (half_s / 2.0) * modes, lam ** (args.s / 2.0) * modes])), 2)
        twice = discrete.apply_fraclap_discrete(op, half_s, half)
        measured = max(float(np.linalg.norm(t - f) / np.linalg.norm(f))
                       for t, f in zip(twice, full))
        tol = 1e-8
    if args.check:
        ok = measured <= tol
        report = {"check": args.check, "measured": measured, "tolerance": tol, "pass": ok}
        print(json.dumps(report))
        return 0 if ok else 1
    if args.apply:
        vec = discrete.load_matrix_csv(args.apply).reshape(-1)
        out = discrete.apply_fraclap_discrete(op, args.s, vec)
        _write_output(args, "value", [_doubles(len(out), "\n") % tuple(out.tolist())], params)
        return 0
    power = discrete.matrix_fractional_power(op.dense(), alpha)
    rows = _matrix_rows(power)
    _write_output(args, ",".join(f"c{j}" for j in range(power.shape[1])), rows, params)
    return 0


def _parse_ic(spec, stencil):
    name, _, rest = spec.partition(":")
    n = stencil.n
    if name == "sine":
        # product mode sin(k pi i / (nx+1)) sin(k pi j / (ny+1)): an eigenvector
        k = int(rest or "1")
        return functools.reduce(np.kron, [np.sin(k * np.pi * np.arange(1, m + 1) / (m + 1))
                                          for m in stencil.shape])
    if name == "point":
        j = int(rest)
        if not 0 <= j < n:
            raise ValueError(f"point source node {j} outside 0..{n - 1}")
        u0 = np.zeros(n)
        u0[j] = 1.0
        return u0
    if name == "file":
        return discrete.load_matrix_csv(rest).reshape(-1)
    raise ValueError(f"unknown initial-condition spec {spec!r}")


def _cmd_diffuse(args):
    """The modal solve at each of ``--times``, as ``t,node,value,norm`` rows.

    Each time slice is one block: a row template built once per command,
    ``%s,{node},%.17g,%s`` for every node, filled in one ``%`` pass from the
    slice's values interleaved with its time and norm text.  The norm is
    ``math.hypot`` of the values, which neither overflows nor underflows.
    """
    stencil = _parse_assemble(args.assemble)
    u0 = _parse_ic(args.ic, stencil)
    times = [float(t) for t in args.times.split(",")]
    sols = discrete.modal_diffusion_solve(stencil, args.s, u0, times)
    template = "\n".join([f"%s,{node},%.17g,%s" for node in range(stencil.n)])

    def slices():
        for t, u in zip(times, sols):
            vals = u.tolist()
            fields = [_fmt(t), None, _fmt(math.hypot(*vals))] * stencil.n
            fields[1::3] = vals
            yield template % tuple(fields)
    params = {"assemble": args.assemble, "s": args.s, "ic": args.ic,
              "times": times, "boundary_conditions": "homogeneous dirichlet"}
    _write_output(args, "t,node,value,norm", slices(), params)
    return 0


# ---------------------------------------------------------------------------

def _add_rule_flags(p):
    p.add_argument("--constant", choices=["paper", "standard"], default="paper")
    p.add_argument("--radial", type=int, default=DEFAULT_RADIAL_ORDER,
                   help="Gauss-Jacobi nodes along each chord from the evaluation point "
                        "(default %(default)s)")
    p.add_argument("--gauss", type=int, default=DEFAULT_GAUSS_ORDER)
    p.add_argument("--out", default=None)


def _add_field_flags(p, order_flag):
    """The flags ``potential`` and ``fraclap`` share.  The order, ``order_flag``, goes
    between ``--domain`` and ``--func``, so a missing-argument message lists the
    required flags in the order of the usage line."""
    p.add_argument("--d", type=int, choices=[1, 2], required=True)
    p.add_argument("--domain", required=True)
    p.add_argument(order_flag, type=float, required=True)
    p.add_argument("--func", required=True)
    where = p.add_mutually_exclusive_group()
    where.add_argument("--points", default=None)
    where.add_argument("--all-interior", action="store_true")
    _add_rule_flags(p)


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``parse_args`` keeps no state in it
    (an ``append`` default is copied before it is appended to), so ``main`` may be called
    any number of times."""
    ap = argparse.ArgumentParser(prog="fraclap", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("potential", help="truncated Riesz potential field")
    _add_field_flags(p, "--sigma")
    p.set_defaults(fn=_cmd_potential)

    p = sub.add_parser("fraclap", help="fractional Laplacian evaluators")
    _add_field_flags(p, "--s")
    p.add_argument("--def", dest="definition", action="append", default=[],
                   choices=[d.value for d in Definition])
    p.add_argument("--bc-from-func", action="store_true")
    p.add_argument("--dirichlet", type=float, default=None)
    p.add_argument("--neumann", type=float, default=None)
    p.set_defaults(fn=_cmd_fraclap)

    p = sub.add_parser("validate", help="run the invariant suites")
    p.add_argument("--suite", default="all",
                   choices=["special", "riesz", "fraclap", "greens", "discrete", "all"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("matpow", help="matrix fractional power K^(s/2)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", default=None)
    source.add_argument("--assemble", default=None)
    p.add_argument("--s", type=float, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--apply", default=None)
    mode.add_argument("--check", choices=["semigroup", "spectral"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_matpow)

    p = sub.add_parser("diffuse", help="modal anomalous-diffusion solve")
    p.add_argument("--assemble", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--ic", required=True)
    p.add_argument("--times", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_diffuse)
    return ap


_NUMERICAL_ERRORS = (GammaPole, NotSymmetric, NotPositiveDefinite)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
