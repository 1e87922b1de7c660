"""Command-line driver: generate fields, extract velocities, run checks.

A thin shell over the library; every subcommand is reproducible with direct
calls.  Exit codes: 0 success, 1 failed check, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .covariance import AffineMap, check_transformation_laws
from .fieldio import _write_csv, export_csv, read_field, read_header, write_field
from .fields import SampledField, make_field, make_grid, sample
from .findiff import BOUNDARY_ONE_SIDED, BOUNDARY_SHRINK, DEFAULT_STENCIL, StencilSpec, fd_jet_field
from .tracking import TrackingError, track_attribute
from .velocities import (
    EPS_SINGULAR,
    AttributeSpec,
    contraction_scalar_field,
    velocity_field,
)

# covcheck judges the contraction within 16 x its rounding bound (2.17 at worst over 400
# benchmark seeds; 3016 with v off by 1e-12)
_COV_BOUND_RATIO = 16.0


def _floats(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _ints(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _parse_param(kind: str, key: str, value: str):
    """A ``--param`` value: polynomial terms, a number or a vector; text that
    is none of these goes on to ``make_field``, which rejects it by name."""
    if kind == "polynomial" and key == "terms":
        # polynomial terms: "coeff:e1,e2:et;coeff:e1,e2:et;..."
        terms = []
        try:
            for chunk in value.split(";"):
                coeff, exps, et = chunk.split(":")
                terms.append((float(coeff), tuple(_ints(exps)), int(et)))
        except ValueError:
            raise ValueError(
                f"parameter 'terms' of field kind {kind!r} expects COEFF:E1,...,EN:ET "
                f"triples joined by ';', e.g. terms=3:1,1:0;2:0,0:1, got {value!r}"
            ) from None
        return tuple(terms)
    try:
        vals = _floats(value)
    except ValueError:
        return value
    return vals[0] if len(vals) == 1 else tuple(vals)


def _field_from_args(args):
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip().replace("-", "_")
        params[key] = _parse_param(args.kind, key, value.strip())
    return make_field(args.kind, **params)


def _stencil_from_args(args) -> StencilSpec:
    return StencilSpec(order=args.fd_order, boundary=args.boundary)


def _broadcast(values, dim: int, name: str) -> list:
    if len(values) == 1:
        return values * dim
    if len(values) != dim:
        raise ValueError(f"{name} needs 1 or {dim} values, got {len(values)}")
    return values


def _physical_memory() -> float:
    """Bytes of physical memory; inf where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no os.sysconf, or no such name
        return math.inf


def _check_fits(nbytes: int, options: str) -> None:
    """ValueError naming ``options`` when ``nbytes`` exceed physical memory, so a
    size the machine cannot hold is an input error before it is allocated."""
    memory = _physical_memory()
    if nbytes > memory:
        raise ValueError(f"{nbytes:,} bytes for {options}, more than the "
                         f"{memory:,} bytes of physical memory")


def _cmd_generate(args) -> int:
    shape = _ints(args.shape)
    _check_fits(math.prod(shape) * args.frames * 8, "--shape and --frames")
    dim = len(shape)
    spacing = _broadcast(_floats(args.spacing), dim, "--spacing")
    origin = _broadcast(_floats(args.origin), dim, "--origin")
    grid = make_grid(dim, shape, spacing, origin)
    field = _field_from_args(args)
    times = args.t0 + args.dt * np.arange(args.frames)
    sampled = sample(field, grid, times)
    write_field(sampled, args.out)
    print(
        f"wrote {args.out}: kind={args.kind} dim={dim} shape={tuple(shape)} "
        f"frames={args.frames} dt={args.dt}"
    )
    return 0


def _cmd_info(args) -> int:
    header = read_header(args.file)
    print(f"file:    {args.file}")
    print(f"dim:     {header.dim}")
    print(f"shape:   {header.shape}")
    print(f"frames:  {header.frames}")
    print(f"spacing: {header.spacing}")
    print(f"origin:  {header.origin}")
    print(f"t0:      {header.t0}")
    print(f"dt:      {header.dt}")
    return 0


def _frame_jets(args):
    """Read ``args.file``, pick ``--frame`` (default: the middle frame) and
    return the field, the frame and the frame's finite-difference jets."""
    field = read_field(args.file)
    frame = field.frames // 2 if args.frame is None else args.frame
    if not 0 <= frame < field.frames:
        raise ValueError(f"frame {args.frame} out of range [0, {field.frames})")
    return field, frame, fd_jet_field(field, frame, _stencil_from_args(args))


def _cmd_velocity(args) -> int:
    field, frame, jets = _frame_jets(args)
    vf = velocity_field(jets, args.order, eps_singular=args.eps_singular)
    n_valid = int(np.count_nonzero(vf.valid))
    print(
        f"order-{args.order} velocities at frame {frame}: "
        f"{n_valid}/{vf.valid.size} valid points"
    )
    if n_valid == 0:
        print("warning: validity mask is entirely false", file=sys.stderr)
    columns = {}
    n = field.grid.dim
    if args.order == 0:
        for a in range(n):
            columns[f"v0_{a + 1}"] = vf.components[..., a]
        for a in range(n):
            columns[f"w_{a + 1}"] = vf.reciprocal[..., a]
    else:
        for a in range(n):
            columns[f"v1_{a + 1}"] = vf.components[..., a]
        columns["cond"] = vf.hessian_condition
    columns["valid"] = vf.valid
    if args.csv:
        export_csv(args.csv, field.grid, columns)
        print(f"wrote {args.csv}")
    if args.field_out:
        # the binary format carries finite scalars only: invalid points and
        # infinities (pole axes, conditioning) are zeroed in the component
        # files; the *_valid file flags which points carry meaning
        t = field.time(frame)
        for name, arr in columns.items():
            arr = np.asarray(arr, dtype=float)
            data = np.where(vf.valid & np.isfinite(arr), arr, 0.0)[None]
            out = f"{args.field_out}_{name}.wvf"
            write_field(SampledField(field.grid, t, 0.0, data), out)
            print(f"wrote {out}")
    return 0


def _cmd_scalar(args) -> int:
    field, frame, jets = _frame_jets(args)
    v0 = velocity_field(jets, 0)
    v1 = velocity_field(jets, 1, eps_singular=args.eps_singular)
    vals, valid = contraction_scalar_field(v0, v1)
    n_valid = int(np.count_nonzero(valid))
    print(f"contraction scalar at frame {frame}: {n_valid}/{valid.size} valid points")
    if n_valid:
        # median, not mean: points near the stationary locus (psi_t ~ 0)
        # are valid but noise-dominated on measured data
        print(f"median over valid points: {np.median(vals[valid]):.6g}")
    if args.csv:
        export_csv(args.csv, field.grid, {"scalar": vals, "valid": valid})
        print(f"wrote {args.csv}")
    return 0


def _cmd_track(args) -> int:
    if args.tol is not None and not args.tol >= 0:  # NaN too: no deviation exceeds it
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
    field = read_field(args.file)
    if args.attribute == AttributeSpec.GRADIENT_SET:
        targets = _floats(args.targets) if args.targets else [0.0] * field.grid.dim
        attr = AttributeSpec.gradient_set(targets)
    else:
        if args.level is None:
            raise ValueError("--attribute level-set needs --level")
        attr = AttributeSpec.level_set(args.level)
    seed = _ints(args.seed)
    result = track_attribute(field, attr, seed, spec=_stencil_from_args(args))
    print(f"tracked {args.attribute} attribute over {result.times.size} frames")
    for m, t in enumerate(result.times):
        pos = ", ".join(f"{p:.8g}" for p in result.positions[m])
        emp = ", ".join(f"{v:.6g}" for v in result.empirical_velocity[m])
        print(f"  t={t:.6g}  position=({pos})  empirical=({emp})")
    print(f"deviation (empirical vs computed): {result.deviation:.6e}")
    iterations = result.newton_iterations
    print(f"newton iterations: {int(iterations.sum())} total, at most {int(iterations.max())} "
          f"on one frame; jet passes: {result.jet_passes}, jet points: {result.jet_points}")
    if args.csv:
        _write_track_csv(args.csv, result)
        print(f"wrote {args.csv}")
    if args.tol is not None and result.deviation > args.tol:
        print(f"FAIL: deviation {result.deviation:.3e} > tolerance {args.tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


def _write_track_csv(path, result) -> None:
    n = result.positions.shape[1]
    names = (
        ["t"]
        + [f"pos_{a + 1}" for a in range(n)]
        + [f"emp_{a + 1}" for a in range(n)]
        + [f"comp_{a + 1}" for a in range(n)]
    )
    columns = [result.times, *result.positions.T,
               *result.empirical_velocity.T, *result.computed_velocity.T]
    _write_csv(path, names, [columns])


def _cmd_covcheck(args) -> int:
    if not args.tol >= 0:
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
    field = _field_from_args(args)
    n = field.dim
    entries = _floats(args.matrix)
    if len(entries) != n * n:
        raise ValueError(f"--matrix needs {n * n} entries for a {n}-d field")
    offset = _broadcast(_floats(args.offset), n, "--offset") if args.offset else [0.0] * n
    amap = AffineMap(np.asarray(entries).reshape(n, n), offset)
    if args.samples < 1:
        raise ValueError(f"--samples must be a positive integer, got {args.samples}")
    box = _floats(args.box)
    # a finite width HI - LO also rules out NaN and infinite ends
    if len(box) != 2 or not (box[0] < box[1] and math.isfinite(box[1] - box[0])):
        raise ValueError(f"--box expects LO,HI with LO < HI and a finite width, got {args.box!r}")
    lo, hi = box
    _check_fits(args.samples * n * 8, "--samples")
    rng = np.random.default_rng(args.rng_seed)
    points = rng.uniform(lo, hi, size=(args.samples, n))
    reports = check_transformation_laws(field, amap, points, args.t)
    labels = ("covector (order 0)", "vector (order 1)", "contraction scalar")
    for label, report in zip(labels, reports):
        ratio = report.max_bound_ratio
        bound = "" if ratio is None else f"(at most {ratio:.3g} x its rounding bound) "
        print(f"{label}: max deviation {report.max_deviation:.3e} {bound}"
              f"({report.checked} checked, {report.skipped} skipped)")
    worst = max(report.max_deviation for report in reports[:2])
    ratio = reports[2].max_bound_ratio
    if worst > args.tol or ratio > _COV_BOUND_RATIO:
        why = (f"worst deviation {worst:.3e} > tolerance {args.tol:.3e}" if worst > args.tol else
               f"contraction deviation {ratio:.3g} x its rounding bound > {_COV_BOUND_RATIO:g}")
        print(f"FAIL: {why}", file=sys.stderr)
        return 1
    print(f"OK: all deviations within {args.tol:.1e} "
          f"(contraction: {_COV_BOUND_RATIO:g} x its rounding bound)")
    return 0


def _add_param_options(p) -> None:
    p.add_argument("--kind", required=True, help="analytic field kind")
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="field parameter; commas make vectors (repeatable)",
    )


def _add_stencil_options(p) -> None:
    p.add_argument("--fd-order", type=int, default=DEFAULT_STENCIL.order, choices=(2, 4))
    p.add_argument(
        "--boundary",
        default=DEFAULT_STENCIL.boundary,
        choices=(BOUNDARY_ONE_SIDED, BOUNDARY_SHRINK),
    )


def _add_singularity_option(p) -> None:
    p.add_argument(
        "--eps-singular",
        type=float,
        default=EPS_SINGULAR,
        help="Hessian singularity threshold relative to ||H||_F^N, finite and "
        ">= 0; raise to the jet error scale (e.g. 1e-5) for finite-difference data",
    )


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavevel",
        description="Local wave velocities of scalar fields: generation, "
        "extraction, transformation checks, tracking.  --config PATH (or "
        "--config=PATH) reads default options from a key=value file; options "
        "given on the command line win.",
        epilog="Vector values are comma separated; when one starts with a "
        "minus sign, use the equals form, e.g. --origin=-1.5,-1.5",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample an analytic field into a field file")
    _add_param_options(p)
    p.add_argument("--shape", required=True, help="points per axis, e.g. 64,64")
    p.add_argument("--spacing", required=True, help="grid step per axis (or one for all)")
    p.add_argument("--origin", required=True, help="grid origin per axis (or one for all)")
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("info", help="dump a field file header")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("velocity", help="extract a velocity field to CSV")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True, choices=(0, 1))
    p.add_argument("--frame", type=int, default=None, help="default: middle frame")
    _add_stencil_options(p)
    _add_singularity_option(p)
    p.add_argument("--csv", help="output CSV path")
    p.add_argument("--field-out", help="prefix for per-component binary field files")
    p.set_defaults(func=_cmd_velocity)

    p = sub.add_parser("scalar", help="contraction scalar field to CSV")
    p.add_argument("file")
    p.add_argument("--frame", type=int, default=None)
    _add_stencil_options(p)
    _add_singularity_option(p)
    p.add_argument("--csv", help="output CSV path")
    p.set_defaults(func=_cmd_scalar)

    p = sub.add_parser("track", help="track an attribute point across frames")
    p.add_argument("file")
    p.add_argument("--attribute", required=True,
                   choices=(AttributeSpec.LEVEL_SET, AttributeSpec.GRADIENT_SET))
    p.add_argument("--level", type=float, default=None, help="traced field value")
    p.add_argument("--targets", default=None, help="traced gradient values, e.g. 0,0")
    p.add_argument("--seed", required=True, help="starting grid index, e.g. 32,32")
    _add_stencil_options(p)
    p.add_argument("--csv", help="write the track as CSV")
    p.add_argument("--tol", type=float, default=None,
                   help="fail (exit 1) if the deviation exceeds this")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("covcheck", help="verify the transformation laws on random points")
    _add_param_options(p)
    p.add_argument("--matrix", required=True, help="row-major Jacobian entries")
    p.add_argument("--offset", default=None, help="affine offset (default zero)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--box", default="-1,1", help="sampling interval lo,hi per axis")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-11,
                   help="relative tolerance of the covector and vector laws (the contraction "
                   f"is judged against {_COV_BOUND_RATIO:g} x its rounding bound)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=_cmd_covcheck)

    return parser


def _merge_config(argv: list) -> list:
    """Insert the key=value entries of ``--config PATH`` (or ``--config=PATH``)
    as defaults before the explicit args."""
    at = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if at is None:
        return argv
    _, eq, path = argv[at].partition("=")
    if not eq and at + 1 < len(argv):
        path = argv[at + 1]
    if not path:
        raise ValueError("--config expects a file path")
    rest = argv[:at] + argv[at + (1 if eq else 2):]
    extra = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        extra.append(f"--{key.strip()}={value.strip()}")  # a value may start with "-"
    if not rest:
        return extra
    # defaults go right after the subcommand so explicit flags win
    return rest[:1] + extra + rest[1:]


def cli(argv=None) -> int:
    """Run the command line; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _merge_config(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except TrackingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: an input too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
