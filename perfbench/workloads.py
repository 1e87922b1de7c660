"""Workload inputs, tasks and output checks for the wavevel benchmark.

Every workload is a fixed cycle of tasks built from the seed.  All inputs
are rigidly translating Gaussians, so every output has an exact reference:
the contraction scalar equals N, tracked points move with the bump, and the
transformation laws hold up to the jet error.

A task's ``run`` is what the benchmark times.  Its ``check`` runs after the
timer stops and returns the task's error against the analytic reference;
it raises :class:`CheckFailed` when an output is wrong.  The first pass
over a cycle verifies everything against references.  Later passes repeat
the checks of ``grid``, ``track`` and ``pointwise``; the CLI commands, whose
references are costly, must reproduce their verified outputs exactly.

Tasks call the library through module attributes at call time
(``wv.sample``, ``wv.cli.cli``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import wavevel as wv
import wavevel.cli

#: What one throughput item is, per workload.
ITEMS = {
    "grid": "grid point",
    "track": "tracked frame",
    "pointwise": "checked point",
    "cli": "complete chain",
}

SPEED = 0.7  # bump speed, length per time unit
DT = 0.01  # frame spacing

# acceptance limits of the output checks
GRID_TOL = 5e-2  # median |contraction - N| per task
GRID_MIN_VALID = 0.2  # share of points where the contraction is defined
TRACK_TOL = 5e-2  # TrackResult.deviation
COV_TOL_EXACT = 1e-9  # covariance deviation with exact jets
COV_TOL_FD = 1e-3  # covariance deviation with finite-difference jets
CLI_TOL = 5e-3  # |median contraction - 2| and velocity component error


class CheckFailed(AssertionError):
    """An output does not match its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Task:
    """One unit of timed work.

    ``run()`` returns the output; ``check(output, verify)`` returns the
    error against the analytic reference (or None when the task adds
    nothing to ``ref_err``).  ``verify`` is True on the first pass, where
    outputs are compared with independent references.
    """

    label: str
    items: float
    run: Callable
    check: Callable


@dataclass
class Workload:
    tasks: list
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _rng(seed: int, name: str):
    return np.random.default_rng([int(seed), list(GENERATORS).index(name)])


def _unit_vector(rng, n: int):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# Reference geometry of the symmetric bumps (unit direction, offset in cells).
BASE_DIRECTION = {2: (0.6, 0.8), 3: (0.48, 0.6, 0.64), 4: (0.3, 0.4, 0.5, math.sqrt(0.5))}
BASE_OFFSET = {2: (0.13, 0.31), 3: (0.13, 0.31, 0.22), 4: (0.13, 0.31, 0.22, 0.41)}


def _symmetry(rng, n: int):
    """Random signed axis permutation matrix, a symmetry of every centred
    cubic grid and of every axis-aligned stencil."""
    return np.eye(n)[rng.permutation(n)] * rng.choice((-1.0, 1.0), n)[:, None]


def _symmetric_gaussian(rng, n: int, sigma: float, h: float):
    """A seeded image of the reference bump under a grid symmetry.

    The seed picks one of the 2^N N! images, so inputs differ from seed to
    seed while the discretisation error, which the grid symmetry maps onto
    itself, does not: errors read the same on every seed up to rounding.
    Returns the bump and the symmetry matrix, for placing seeds and points.
    """
    sym = _symmetry(rng, n)
    bump = wv.TranslatingGaussian(
        tuple(SPEED * sym @ BASE_DIRECTION[n]), sigma, tuple(h * sym @ BASE_OFFSET[n])
    )
    return bump, sym


def _nearest_index(grid, x):
    return tuple(int(i) for i in np.rint(grid.index_of(np.asarray(x, dtype=float))))


def _centered_grid(shape, h: float):
    n = len(shape)
    return wv.make_grid(n, shape, h, [-0.5 * h * (k - 1) for k in shape])


# --------------------------------------------------------------------------
# grid: sample -> fd jets -> order 0/1 maps -> contraction


GRID_CASES = (  # (shape, spacing, sigma)
    ((512, 512), 0.02, 1.0),
    ((64, 64, 64), 0.1, 1.0),
    ((16, 16, 16, 16), 0.3, 1.2),
)


def build_grid(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, "grid")
    tasks = []
    for shape, h, sigma in GRID_CASES:
        n = len(shape)
        grid = _centered_grid(shape, h)
        bump, _ = _symmetric_gaussian(rng, n, sigma, h)
        times = DT * np.arange(5)

        def run(grid=grid, bump=bump, times=times):
            sampled = wv.sample(bump, grid, times)
            jets = wv.fd_jet_field(sampled, 2)
            v0 = wv.velocity_field(jets, 0)
            v1 = wv.velocity_field(jets, 1)
            return wv.contraction_scalar_field(v0, v1)

        def check(out, verify, n=n):
            vals, valid = out
            require(valid.mean() >= GRID_MIN_VALID, f"only {valid.mean():.3f} of points valid")
            err = float(np.median(np.abs(vals[valid] - n)))
            require(err <= GRID_TOL, f"median |contraction - {n}| = {err:.3e}")
            return err

        tasks.append(Task(f"grid{n}d-{'x'.join(map(str, shape))}", grid.npoints, run, check))
    return Workload(tasks)


# --------------------------------------------------------------------------
# track: gradient-set (peak) and level-set oracles on sampled fields


# Two level tracks at 512^2 make the slowest task kind hold two tasks a
# cycle, so with six cycles or more the tail sample is always one of them.
# Seven tasks a cycle put the median inside one task kind (48^3 peak), not
# between two kinds, where it would jump with their relative speeds.
TRACK_CASES = (  # (shape, spacing, sigma, frames, levels)
    ((128, 128), 0.04, 1.0, 21, (0.5,)),
    ((512, 512), 0.01, 1.0, 21, (0.5, 0.3)),
    ((48, 48, 48), 0.04, 1.0, 11, (0.5,)),
)
LEVEL_DIRECTION = {2: (1.0, 1.25), 3: (1.0, 1.2, 0.9)}


def _level_seed(bump, sym, grid, level: float):
    """Grid index on the analytic level set, off the axis-aligned tangents.

    Each axis ray through the seed must cross the level set, so the seed
    sits near a diagonal direction of the contour.
    """
    radius = bump.sigma * math.sqrt(math.log(bump.amplitude / level))
    direction = sym @ LEVEL_DIRECTION[grid.dim]
    direction /= np.linalg.norm(direction)
    return _nearest_index(grid, np.asarray(bump.center) + radius * direction)


def build_track(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, "track")
    tasks = []
    for shape, h, sigma, frames, levels in TRACK_CASES:
        n = len(shape)
        grid = _centered_grid(shape, h)
        bump, sym = _symmetric_gaussian(rng, n, sigma, h)
        sampled = wv.sample(bump, grid, DT * np.arange(frames))
        size = "x".join(map(str, shape))
        attributes = [("gradient", wv.AttributeSpec.gradient_set([0.0] * n),
                       _nearest_index(grid, bump.center))]
        attributes += [(f"level{level}", wv.AttributeSpec.level_set(level),
                        _level_seed(bump, sym, grid, level)) for level in levels]
        for kind, attr, start in attributes:
            def run(sampled=sampled, attr=attr, start=start):
                return wv.track_attribute(sampled, attr, start)

            def check(result, verify, kind=kind, bump=bump, h=h):
                dev = float(result.deviation)
                require(math.isfinite(dev) and dev <= TRACK_TOL,
                        f"{kind} track deviation {dev:.3e}")
                if kind == "gradient":
                    exact = np.asarray(bump.center) + np.outer(result.times, bump.velocity)
                    drift = float(np.max(np.abs(result.positions - exact)))
                    require(drift <= 0.5 * h, f"peak track off by {drift:.3e}")
                return dev

            tasks.append(Task(f"track-{kind}-{size}", frames, run, check))
    return Workload(tasks)


# --------------------------------------------------------------------------
# pointwise: the three covariance checks with exact and fd jets


POINT_SIGMA = 1.0
POINT_FD_H = 0.02
POINT_MAX_COND = 4.0
# points per task; fd jets cost about three times more than exact ones
POINT_COUNTS = {"exact": 60, "fd": 20}


def _core_offsets(n: int, count: int):
    """Fixed offsets from the reference bump's centre.

    Each offset lies within 30 degrees of the motion axis, so psi_t stays
    away from zero, and inside 0.4 sigma, so the Hessian stays away from
    its singular ring at sigma / sqrt(2).
    """
    rng = np.random.default_rng(n)
    axis = np.asarray(BASE_DIRECTION[n])
    offsets = []
    while len(offsets) < count:
        d = _unit_vector(rng, n) * np.sign(rng.standard_normal())
        if abs(d @ axis) >= math.cos(math.radians(30.0)):
            offsets.append(POINT_SIGMA * rng.uniform(0.15, 0.4) * d)
    return np.array(offsets)


def build_pointwise(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, "pointwise")
    checks = (
        ("covector", wv.check_zero_order_covariance),
        ("vector", wv.check_first_order_covariance),
        ("contraction", wv.check_contraction_invariance),
    )
    fd_fn = wv.make_fd_jet2_fn(POINT_FD_H, DT)
    tasks = []
    for n in (2, 3):
        for k, (label, fn) in enumerate(checks):
            for mode in ("exact", "fd"):
                bump, sym = _symmetric_gaussian(rng, n, POINT_SIGMA, POINT_FD_H)
                t = float(rng.uniform(-0.5, 0.5))
                offset = rng.standard_normal(n)
                if mode == "exact":
                    amap = wv.random_affine(rng, n, max_condition=POINT_MAX_COND)
                    jet_fn = None
                else:
                    # a symmetry image of a fixed map keeps the fd error the
                    # same on every seed, as for the bump
                    base = wv.random_affine(np.random.default_rng([n, k]), n, POINT_MAX_COND)
                    amap = wv.AffineMap(sym @ base.matrix @ _symmetry(rng, n).T, offset)
                    jet_fn = fd_fn
                now = np.asarray(bump.center) + t * np.asarray(bump.velocity)
                offsets = _core_offsets(n, POINT_COUNTS[mode])
                old_pts = amap.invert(now + offsets @ sym.T)
                fn_name = fn.__name__

                def run(fn_name=fn_name, bump=bump, amap=amap, pts=old_pts, t=t, jet_fn=jet_fn):
                    return getattr(wv, fn_name)(bump, amap, pts, t, jet2_fn=jet_fn)

                def check(report, verify, mode=mode, count=len(old_pts)):
                    tol = COV_TOL_FD if mode == "fd" else COV_TOL_EXACT
                    require(report.checked + report.skipped == count,
                            f"{report.checked}+{report.skipped} points of {count}")
                    require(report.checked > 0, "no point checked")
                    dev = float(report.max_deviation)
                    require(math.isfinite(dev) and dev <= tol, f"deviation {dev:.3e} > {tol:.0e}")
                    return dev if mode == "fd" else None

                tasks.append(Task(f"cov-{label}-{n}d-{mode}", len(old_pts), run, check))
    return Workload(tasks)


# --------------------------------------------------------------------------
# cli: generate -> info -> velocity -> scalar -> track -> covcheck


CLI_SHAPE = (256, 256)
CLI_H = 0.02
CLI_SIGMA = 1.0
CLI_FRAMES = 7
# covcheck points: enough that covcheck is clearly slower than track, so the
# median command latency falls inside one command kind
CLI_COV_SAMPLES = 250


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wavevel.cli.cli(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def read_csv_columns(path) -> dict:
    """Parse a CSV written by ``export_csv`` back into float columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0]
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return {name: data[:, k] for k, name in enumerate(names)}


def _same(a, b) -> bool:
    """Bit-level float equality with NaN == NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def build_cli(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, "cli")
    workdir.mkdir(parents=True, exist_ok=True)
    n = len(CLI_SHAPE)
    grid = _centered_grid(CLI_SHAPE, CLI_H)
    bump, _ = _symmetric_gaussian(rng, n, CLI_SIGMA, CLI_H)
    times = DT * np.arange(CLI_FRAMES)
    amap = wv.random_affine(rng, n, max_condition=POINT_MAX_COND)
    wvf = str(workdir / "bump.wvf")
    v1_csv = str(workdir / "v1.csv")
    v0_prefix = str(workdir / "v0")
    scalar_csv = str(workdir / "scalar.csv")
    v0_files = [f"{v0_prefix}_{c}.wvf" for c in ("v0_1", "v0_2", "w_1", "w_2", "valid")]
    field_args = ["--kind", "translating-gaussian",
                  "--param", f"velocity={_vec(bump.velocity)}",
                  "--param", f"sigma={bump.sigma!r}",
                  "--param", f"center={_vec(bump.center)}"]
    peak = _nearest_index(grid, bump.center)
    chain = [
        ("generate", ["generate", *field_args, "--shape", ",".join(map(str, CLI_SHAPE)),
                      f"--spacing={CLI_H!r}", f"--origin={_vec(grid.origin)}",
                      "--frames", str(CLI_FRAMES), "--dt", repr(DT), "--out", wvf], [wvf]),
        ("info", ["info", wvf], []),
        ("velocity-csv", ["velocity", wvf, "--order", "1", "--csv", v1_csv], [v1_csv]),
        ("velocity-field", ["velocity", wvf, "--order", "0", "--field-out", v0_prefix], v0_files),
        ("scalar", ["scalar", wvf, "--csv", scalar_csv], [scalar_csv]),
        ("track", ["track", wvf, "--attribute", "gradient-set", "--targets", "0,0",
                   "--seed", ",".join(map(str, peak))], []),
        ("covcheck", ["covcheck", *field_args, f"--matrix={_vec(amap.matrix.ravel())}",
                      f"--offset={_vec(amap.offset)}", "--samples", str(CLI_COV_SAMPLES),
                      "--box=-0.5,0.5", "--rng-seed", str(int(seed))], []),
    ]
    verified = {}  # label -> (stdout, file digest, error) of the verified pass

    def reference_jets():
        return wv.fd_jet_field(wv.read_field(wvf), CLI_FRAMES // 2)

    def verify_output(label, stdout):
        """Compare one command's outputs with independent references."""
        if label == "generate":
            got = wv.read_field(wvf)
            want = wv.sample(bump, grid, times)
            require(got.grid == grid, "grid changed in the .wvf round trip")
            require(got.t0 == want.t0 and got.dt == want.dt, "time axis changed")
            require(np.array_equal(got.values, want.values), ".wvf values not bit-exact")
            return None
        if label == "info":
            require(f"shape:   {CLI_SHAPE}" in stdout and f"frames:  {CLI_FRAMES}" in stdout,
                    "info does not report the generated header")
            return None
        if label == "velocity-csv":
            vf = wv.velocity_field(reference_jets(), 1)
            cols = read_csv_columns(v1_csv)
            pts = grid.points().reshape(-1, n)
            for a in range(n):
                require(_same(cols[f"x{a + 1}"], pts[:, a]), "CSV coordinates differ")
                require(_same(cols[f"v1_{a + 1}"], vf.components[..., a].ravel()),
                        "CSV order-1 components differ")
            require(_same(cols["cond"], vf.hessian_condition.ravel()), "CSV cond differs")
            require(_same(cols["valid"], vf.valid.ravel()), "CSV validity differs")
            err = np.abs(vf.components[vf.valid] - np.asarray(bump.velocity))
            require(float(np.median(err)) <= CLI_TOL, "order-1 velocity is not the bump velocity")
            return None
        if label == "velocity-field":
            vf = wv.velocity_field(reference_jets(), 0)
            comps = {"v0_1": vf.components[..., 0], "v0_2": vf.components[..., 1],
                     "w_1": vf.reciprocal[..., 0], "w_2": vf.reciprocal[..., 1],
                     "valid": vf.valid}
            for name, arr in comps.items():
                arr = np.asarray(arr, dtype=float)
                want = np.where(vf.valid & np.isfinite(arr), arr, 0.0)
                got = wv.read_field(f"{v0_prefix}_{name}.wvf").values[0]
                require(np.array_equal(got, want), f"--field-out {name} differs")
            return None
        if label == "scalar":
            jets = reference_jets()
            vals, valid = wv.contraction_scalar_field(wv.velocity_field(jets, 0),
                                                      wv.velocity_field(jets, 1))
            cols = read_csv_columns(scalar_csv)
            require(_same(cols["scalar"], vals.ravel()), "CSV scalar differs")
            require(_same(cols["valid"], valid.ravel()), "CSV validity differs")
            median = float(np.median(vals[valid]))
            require(f"median over valid points: {median:.6g}" in stdout,
                    "printed median differs from the CSV")
            err = abs(median - n)
            require(err <= CLI_TOL, f"|median contraction - {n}| = {err:.3e}")
            return err
        if label == "track":
            dev = float(stdout.rsplit("deviation (empirical vs computed):", 1)[1].split()[0])
            require(dev <= TRACK_TOL, f"track deviation {dev:.3e}")
            return None
        if label == "covcheck":
            require("OK: all deviations within" in stdout, "covcheck did not report OK")
            return None
        raise KeyError(label)

    tasks = []
    for label, argv, outputs in chain:
        def run(argv=argv):
            return _run_cli(argv)

        def check(out, verify, label=label, outputs=outputs):
            code, stdout, stderr = out
            require(code == 0, f"wavevel {label} exited {code}: {stderr.strip()}")
            digest = _digest(outputs)
            if verify:
                err = verify_output(label, stdout)
                verified[label] = (stdout, digest, err)
                return err
            want_stdout, want_digest, err = verified[label]
            require(stdout == want_stdout, f"wavevel {label} printed different output")
            require(digest == want_digest, f"wavevel {label} wrote different files")
            return err

        # one chain is the throughput item, shared over its commands
        tasks.append(Task(f"cli-{label}", 1.0 / len(chain), run, check))
    return Workload(tasks, workdir)


GENERATORS = {
    "grid": build_grid,
    "track": build_track,
    "pointwise": build_pointwise,
    "cli": build_cli,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload from the seed."""
    return GENERATORS[name](seed, workdir)
