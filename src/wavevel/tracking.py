"""Empirical velocity oracles: follow attribute points across time frames.

Gradient attributes (peaks, troughs, saddles, or any fixed-gradient point)
are located per frame by Newton iteration on quadratically interpolated
jets, then differenced in time; the measured motion is compared against the
order-one velocity evaluated at the tracked points.

Value attributes are tracked per coordinate axis: the crossing of the level
along a ray through the seed, holding the other coordinates fixed.  That
per-axis crossing speed equals ``-psi_t / psi_xi``, i.e. N times the
order-zero component (the 1/N coefficient splits the attribute motion
across axes; a single-axis crossing undoes the split).

Both trackers accept a :class:`SampledField` (finite-difference jets,
interpolated) or an analytic catalog field (exact evaluation), the latter
mainly for calibration at machine accuracy.  On a sampled field the jets are
computed only on a small window of the grid around the tracked point, so a
track costs O(frames) whatever the grid size; the window's jets are
bit-identical to the full-grid jets where they are read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .fields import AnalyticField, Grid, SampledField, canonical_time_axis
from .findiff import DEFAULT_STENCIL, StencilSpec, _time_taps, fd_jet_field
from .jets import JetField
from .velocities import AttributeSpec, _solve_order_one, first_order_velocity_nd

Array = np.ndarray

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-8
# cells a window extends beyond the interpolation block and the stencil reach
_WINDOW_SLACK = 4


class TrackingError(RuntimeError):
    """Base class for tracking failures."""


class NoConvergenceError(TrackingError):
    """Newton iteration did not converge within the iteration budget."""


class AttributeLostError(TrackingError):
    """The tracked attribute left the grid or no crossing exists."""


class SingularHessianError(TrackingError):
    """The (interpolated) Hessian is singular at a Newton iterate."""


@dataclass
class TrackResult:
    """Tracked attribute locations and the velocity comparison.

    ``positions[m]`` is the attribute location at frame ``m``; for level-set
    tracks entry ``i`` is the crossing coordinate along the axis-``i`` ray
    (the other coordinates stay at the seed).  ``empirical_velocity`` is the
    central difference of positions (one-sided at the end frames, which are
    excluded from ``deviation``).  ``computed_velocity`` holds the pointwise
    formula at the tracked points: order-one velocity for gradient tracks,
    N times the order-zero component for level tracks; NaN where it is not
    defined.  ``deviation`` is the max-norm relative difference over the
    comparable interior entries.
    """

    kind: str
    times: Array
    positions: Array
    empirical_velocity: Array
    computed_velocity: Array
    deviation: float


def _quad_weights(s: float) -> Array:
    # Lagrange basis on nodes -1, 0, 1
    return np.array([0.5 * s * (s - 1.0), 1.0 - s * s, 0.5 * s * (s + 1.0)])


class _JetInterpolator:
    """Tensor-quadratic interpolation of jet-field arrays at off-grid points.

    Jets are read through a window: a jet field on an index box of the grid
    that equals the full-grid jets on its exact zone.  Given a
    :class:`JetField` the window is the whole grid.  Given a frame of a
    :class:`SampledField` the window is ``fd_jet_field`` on a box around the
    interpolation block, recomputed when the block leaves the exact zone.
    ``stencil_taps`` caps edge distances at ``deriv + order``, so every point
    at least ``order + 2`` cells from a cut face (or on the grid's own faces)
    gets the full grid's taps on the same values: bit-identical jets.
    """

    def __init__(self, jets: JetField | None = None, field: SampledField | None = None,
                 frame: int = 0, spec: StencilSpec = DEFAULT_STENCIL,
                 time_derivatives: bool = True):
        self.grid = jets.grid if jets is not None else field.grid
        self._shape = np.asarray(self.grid.shape)
        self._field = field
        self._frame = frame
        self._spec = spec
        self._time_derivatives = time_derivatives
        self._jets = jets
        self._lo = np.zeros(self.grid.dim, dtype=int)
        # inclusive index bounds of the window's exact zone; None: no window yet
        self._exact = (self._lo, self._shape - 1) if jets is not None else None

    def _window(self, anchor):
        """Window jets exact on the block around ``anchor``, and their index offset."""
        exact = self._exact
        if exact is None or np.any(anchor - 1 < exact[0]) or np.any(anchor + 1 > exact[1]):
            reach = self._spec.order + 2
            half = 1 + reach + _WINDOW_SLACK
            lo = np.maximum(anchor - half, 0)
            hi = np.minimum(anchor + half + 1, self._shape)
            box = (slice(None),) + tuple(slice(a, b) for a, b in zip(lo, hi))
            grid = Grid(tuple(hi - lo), self.grid.spacing, tuple(self.grid.point(lo)))
            field = self._field
            sub = SampledField(grid, field.t0, field.dt, field.values[box])
            self._jets = fd_jet_field(sub, self._frame, self._spec, self._time_derivatives)
            self._lo = lo
            self._exact = (np.where(lo > 0, lo + reach, 0),
                           np.where(hi < self._shape, hi - 1 - reach, self._shape - 1))
        return self._jets, self._lo

    def _anchor(self, fid) -> np.ndarray:
        return np.clip(np.rint(fid).astype(int), 1, self._shape - 2)

    def _block_and_weights(self, x, anchor=None):
        fid = self.grid.index_of(x)
        if np.any(fid < 0.0) or np.any(fid > self._shape - 1):
            raise AttributeLostError(f"point {np.asarray(x)} left the grid")
        if anchor is None:
            anchor = self._anchor(fid)
        jets, lo = self._window(anchor)
        block = tuple(slice(a - 1, a + 2) for a in anchor - lo)
        if not np.all(jets.valid[block]):
            raise AttributeLostError(
                f"point {np.asarray(x)} left the valid interior of the jet field"
            )
        weights = np.ones((1,) * self.grid.dim)
        for a, s in enumerate(fid - anchor):
            shape = [1] * self.grid.dim
            shape[a] = 3
            weights = weights * _quad_weights(float(s)).reshape(shape)
        return jets, block, weights

    def _contract(self, arr, block, weights):
        return np.tensordot(weights, arr[block], axes=self.grid.dim)

    def gradient_hessian(self, x, anchor=None):
        jets, block, weights = self._block_and_weights(x, anchor)
        grad = self._contract(jets.grad, block, weights)
        hess = self._contract(jets.hessian, block, weights)
        return grad, hess

    def newton_fixed_gradient(self, x0, targets, max_iter: int = NEWTON_MAX_ITER):
        """Newton iteration for grad(psi)(x) = targets on interpolated jets.

        The interpolant is anchored at the nearest grid point; once the step
        drops below half a cell the anchor is frozen, so the final iterations
        polish the root of one smooth local polynomial (the anchored
        interpolant jumps by O(h^3) across cell midplanes, which would
        otherwise stall the residual below its tolerance).  On convergence
        the anchor is re-derived from the root and polishing repeats until
        the anchor is its own fixpoint, which makes the result a function of
        the frame data alone, not of the iteration history.
        """
        x = np.array(x0, dtype=float)
        spacing = np.asarray(self.grid.spacing)
        length_scale = float(np.max(spacing))
        locked = None
        polished = set()
        for _ in range(max_iter):
            anchor = locked if locked is not None else self._anchor(self.grid.index_of(x))
            if locked is not None and np.any(np.abs(self.grid.index_of(x) - locked) > 1.5):
                locked = None  # iterate escaped the locked cell; re-anchor
                anchor = self._anchor(self.grid.index_of(x))
            grad, hess = self.gradient_hessian(x, anchor)
            residual = grad - targets
            frob = float(np.sqrt(np.sum(hess * hess)))
            if np.max(np.abs(residual)) <= NEWTON_TOL * frob * length_scale:
                canonical = self._anchor(self.grid.index_of(x))
                key = tuple(canonical)
                if locked is None or np.array_equal(canonical, locked) or key in polished:
                    return x
                polished.add(tuple(locked))
                locked = canonical  # converged off the root's own cell; re-polish there
                continue
            step, valid, _ = _solve_order_one(hess, residual)  # step = -H^-1 r
            if not valid:
                raise SingularHessianError("singular Hessian at a Newton iterate")
            x = x + step
            if not np.all(np.isfinite(x)):
                raise NoConvergenceError("Newton iterate became non-finite")
            if locked is None and np.max(np.abs(step) / spacing) <= 0.5:
                locked = anchor
        raise NoConvergenceError(f"no convergence in {max_iter} iterations")

    def first_order_components(self, x) -> Array:
        """Order-one velocity at an off-grid point; NaN vector when singular."""
        jets, block, weights = self._block_and_weights(x)
        hess = self._contract(jets.hessian, block, weights)
        tmix = self._contract(jets.time_mixed, block, weights)
        return _solve_order_one(hess, tmix)[0]

    def crossing_speed_factor(self, x, axis: int) -> float:
        """``-psi_t / psi_xaxis`` at an off-grid point (N x order-zero component)."""
        jets, block, weights = self._block_and_weights(x)
        pt = self._contract(jets.dpsi_dt, block, weights)
        gi = self._contract(jets.grad[..., axis], block, weights)
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(-pt / gi)


def _newton_fixed_gradient(probe, x0, targets, length_scale: float,
                           max_iter: int = NEWTON_MAX_ITER) -> Array:
    """Newton iteration for grad(psi)(x) = targets.

    ``probe(x)`` returns the (interpolated or exact) gradient and Hessian.
    Converged when the residual max-norm drops below
    ``NEWTON_TOL * ||H||_F * length_scale``.
    """
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        grad, hess = probe(x)
        residual = grad - targets
        frob = float(np.sqrt(np.sum(hess * hess)))
        if np.max(np.abs(residual)) <= NEWTON_TOL * frob * length_scale:
            return x
        step, valid, _ = _solve_order_one(hess, residual)  # step = -H^-1 r
        if not valid:
            raise SingularHessianError("singular Hessian at a Newton iterate")
        x = x + step
        if not np.all(np.isfinite(x)):
            raise NoConvergenceError("Newton iterate became non-finite")
    raise NoConvergenceError(f"no convergence in {max_iter} iterations")


def _gradient_targets(target) -> Array:
    if isinstance(target, AttributeSpec):
        if target.kind != AttributeSpec.GRADIENT_SET:
            raise ValueError("critical-point search needs a gradient-set attribute")
        return np.asarray(target.gradient_targets, dtype=float)
    return np.asarray(target, dtype=float)


def find_critical_point(jets: JetField, seed_index, target) -> Array:
    """Sub-grid location where the field gradient equals the target values.

    Newton iteration on quadratically interpolated jets, seeded at a grid
    index.  ``target`` is a gradient-set :class:`AttributeSpec` or a plain
    target vector (zero for peaks and saddles).
    """
    targets = _gradient_targets(target)
    if targets.shape != (jets.dim,):
        raise ValueError(f"targets must have shape ({jets.dim},), got {targets.shape}")
    x0 = jets.grid.point(tuple(int(i) for i in seed_index))
    return _JetInterpolator(jets).newton_fixed_gradient(x0, targets)


# --------------------------------------------------------------------------
# frame-by-frame tracking


def _empirical_velocity(positions: Array, dt: float) -> Array:
    emp = np.empty_like(positions)
    emp[1:-1] = (positions[2:] - positions[:-2]) / (2.0 * dt)
    emp[0] = (positions[1] - positions[0]) / dt
    emp[-1] = (positions[-1] - positions[-2]) / dt
    return emp


def _deviation(empirical: Array, computed: Array) -> float:
    emp = empirical[1:-1]
    comp = computed[1:-1]
    mask = np.isfinite(comp)
    if not np.any(mask):
        raise TrackingError("no interior frames with a defined computed velocity")
    diff = float(np.max(np.abs(emp[mask] - comp[mask])))
    scale = float(np.max(np.abs(comp[mask])))
    return diff / scale if scale > 1e-12 else diff


def track_attribute(
    field,
    target: AttributeSpec,
    seed,
    times=None,
    spec: StencilSpec = DEFAULT_STENCIL,
    search_radius: float = 0.5,
) -> TrackResult:
    """Track an attribute point across frames and compare velocities.

    For a :class:`SampledField`, ``seed`` is a grid index near the attribute
    at the first frame and jets come from finite differences.  For an
    analytic catalog field, ``seed`` is a point, ``times`` supplies the
    (uniform) frames, and evaluation is exact; ``search_radius`` bounds the
    per-frame level-crossing search along each ray.
    """
    if not isinstance(target, AttributeSpec):
        raise TypeError("target must be an AttributeSpec")
    if isinstance(field, SampledField):
        if field.frames < 3:
            raise ValueError("tracking needs at least 3 frames")
        if target.kind == AttributeSpec.GRADIENT_SET:
            return _track_gradient_sampled(field, target, seed, spec)
        return _track_level_sampled(field, target, seed, spec)
    if isinstance(field, AnalyticField):
        if times is None:
            raise ValueError("analytic tracking needs explicit times")
        t0, dt, m = canonical_time_axis(times)
        if m < 3:
            raise ValueError("tracking needs at least 3 frames")
        frame_times = t0 + dt * np.arange(m)
        if target.kind == AttributeSpec.GRADIENT_SET:
            return _track_gradient_analytic(field, target, seed, frame_times)
        return _track_level_analytic(field, target, seed, frame_times, search_radius)
    raise TypeError(f"cannot track on a {type(field).__name__}")


def _track_gradient_sampled(field: SampledField, target, seed, spec) -> TrackResult:
    grid = field.grid
    n = grid.dim
    targets = _gradient_targets(target)
    m = field.frames
    positions = np.empty((m, n))
    computed = np.full((m, n), np.nan)
    x = grid.point(tuple(int(i) for i in seed))
    for frame in range(m):
        # end frames under shrink-to-valid have no time window: track spatially
        has_time = _time_taps(field, frame, spec) is not None
        interp = _JetInterpolator(field=field, frame=frame, spec=spec, time_derivatives=has_time)
        x = interp.newton_fixed_gradient(x, targets)
        positions[frame] = x
        if has_time:
            computed[frame] = interp.first_order_components(x)
    empirical = _empirical_velocity(positions, field.dt)
    return TrackResult(
        target.kind, field.times, positions, empirical, computed,
        _deviation(empirical, computed),
    )


def _track_gradient_analytic(field: AnalyticField, target, seed, frame_times) -> TrackResult:
    n = field.dim
    targets = _gradient_targets(target)
    x = np.asarray(seed, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"seed must be a point of dimension {n}")
    m = frame_times.size
    positions = np.empty((m, n))
    computed = np.full((m, n), np.nan)
    scale = 1.0  # analytic jets have no grid; unit length scale
    for frame, t in enumerate(frame_times):
        def probe(p, t=t):
            jet = field.jet2(p, t)
            return jet.grad, jet.hessian
        x = _newton_fixed_gradient(probe, x, targets, scale)
        positions[frame] = x
        v1 = first_order_velocity_nd(field.jet2(x, t))
        if v1.valid:
            computed[frame] = v1.components
    dt = float(frame_times[1] - frame_times[0])
    empirical = _empirical_velocity(positions, dt)
    return TrackResult(
        target.kind, frame_times, positions, empirical, computed,
        _deviation(empirical, computed),
    )


def _crossing_cell(coords: Array, f: Array, near: float, lost: str) -> int:
    """Index ``k`` of the cell ``coords[k]..coords[k+1]`` nearest to ``near`` in which
    ``f`` changes sign (or starts at zero); AttributeLostError(lost) if there is none."""
    lo = f[:-1]
    hi = f[1:]
    cells = np.nonzero((lo == 0.0) | (np.sign(lo) != np.sign(hi)))[0]
    if cells.size == 0:
        raise AttributeLostError(lost)
    mid = 0.5 * (coords[cells] + coords[cells + 1])
    return int(cells[np.argmin(np.abs(mid - near))])


def _linear_crossing(coords: Array, values: Array, level: float, near: float) -> float:
    """Crossing of a sampled 1-d profile through ``level`` nearest to ``near``.

    Piecewise-linear interpolation; returns the crossing coordinate.
    """
    f = values - level
    k = _crossing_cell(coords, f, near, f"no crossing of level {level} on the ray")
    if f[k] == 0.0:
        return float(coords[k])
    return float(coords[k] + (coords[k + 1] - coords[k]) * f[k] / (f[k] - f[k + 1]))


def _track_level_sampled(field: SampledField, target, seed, spec) -> TrackResult:
    grid = field.grid
    n = grid.dim
    seed = tuple(int(i) for i in seed)
    if len(seed) != n:
        raise ValueError(f"seed index must have {n} entries")
    m = field.frames
    positions = np.empty((m, n))
    computed = np.full((m, n), np.nan)
    interps = [
        _JetInterpolator(field=field, frame=frame, spec=spec)
        if _time_taps(field, frame, spec) is not None else None
        for frame in range(m)
    ]
    for axis in range(n):
        coords = grid.axis_coordinates(axis)
        ray = seed[:axis] + (slice(None),) + seed[axis + 1 :]
        near = coords[seed[axis]]
        for frame in range(m):
            s = _linear_crossing(coords, field.values[frame][ray], target.level, near)
            positions[frame, axis] = s
            near = s
            interp = interps[frame]
            if interp is not None:
                point = grid.point(seed)
                point[axis] = s
                try:
                    computed[frame, axis] = interp.crossing_speed_factor(point, axis)
                except AttributeLostError:
                    pass
    empirical = _empirical_velocity(positions, field.dt)
    return TrackResult(
        target.kind, field.times, positions, empirical, computed,
        _deviation(empirical, computed),
    )


def _track_level_analytic(
    field: AnalyticField, target, seed, frame_times, search_radius: float
) -> TrackResult:
    n = field.dim
    seed = np.asarray(seed, dtype=float)
    if seed.shape != (n,):
        raise ValueError(f"seed must be a point of dimension {n}")
    m = frame_times.size
    positions = np.empty((m, n))
    computed = np.full((m, n), np.nan)
    for axis in range(n):
        near = float(seed[axis])
        for frame, t in enumerate(frame_times):
            def profile(s, axis=axis, t=t):
                p = seed.copy()
                p[axis] = s
                return float(field.value(p, t) - target.level)

            s = _bracketed_root(profile, near, search_radius)
            positions[frame, axis] = s
            near = s
            point = seed.copy()
            point[axis] = s
            jet = field.jet2(point, t)
            gi = jet.grad[axis]
            if gi != 0.0:
                computed[frame, axis] = -jet.dpsi_dt / gi
    dt = float(frame_times[1] - frame_times[0])
    empirical = _empirical_velocity(positions, dt)
    return TrackResult(
        target.kind, frame_times, positions, empirical, computed,
        _deviation(empirical, computed),
    )


def _bracketed_root(fn, near: float, radius: float) -> float:
    """Root of a scalar function nearest to ``near`` within ``radius``."""
    samples = np.linspace(near - radius, near + radius, 65)
    values = np.array([fn(s) for s in samples])
    k = _crossing_cell(samples, values, near, "no level crossing within the search radius")
    if values[k] == 0.0:
        return float(samples[k])
    return float(brentq(fn, samples[k], samples[k + 1], xtol=1e-14, rtol=8.9e-16))
