"""Uniform grids, sampled scalar fields, and an analytic field catalog.

The catalog fields know their own exact derivative jets, so every velocity
formula can be exercised with zero discretization error before finite
differences enter the picture.  Each kind writes its field expression once,
for its values and its jets alike, and every exact Hessian is symmetric to
the bit.  One parameter rule (:class:`AnalyticField`) serves
the constructors and :func:`make_field`.  Units are abstract reals
throughout; the docstrings state dimensions (field, length, time) but
nothing is enforced.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from .jets import Jet1, Jet2, JetField

Array = np.ndarray

#: Minimum points per axis; interior 4th-order stencils need five.
MIN_EXTENT = 5


@dataclass(frozen=True)
class Grid:
    """Uniform rectilinear grid in N spatial dimensions.

    The point at index ``i`` along axis ``a`` sits at
    ``origin[a] + i * spacing[a]``.
    """

    shape: tuple
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        spacing = tuple(float(s) for s in np.atleast_1d(self.spacing))
        origin = tuple(float(o) for o in np.atleast_1d(self.origin))
        if len(shape) < 1:
            raise ValueError("grid must have at least one axis")
        if len(spacing) != len(shape) or len(origin) != len(shape):
            raise ValueError("shape, spacing and origin must have equal length")
        if any(n < MIN_EXTENT for n in shape):
            raise ValueError(f"every axis needs at least {MIN_EXTENT} points, got {shape}")
        if any(not (s > 0.0) or not math.isfinite(s) for s in spacing):
            raise ValueError(f"spacings must be strictly positive, got {spacing}")
        if any(not math.isfinite(o) for o in origin):
            raise ValueError("origin must be finite")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def npoints(self) -> int:
        return math.prod(self.shape)  # Python ints: no int64 wrap

    def axis_coordinates(self, axis: int) -> Array:
        """Coordinates of the grid points along one axis."""
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    def point(self, index) -> Array:
        """Coordinates of the grid point at a (possibly fractional) index."""
        idx = np.asarray(index, dtype=float)
        return np.asarray(self.origin) + idx * np.asarray(self.spacing)

    def points(self) -> Array:
        """All grid point coordinates, shape ``(*shape, dim)``."""
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def index_of(self, x) -> Array:
        """Fractional index of a point (inverse of :meth:`point`)."""
        x = np.asarray(x, dtype=float)
        return (x - np.asarray(self.origin)) / np.asarray(self.spacing)


def canonical_time_axis(times) -> tuple:
    """Validate strictly increasing, uniform time stamps; return (t0, dt, count).

    Single-frame inputs get dt = 0.  Stamps may deviate from exact uniformity
    by at most 1e-9 * dt; they are canonicalized to ``t0 + m * dt``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times.size == 1:
        return float(times[0]), 0.0, 1
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    dt = (times[-1] - times[0]) / (times.size - 1)
    canonical = times[0] + dt * np.arange(times.size)
    if np.max(np.abs(times - canonical)) > 1e-9 * dt:
        raise ValueError("time stamps must be uniformly spaced")
    return float(times[0]), float(dt), int(times.size)


def make_grid(dim: int, shape, spacing, origin) -> Grid:
    """Validated grid constructor; ``dim`` is cross-checked against the extents."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    shape = tuple(np.atleast_1d(shape))
    spacing = np.atleast_1d(spacing)
    origin = np.atleast_1d(origin)
    if spacing.size == 1:
        spacing = np.repeat(spacing, dim)
    if origin.size == 1:
        origin = np.repeat(origin, dim)
    if len(shape) != dim:
        raise ValueError(f"dim={dim} but shape has {len(shape)} axes")
    return Grid(shape, tuple(spacing), tuple(origin))


@dataclass(frozen=True)
class SampledField:
    """Scalar field values on a grid at M uniformly spaced time frames.

    Time stamps are canonical: frame ``m`` is at ``t0 + m * dt``.  Use
    :meth:`from_times` to build from an explicit stamp list (uniformity is
    validated and the stamps are canonicalized).
    """

    grid: Grid
    t0: float
    dt: float
    values: Array

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != self.grid.dim + 1 or values.shape[1:] != self.grid.shape:
            raise ValueError(
                f"values must have shape (M, {', '.join(map(str, self.grid.shape))}), got {values.shape}"
            )
        if values.shape[0] < 1:
            raise ValueError("need at least one time frame")
        # min and max propagate NaN and show +-inf: exact, with no mask and no loop over frames
        if not (math.isfinite(values.min()) and math.isfinite(values.max())):
            raise ValueError("field values must be finite")
        t0 = float(self.t0)
        dt = float(self.dt)
        if not (math.isfinite(t0) and math.isfinite(dt)):
            raise ValueError("t0 and dt must be finite")
        if values.shape[0] > 1 and not dt > 0.0:
            raise ValueError("dt must be positive for multi-frame fields")
        if values.shape[0] == 1 and dt < 0.0:
            raise ValueError("dt must be non-negative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "dt", dt)

    @classmethod
    def from_times(cls, grid: Grid, times, values) -> "SampledField":
        t0, dt, _ = canonical_time_axis(times)
        return cls(grid, t0, dt, values)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> Array:
        return self.t0 + self.dt * np.arange(self.frames)

    def time(self, frame: int) -> float:
        if not 0 <= frame < self.frames:
            raise IndexError(f"frame {frame} out of range [0, {self.frames})")
        return self.t0 + self.dt * frame

    def _window(self, frames: range, lo, hi) -> "SampledField":
        """The ``frames`` (a range of step 1) of the index box ``lo``..``hi`` (hi
        exclusive) as a field of their own, its values a C-ordered copy.  The
        values are not scanned again: a window of finite values is finite."""
        box = (slice(frames.start, frames.stop),) + tuple(slice(a, b) for a, b in zip(lo, hi))
        grid = Grid(tuple(b - a for a, b in zip(lo, hi)), self.grid.spacing,
                    tuple(self.grid.point(lo)))
        sub = object.__new__(SampledField)
        for name, value in (("grid", grid), ("t0", self.time(frames.start)), ("dt", self.dt),
                            ("values", np.ascontiguousarray(self.values[box]))):
            object.__setattr__(sub, name, value)
        return sub


# --------------------------------------------------------------------------
# Analytic catalog


class AnalyticField:
    """Base class for closed-form space-time fields with exact jets.

    Subclasses implement :meth:`value` (vectorized over a trailing coordinate
    axis) and :meth:`jet_arrays`; everything else derives from those.
    :func:`sample` evaluates a grid through :meth:`_grid_values`, which by
    default calls :meth:`value` on ``grid.points()`` once per frame; a field
    that can evaluate a grid without its point array overrides it.

    The catalog kinds are dataclasses whose parameters :meth:`__post_init__`
    normalises by declared type, for the constructors and :func:`make_field`
    alike: a ``float`` is one finite number, a ``tuple`` a vector of finite
    numbers (one number is a vector of one; a default of None is the kind's
    to fill), and text is neither.  A failure is a ``ValueError`` naming the
    parameter and the kind; the kinds then check only their own rules.
    """

    kind = "abstract"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type not in ("float", "tuple") or (value is None and f.default is None):
                continue
            vector = f.type == "tuple"
            if vector and isinstance(value, str):
                raise ValueError(f"parameter {f.name!r} of field kind {self.kind!r} takes "
                                 f"numbers, not the text {value!r}")
            try:
                arr = None if isinstance(value, str) else np.asarray(value, dtype=float)
            except (TypeError, ValueError, OverflowError):
                arr = None
            self._require(arr is not None and arr.ndim <= vector, f.name,
                          "a vector of numbers" if vector else "one number")
            self._require(np.isfinite(arr).all(), f.name, "finite")  # a None entry reads as NaN
            value = tuple(float(v) for v in np.atleast_1d(arr)) if vector else float(arr)
            object.__setattr__(self, f.name, value)

    def _require(self, ok: bool, name: str, rule: str) -> None:
        """Reject parameter ``name`` unless ``ok``: "parameter ... must be <rule>"."""
        if not ok:
            raise ValueError(f"parameter {name!r} of field kind {self.kind!r} must be {rule}, "
                             f"got {getattr(self, name)!r}")

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def value(self, points, t: float) -> Array:
        """Field value at points of shape ``(..., dim)``; returns ``(...)``."""
        raise NotImplementedError

    def _grid_values(self, grid: Grid, times) -> Array:
        """Values at every point of ``grid`` at each of ``times``, shape
        ``(len(times), *grid.shape)``; ``grid.dim`` must equal :attr:`dim`."""
        pts = grid.points()
        values = np.empty((len(times),) + grid.shape)
        for frame, t in zip(values, times):
            frame[...] = self.value(pts, t)
        return values

    def jet_arrays(self, points, t: float):
        """Exact jets at many points.

        Returns ``(psi, dpsi_dt, grad, hessian, time_mixed)`` with shapes
        ``(...)``, ``(...)``, ``(..., N)``, ``(..., N, N)``, ``(..., N)``.
        """
        raise NotImplementedError

    def jet2(self, point, t: float) -> Jet2:
        """Exact second-order jet at a single point."""
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("point must be finite")
        psi, pt, g, h, tm = self.jet_arrays(p[None, :], t)
        return Jet2(Jet1(psi[0], pt[0], g[0]), h[0], tm[0])

    def _check_points(self, points) -> Array:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have trailing dimension {self.dim}, got {pts.shape}")
        return pts


@dataclass(frozen=True)
class PlaneWave(AnalyticField):
    """Sinusoidal plane wave ``A * sin(k . x - omega * t + phase)``."""

    wave_vector: tuple
    angular_frequency: float
    amplitude: float = 1.0
    phase: float = 0.0

    kind = "plane-wave"

    def __post_init__(self):
        super().__post_init__()
        self._require(any(self.wave_vector), "wave_vector", "nonzero")

    @property
    def dim(self) -> int:
        return len(self.wave_vector)

    def _theta(self, points, t):
        return points @ np.asarray(self.wave_vector) - self.angular_frequency * t + self.phase

    def value(self, points, t):
        pts = self._check_points(points)
        return self.amplitude * np.sin(self._theta(pts, t))

    def jet_arrays(self, points, t):
        pts = self._check_points(points)
        k = np.asarray(self.wave_vector)
        w = self.angular_frequency
        theta = self._theta(pts, t)
        s = self.amplitude * np.sin(theta)
        c = self.amplitude * np.cos(theta)
        grad = c[..., None] * k
        hess = -s[..., None, None] * np.outer(k, k)
        tmix = s[..., None] * (w * k)
        return s, -w * c, grad, hess, tmix


def _sum_planes(terms, out=None) -> Array:
    """The terms summed left to right from +0.0: ``((0.0 + t0) + t1) + ...``.

    This is the one rounding rule for sums over components, so a sum gives
    the same bits on any memory layout and at a single point, and a sum of
    -0 terms is +0.  The first term is added to +0.0 into ``out`` when it is
    given, else in place (arrays only: a float is never changed); each later
    term is then added in place and dropped before the next is made.
    """
    terms = iter(terms)
    if out is None:
        total = next(terms)
        total += 0.0
    else:
        total = np.add(next(terms), 0.0, out=out)
    for term in terms:
        total += term
        del term  # freed before the next term is made: one temporary at a time
    return total


def _gaussian_value(coords, center, sigma: float, amplitude: float, shift=None, out=None):
    """``A * exp(-|u|^2 / sigma^2)`` with ``u_a = coords[a] - center[a] - shift[a]``.

    Each ``coords[a]`` broadcasts to the result: a plane of a point array, or
    one grid axis shaped as a column, so a grid needs no point array.  The
    squares ``u_a^2`` are made one at a time, each on the shape of its
    ``coords[a]``, and :func:`_sum_planes` adds them left to right into
    ``out``, which holds the result.
    """
    shape = np.broadcast_shapes(*(np.shape(x) for x in coords))

    def square(a):
        u = np.subtract(coords[a], center[a], out=np.empty(np.shape(coords[a])))
        if shift is not None:
            u -= shift[a]
        return np.multiply(u, u, out=u)

    q = _sum_planes(map(square, range(len(coords))), np.empty(shape) if out is None else out)
    np.divide(q, -(sigma**2), out=q)  # the bits of -q / sigma^2: rounding is sign-symmetric
    np.exp(q, out=q)
    q *= amplitude
    return q


class _GaussianBump(AnalyticField):
    """Value, jets and grid sampling shared by the Gaussian kinds.

    All three evaluate :func:`_gaussian_value`; with ``a = (2 / sigma^2) u`` the
    Hessian is ``psi (a a^T - (2 / sigma^2) I)``, symmetric by construction.
    ``|u|^2`` is a sum over the axes, so :meth:`_grid_values` builds each
    ``u_a`` from the grid's axis coordinates and broadcasts it over the frame.
    Subclasses give ``center``, ``sigma`` and ``amplitude``; a moving one
    also gives ``velocity`` and the shift ``c t`` of the center at time ``t``
    (None for a static bump, whose velocity is 0).
    """

    def __post_init__(self):
        super().__post_init__()
        self._require(self.sigma > 0, "sigma", "positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def _shift(self, t):
        return None

    def value(self, points, t):
        pts = self._check_points(points)
        coords = [pts[..., a] for a in range(self.dim)]
        return _gaussian_value(coords, self.center, self.sigma, self.amplitude, self._shift(t))[()]

    def jet_arrays(self, points, t):
        pts = self._check_points(points)
        psi = self.value(pts, t)
        u, shift = pts - np.asarray(self.center), self._shift(t)
        u, velocity = (u, np.zeros(self.dim)) if shift is None else (u - shift, self.velocity)
        b = 2.0 / (self.sigma * self.sigma)
        a = b * u
        grad = -a * psi[..., None]
        uc = u @ velocity
        hess = psi[..., None, None] * (a[..., :, None] * a[..., None, :] - b * np.eye(self.dim))
        tmix = b * psi[..., None] * (velocity - b * uc[..., None] * u)
        return psi, b * uc * psi, grad, hess, tmix

    def _grid_values(self, grid, times):
        n = grid.dim
        coords = [grid.axis_coordinates(a).reshape((-1,) + (1,) * (n - 1 - a)) for a in range(n)]
        values = np.empty((len(times),) + grid.shape)
        for frame, t in zip(values, times):
            _gaussian_value(coords, self.center, self.sigma, self.amplitude, self._shift(t), frame)
        return values


@dataclass(frozen=True)
class TranslatingGaussian(_GaussianBump):
    """Gaussian bump translating rigidly: ``A * exp(-|x - x0 - c t|^2 / sigma^2)``."""

    velocity: tuple
    sigma: float
    center: tuple = None
    amplitude: float = 1.0

    kind = "translating-gaussian"

    def __post_init__(self):
        super().__post_init__()
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * len(self.velocity))
        if len(self.center) != len(self.velocity):
            raise ValueError("center and velocity must have equal length")

    def _shift(self, t):
        return np.asarray(self.velocity) * t


@dataclass(frozen=True)
class StaticGaussian(_GaussianBump):
    """Time-independent Gaussian bump ``A * exp(-|x - x0|^2 / sigma^2)``."""

    sigma: float
    center: tuple = (0.0, 0.0)
    amplitude: float = 1.0

    kind = "static-gaussian"


@dataclass(frozen=True)
class ExpandingGaussianRing(AnalyticField):
    """Radially expanding Gaussian shell around a center point.

    ``A * exp(-(r - r0 - v t)^2 / w^2)`` with ``r = |x - x0|``.  The profile
    is not a rigid translation; locally it translates along the radial ray,
    which makes it a useful non-advective test case.  Derivatives are
    undefined at the center (``r = 0`` is a cusp of ``r``).
    """

    speed: float
    width: float
    radius0: float = 1.0
    center: tuple = (0.0, 0.0)
    amplitude: float = 1.0

    kind = "expanding-gaussian-ring"

    def __post_init__(self):
        super().__post_init__()
        self._require(self.width > 0, "width", "positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def _profile(self, points, t):
        """``(d, r, rho, psi)``: offset from the center, radius, shell coordinate, value."""
        d = self._check_points(points) - np.asarray(self.center)
        r = np.linalg.norm(d, axis=-1)
        rho = r - self.radius0 - self.speed * t
        return d, r, rho, self.amplitude * np.exp(-(rho * rho) / self.width**2)

    def value(self, points, t):
        return self._profile(points, t)[3]

    def jet_arrays(self, points, t):
        d, r, rho, psi = self._profile(points, t)
        if np.any(r == 0):
            raise ValueError("ring jets are undefined at the center point")
        w2 = self.width**2
        v = self.speed
        rhat = d / r[..., None]
        p = -2.0 * rho / w2
        grad = psi[..., None] * p[..., None] * rhat
        dpsi_dt = -v * p * psi
        eye = np.eye(self.dim)
        proj = rhat[..., :, None] * rhat[..., None, :]
        hess = psi[..., None, None] * (
            (p * p - 2.0 / w2)[..., None, None] * proj
            + (p / r)[..., None, None] * (eye - proj)
        )
        tmix = (2.0 * v / w2) * psi[..., None] * (1.0 - 2.0 * rho * rho / w2)[..., None] * rhat
        return psi, dpsi_dt, grad, hess, tmix


def _power_derivative(x: Array, exponent: int, order: int) -> Array:
    """Elementwise d^order/dx^order of x**exponent."""
    if exponent < order:
        return np.zeros_like(x)
    coeff = 1.0
    for j in range(order):
        coeff *= exponent - j
    return coeff * x ** (exponent - order)


@dataclass(frozen=True)
class Polynomial(AnalyticField):
    """Multivariate polynomial in space and time.

    ``terms`` is a sequence of ``(coefficient, spatial_exponents, time_exponent)``
    triples; e.g. ``(3.0, (1, 1), 0)`` is the monomial ``3 x y``.  The value
    and each jet entry are one :meth:`_derivative` call.
    """

    terms: tuple

    kind = "polynomial"

    def __post_init__(self):
        try:
            triples = [(float(coeff), tuple(int(e) for e in exps), int(et))
                       for coeff, exps, et in self.terms]
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                "parameter 'terms' of field kind 'polynomial' must be a sequence of "
                "(coefficient, spatial_exponents, time_exponent) triples, e.g. "
                f"((3.0, (1, 1), 0),), got {self.terms!r}"
            ) from None
        norm = []
        dim = None
        for coeff, exps, et in triples:
            if dim is None:
                dim = len(exps)
            elif len(exps) != dim:
                raise ValueError("all terms must share the spatial dimension")
            if any(e < 0 for e in exps) or et < 0:
                raise ValueError("exponents must be non-negative")
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            norm.append((coeff, exps, et))
        if not norm:
            raise ValueError("polynomial needs at least one term")
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def dim(self) -> int:
        return len(self.terms[0][1])

    def _derivative(self, pts, t, dx: dict, dt_order: int = 0) -> Array:
        """The derivative ``dx`` (axis -> order) and ``dt_order`` in time, summed over the terms."""
        out = np.zeros(pts.shape[:-1])
        for coeff, exps, et in self.terms:
            term = np.ones(pts.shape[:-1])
            for a in range(self.dim):
                term = term * _power_derivative(pts[..., a], exps[a], dx.get(a, 0))
            out = out + coeff * (term * _power_derivative(np.asarray(float(t)), et, dt_order))
        return out

    def value(self, points, t):
        return self._derivative(self._check_points(points), t, {})

    def jet_arrays(self, points, t):
        pts = self._check_points(points)
        d = partial(self._derivative, pts, t)
        n = self.dim
        hess = np.empty(pts.shape[:-1] + (n, n))
        for i in range(n):
            for j in range(i, n):
                hess[..., i, j] = hess[..., j, i] = d({i: 2} if i == j else {i: 1, j: 1})
        grad = np.stack([d({i: 1}) for i in range(n)], axis=-1)
        tmix = np.stack([d({i: 1}, 1) for i in range(n)], axis=-1)
        return d({}), d({}, 1), grad, hess, tmix


FIELD_KINDS = {
    PlaneWave.kind: PlaneWave,
    TranslatingGaussian.kind: TranslatingGaussian,
    StaticGaussian.kind: StaticGaussian,
    ExpandingGaussianRing.kind: ExpandingGaussianRing,
    Polynomial.kind: Polynomial,
}


def make_field(kind: str, **params) -> AnalyticField:
    """Instantiate a catalog field by kind name.

    An unknown kind or an unknown or missing parameter raises ``ValueError``
    naming the kind (and the parameter); the values then meet the same rule
    as in the constructors (see :class:`AnalyticField`), so a bad value is
    a ``ValueError`` naming the parameter and the kind.
    """
    try:
        cls = FIELD_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown field kind {kind!r}; known kinds: {sorted(FIELD_KINDS)}"
        ) from None
    known = {f.name: f for f in fields(cls)}
    for name in params:
        if name not in known:
            raise ValueError(f"field kind {kind!r} has no parameter {name!r}; "
                             f"parameters: {list(known)}")
    for name, f in known.items():
        if f.default is MISSING and name not in params:
            raise ValueError(f"field kind {kind!r} needs parameter {name!r}")
    return cls(**params)


def sample(field: AnalyticField, grid: Grid, times) -> SampledField:
    """Evaluate an analytic field on a grid at the given time frames.

    The frames come from the field's :meth:`AnalyticField._grid_values`:
    :meth:`AnalyticField.value` on the grid's point array, built once, or,
    for the Gaussian kinds, sums of per-axis terms with no point array.
    """
    if field.dim != grid.dim:
        raise ValueError(f"field dim {field.dim} != grid dim {grid.dim}")
    t0, dt, m = canonical_time_axis(np.atleast_1d(times))
    values = field._grid_values(grid, [t0 + dt * k for k in range(m)])
    return SampledField(grid, t0, dt, values)


def analytic_jet_field(field: AnalyticField, grid: Grid, t: float) -> JetField:
    """Exact jets at every grid point (all points valid)."""
    if field.dim != grid.dim:
        raise ValueError(f"field dim {field.dim} != grid dim {grid.dim}")
    psi, dpsi_dt, grad, hess, tmix = field.jet_arrays(grid.points(), t)
    valid = np.ones(grid.shape, dtype=bool)
    return JetField(grid, float(t), None, psi, dpsi_dt, grad, hess, tmix, valid)
