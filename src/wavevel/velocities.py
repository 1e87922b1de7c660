"""Local wave velocities of order zero and one, in any spatial dimension.

Order zero tracks a fixed field value: component ``i`` is
``-(1/N) * psi_t / psi_xi``, and the N-tuple of reciprocals
``-N * psi_xi / psi_t`` is the primary representation (it stays finite
whenever ``psi_t != 0`` and transforms linearly under coordinate changes).

Order one tracks a fixed spatial gradient (a peak, trough or saddle): the
components solve ``H v = -d/dt grad(psi)`` with ``H`` the spatial Hessian.
A singular Hessian is an expected regime and yields ``valid=False`` rather
than an exception.  The contraction of the order-zero reciprocals with the
order-one components is a dimensionless scalar, invariant under linear
coordinate changes; it equals N for any rigidly translating profile.

Each formula has one kernel, which runs at one point or on a stack of points
and owns the formula's validity rules: :func:`_order_zero`,
:func:`_solve_order_one` and :func:`_contract`.  The pointwise functions
raise where a kernel marks their point invalid; the grid maps and the
covariance checks mask.  The solve's Cramer route serves N <= 3; its pivoted
route serves any N (N >= 4 by default, the covariance checks, and
``first_order_velocity(jet, pivoted=True)``, the reference the Cramer route
is checked against).

The order-one map calls its kernel on blocks of :data:`BLOCK_POINTS` points
and stores its output planes-first behind a component-last view; the other
two kernels run on the whole grid and keep the memory order of their input
(planes-first on fd jets).  The kernels read their inputs plane by plane and
sum over components left to right from +0.0 (:func:`_sum_planes`), so they
give the same bits on any layout and at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import Grid, _sum_planes
from .jets import Jet2, JetField, _component_planes

Array = np.ndarray

#: Scale-invariant singularity threshold: the Hessian counts as singular
#: when |det H| <= EPS_SINGULAR * ||H||_F ** N.
EPS_SINGULAR = 1e-10

#: Points per call of the order-one kernel in the grid map: a block's
#: temporaries stay in cache, and peak memory is the output plus one block.
BLOCK_POINTS = 8192


class StationaryDegenerateError(ValueError):
    """Raised when psi_t = 0 and grad psi = 0: no attribute motion is defined."""


class UndefinedContractionError(ValueError):
    """Raised when the contraction scalar has no defined value."""


@dataclass(frozen=True)
class ZeroOrderVelocity:
    """Order-zero velocity: reciprocal covector plus per-component view.

    ``components[i]`` is ±inf exactly where ``reciprocal[i]`` is 0 (the
    gradient component vanishes while the field still changes in time).
    When ``psi_t = 0`` the reciprocals are not finite and only the
    components (all zero on axes with nonzero gradient) are meaningful.
    """

    reciprocal: Array
    components: Array

    def __post_init__(self):
        w = np.asarray(self.reciprocal, dtype=float)
        v = np.asarray(self.components, dtype=float)
        if w.ndim != 1 or v.shape != w.shape:
            raise ValueError("reciprocal and components must be equal-length vectors")
        object.__setattr__(self, "reciprocal", w)
        object.__setattr__(self, "components", v)

    @property
    def dim(self) -> int:
        return self.reciprocal.shape[0]


@dataclass(frozen=True)
class FirstOrderVelocity:
    """Order-one (peak) velocity with validity flag and conditioning diagnostic.

    When ``valid`` is False the components are NaN sentinels and must not be
    consumed; ``hessian_condition`` is ``||H||_F**N / |det H|``.
    """

    components: Array
    valid: bool
    hessian_condition: float

    def __post_init__(self):
        v = np.asarray(self.components, dtype=float)
        if v.ndim != 1:
            raise ValueError("components must be a vector")
        object.__setattr__(self, "components", v)
        object.__setattr__(self, "valid", bool(self.valid))
        object.__setattr__(self, "hessian_condition", float(self.hessian_condition))

    @property
    def dim(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True)
class AttributeSpec:
    """The traced attribute: a fixed field value or a fixed spatial gradient."""

    kind: str
    level: float = None
    gradient_targets: tuple = None

    LEVEL_SET = "level-set"
    GRADIENT_SET = "gradient-set"

    def __post_init__(self):
        if self.kind == self.LEVEL_SET:
            if self.level is None or self.gradient_targets is not None:
                raise ValueError("level-set attribute needs a level and no gradient targets")
            object.__setattr__(self, "level", float(self.level))
            if not math.isfinite(self.level):
                raise ValueError(f"level must be finite, got {self.level}")
        elif self.kind == self.GRADIENT_SET:
            if self.gradient_targets is None or self.level is not None:
                raise ValueError("gradient-set attribute needs gradient targets and no level")
            targets = tuple(float(c) for c in np.atleast_1d(self.gradient_targets))
            if not all(map(math.isfinite, targets)):
                raise ValueError(f"gradient targets must be finite, got {targets}")
            object.__setattr__(self, "gradient_targets", targets)
        else:
            raise ValueError(f"unknown attribute kind {self.kind!r}")

    @classmethod
    def level_set(cls, level: float) -> "AttributeSpec":
        return cls(cls.LEVEL_SET, level=level)

    @classmethod
    def gradient_set(cls, targets) -> "AttributeSpec":
        return cls(cls.GRADIENT_SET, gradient_targets=targets)


# --------------------------------------------------------------------------
# pointwise operations


def _order_zero(grad: Array, dpsi_dt, ok=True):
    """The order-zero formula on a stack of points; one point is a stack of one.

    ``grad`` is ``...xN``, ``dpsi_dt`` is ``...`` and ``ok`` marks the valid
    input jets (True at one point).  Returns ``(reciprocal, components,
    valid)`` by the rules of :func:`zero_order_velocity`; stationary-degenerate
    and invalid points are not valid and NaN throughout.
    """
    dpsi_dt = np.asarray(dpsi_dt)
    reciprocal, valid = _reciprocals(grad, dpsi_dt, ok)
    return reciprocal, _zero_components(grad, dpsi_dt, valid), valid


def _reciprocals(grad: Array, dpsi_dt: Array, ok):
    """``(reciprocal, valid)`` of :func:`_order_zero` on a stack, in the layout of
    ``grad``, plane by plane: no full-size temporary.  A NaN counts as nonzero."""
    n = grad.shape[-1]
    moving = dpsi_dt != 0.0
    for a in range(n):
        moving |= grad[..., a] != 0.0
    valid = ok & moving
    w, invalid = np.empty_like(grad), ~valid
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(n):
            np.divide(np.multiply(-n, grad[..., a], out=w[..., a]), dpsi_dt, out=w[..., a])
            np.copyto(w[..., a], np.nan, where=invalid)
    return w, valid


def _zero_components(grad: Array, dpsi_dt: Array, valid: Array) -> Array:
    """The components of :func:`_order_zero` on a stack, in the layout of ``grad``."""
    v, invalid = np.empty_like(grad), ~valid
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        speed, pole = -(dpsi_dt / grad.shape[-1]), -dpsi_dt / 0.0
        for a in range(grad.shape[-1]):
            np.divide(speed, grad[..., a], out=v[..., a])
            np.copyto(v[..., a], pole, where=grad[..., a] == 0.0)
            np.copyto(v[..., a], np.nan, where=invalid)
    return v


def zero_order_velocity(jet) -> ZeroOrderVelocity:
    """Order-zero velocity from a first-order jet (Jet1 or Jet2).

    Raises :class:`StationaryDegenerateError` when both psi_t and the whole
    gradient vanish (the traced-value condition is vacuous there).  On axes
    where only the gradient component vanishes the component is ±inf with
    the sign of ``-psi_t`` (the reciprocal is 0 and is the meaningful
    representation).  Axes where both psi_t and the gradient component are
    zero get NaN in both representations.
    """
    reciprocal, components, valid = _order_zero(np.asarray(jet.grad, dtype=float),
                                                float(jet.dpsi_dt))
    if not valid:
        raise StationaryDegenerateError(
            "psi_t = 0 and grad psi = 0: no attribute velocity is defined"
        )
    return ZeroOrderVelocity(reciprocal, components)


def _minor(a, b):
    """The 2x2 minor of the columns ``a`` and ``b`` on their last two rows."""
    return a[-2] * b[-1] - b[-2] * a[-1]


def _cramer(cols, rhs):
    """``det H`` and the numerators ``det(H, column j := rhs)`` (N <= 3) from the
    columns of H, on floats or planes; the 7 minors at N = 3 are formed once."""
    if len(cols) == 1:
        return cols[0][0], [rhs[0]]
    if len(cols) == 2:
        return _minor(*cols), [_minor(rhs, cols[1]), _minor(cols[0], rhs)]
    (a, b, c), r = cols, rhs
    bc, ac, ab = _minor(b, c), _minor(a, c), _minor(a, b)
    rc, rb, ar, br = _minor(r, c), _minor(r, b), _minor(a, r), _minor(b, r)
    return (a[0] * bc - b[0] * ac + c[0] * ab,
            [r[0] * bc - b[0] * rc + c[0] * rb,
             a[0] * rc - r[0] * ac + c[0] * ar,
             a[0] * br - b[0] * ar + r[0] * ab])


def _solve_order_one(h: Array, b: Array, ok=True, eps_singular: float = EPS_SINGULAR,
                     pivoted: bool = False):
    """The order-one solve ``H v = -b`` at one point or on a stack of points.

    ``h`` is ``...xNxN``, ``b`` is ``...xN`` and ``ok`` marks the points whose
    input jets are valid (True for a single point).  The Cramer route covers
    N <= 3, the pivoted route (LU determinant and solve) any N; Cramer is
    taken wherever it applies unless ``pivoted``.  Returns ``(components, valid,
    hessian_condition)``: components are NaN where not valid, and the
    condition is ``||H||_F**N / |det H|``, inf where ``det H == 0`` or the
    input is invalid.  A point is valid only where its components are
    finite: a solve that overflows gives NaN components, not ±inf.  A single
    point runs on plain floats and skips the masking a stack needs.  The
    pivoted route gathers the valid input points once (the others may hold
    NaN) for LAPACK's determinant and solve.  ``eps_singular`` must be finite
    and non-negative, else ``ValueError``: a negative one passes singular
    Hessians, a NaN or infinite one rejects every point.
    """
    if not 0.0 <= eps_singular < np.inf:
        raise ValueError(f"eps_singular must be finite and non-negative, got {eps_singular!r}")
    n = h.shape[-1]
    one = h.ndim == 2
    pivoted = pivoted or n > 3
    # the entries of H: floats at one point, plane views on a stack
    rows = h.tolist() if one else [[h[..., i, j] for j in range(n)] for i in range(n)]
    # ||H||_F ** 2 summed left to right, so every layout of the stack rounds alike;
    # ||H||_F ** N is its root at odd N times N // 2 factors of it, left to right:
    # each step is correctly rounded, so a point and a stack give the same bits
    frob_2 = _sum_planes(e * e for row in rows for e in row)
    frob_n = (math.sqrt(frob_2) if one else np.sqrt(frob_2)) if n % 2 else 1.0
    for _ in range(n // 2):
        frob_n = frob_n * frob_2
    if pivoted and one:
        det = np.linalg.det(h) if ok else 0.0
    elif pivoted:
        gathered = h[ok]
        det = np.zeros(np.shape(ok))
        det[ok] = np.linalg.det(gathered)
    else:
        det, numerators = _cramer([list(col) for col in zip(*rows)],
                                  b.tolist() if one else [b[..., i] for i in range(n)])
    if one:
        frob_n, det = float(frob_n), float(det)
    valid = ok & (abs(det) > eps_singular * frob_n)
    if one:
        cond = frob_n / abs(det) if det != 0.0 else np.inf
        if not valid:
            return np.full(n, np.nan), valid, cond
    else:
        cond = np.divide(frob_n, abs(det), out=np.full(det.shape, np.inf), where=ok & (det != 0.0))
        if not pivoted:  # a NaN denominator gives the invalid points NaN components
            det = np.where(valid, det, np.nan)
    if pivoted and one:
        comps = np.linalg.solve(h, -b[:, None])[:, 0].tolist()
    elif pivoted:
        comps = np.full(b.shape, np.nan)
        gathered[~valid[ok]] = np.eye(n)  # singular: solved as the identity and dropped
        comps[valid] = np.linalg.solve(gathered, -b[ok][..., None])[valid[ok], :, 0]
    else:
        comps = [-num / det for num in numerators]
    if one:  # plain floats, tested before they become an array
        if all(map(math.isfinite, comps)):
            return np.array(comps), valid, cond
        return np.full(n, np.nan), False, cond
    if not pivoted:
        comps = np.stack(comps, axis=-1)
    # an overflowed solve gives no velocity (the invalid points are NaN already);
    # tested plane by plane, as numpy reduces a short last axis slowly
    finite = np.isfinite(comps[..., 0])
    for j in range(1, n):
        finite &= np.isfinite(comps[..., j])
    overflowed = valid & ~finite
    comps[overflowed] = np.nan
    return comps, valid & finite, cond


def first_order_velocity(jet: Jet2, eps_singular: float = EPS_SINGULAR,
                         pivoted: bool = False) -> FirstOrderVelocity:
    """Order-one velocity in any dimension: the solve of ``H v = -d/dt grad(psi)``.

    By default it takes the grid map's route, the closed Cramer form for
    N <= 3 and a pivoted LU solve above; ``pivoted=True`` takes the LU solve
    at any N, the reference the Cramer route is checked against.  The routes
    can disagree on ``hessian_condition`` at exactly singular Hessians: LU
    keeps a rounding residue in ``det H`` where Cramer's cancels to 0, so one
    reports a huge finite condition where the other reports inf (both mark
    the point invalid).
    """
    return FirstOrderVelocity(
        *_solve_order_one(jet.hessian, jet.time_mixed, True, eps_singular, pivoted)
    )


def _contract(reciprocal: Array, components: Array, ok=True):
    """The contraction at one point or on a stack of points: ``(values, valid)``,
    valid where ``ok`` marks valid velocities, every reciprocal is finite and
    the value is finite, NaN elsewhere.  The products are summed in
    :func:`_sum_planes` order."""
    n = reciprocal.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(_sum_planes(reciprocal[..., a] * components[..., a]
                                        for a in range(n)))
    valid = ok & np.isfinite(reciprocal).all(axis=-1) & np.isfinite(values)
    values[~valid] = np.nan
    return values, valid


def contraction_scalar(v0: ZeroOrderVelocity, v1: FirstOrderVelocity) -> float:
    """Dimensionless pairing of order-zero reciprocals with order-one components."""
    if v0.dim != v1.dim:
        raise ValueError(f"dimension mismatch: {v0.dim} vs {v1.dim}")
    value, valid = _contract(v0.reciprocal, v1.components, v1.valid)
    if not v1.valid:
        raise UndefinedContractionError("order-one velocity is invalid (singular Hessian)")
    if not valid:
        raise UndefinedContractionError(
            "reciprocal velocities are undefined (psi_t = 0 at the source jet)"
        )
    return float(value)


# --------------------------------------------------------------------------
# grid-level maps


@dataclass
class ZeroOrderVelocityField:
    """Order-zero velocities at every valid grid point.  ``components`` is
    derived from the jets' gradient and psi_t on first read and cached."""

    grid: Grid
    reciprocal: Array
    valid: Array
    _sources: tuple = field(repr=False, compare=False)  # (grad, dpsi_dt) of the jets

    @property
    def dim(self) -> int:
        return self.grid.dim

    @cached_property
    def components(self) -> Array:
        return _zero_components(*self._sources, self.valid)


@dataclass
class FirstOrderVelocityField:
    """Order-one velocities at every valid grid point."""

    grid: Grid
    components: Array
    valid: Array
    hessian_condition: Array

    @property
    def dim(self) -> int:
        return self.grid.dim


def zero_order_velocity_field(jets: JetField) -> ZeroOrderVelocityField:
    """Map the order-zero formula over a jet field.

    Stationary-degenerate points (psi_t = 0 with a fully vanishing gradient)
    are marked invalid instead of raising.
    """
    return ZeroOrderVelocityField(jets.grid, *_reciprocals(jets.grad, jets.dpsi_dt, jets.valid),
                                  (jets.grad, jets.dpsi_dt))


def first_order_velocity_field(
    jets: JetField, eps_singular: float = EPS_SINGULAR
) -> FirstOrderVelocityField:
    """Map the order-one solve over a jet field: Cramer for N <= 3, pivoted above.

    The solve runs on contiguous blocks of :data:`BLOCK_POINTS` points.
    Singular-Hessian points are marked invalid, never silently zeroed.
    """
    n = jets.dim
    shape = jets.grid.shape
    h = jets.hessian.reshape(-1, n, n)
    b = jets.time_mixed.reshape(-1, n)
    ok = jets.valid.reshape(-1)
    comps = _component_planes(ok.shape, n)
    valid = np.empty(ok.shape, dtype=bool)
    cond = np.empty(ok.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed solve is masked
        for start in range(0, ok.size, BLOCK_POINTS):
            block = slice(start, start + BLOCK_POINTS)
            comps[block], valid[block], cond[block] = _solve_order_one(
                h[block], b[block], ok[block], eps_singular
            )
    return FirstOrderVelocityField(
        jets.grid, comps.reshape(shape + (n,)), valid.reshape(shape), cond.reshape(shape)
    )


def velocity_field(jets: JetField, order: int, eps_singular: float = EPS_SINGULAR):
    """Pointwise velocity map of the requested order over a jet field."""
    if order == 0:
        return zero_order_velocity_field(jets)
    if order == 1:
        return first_order_velocity_field(jets, eps_singular)
    raise ValueError(f"order must be 0 or 1, got {order}")


def contraction_scalar_field(v0: ZeroOrderVelocityField, v1: FirstOrderVelocityField):
    """Contraction scalar at every point where both velocities are defined.

    Returns ``(values, valid)``; points with nonfinite reciprocals (psi_t = 0)
    or invalid order-one velocity are masked out.  Both maps must share one
    grid.
    """
    if v0.grid != v1.grid:
        raise ValueError(f"grid mismatch: {v0.grid} vs {v1.grid}")
    return _contract(v0.reciprocal, v1.components, v0.valid & v1.valid)
