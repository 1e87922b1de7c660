"""Geometric transformation laws of the velocities under linear coordinate changes.

The stored matrix of an :class:`AffineMap` is the Jacobian of the new frame
with respect to the old one (``X = A x + b``).  Reciprocal order-zero
velocities transform with the transpose of ``A`` (covariantly), order-one
velocities with the inverse of ``A`` (contravariantly), and their pairing is
invariant.  Only affine maps are supported; for them the second-derivative
terms of a general change of variables vanish identically, which makes the
linear laws exact and testable.  :func:`transform_covector` and
:func:`transform_vector` are the only copies of the two laws; they take one
vector or a stack ``(..., N)`` and serve the checks and the jet pullback
shared by :func:`pullback_jet2` and :class:`AffineReparamField`.

The checks compare old-frame velocities of the composed field
``base(A x + b, t)`` with the base field's velocities at ``X = A x + b``
carried back by the laws.  Both read jets from a *jet source*
``source(field, points, t)`` with the contract of
:meth:`AnalyticField.jet_arrays`: points ``(..., N)`` in, ``(psi, dpsi_dt,
grad, hessian, time_mixed)`` of shapes ``(...)``, ``(...)``, ``(..., N)``,
``(..., N, N)``, ``(..., N)`` out, every entry finite.  The default source
is the field's exact ``jet_arrays``; :func:`make_fd_jet2_fn` builds a
finite-difference one.  Sources are called once per frame per block of
:data:`BLOCK_POINTS` points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import MIN_EXTENT, AnalyticField, Grid, SampledField, canonical_time_axis
from .findiff import DEFAULT_STENCIL, StencilSpec, fd_jets_at
from .jets import Jet1, Jet2, _mirror_upper, _require_finite
from .velocities import _contract, _order_zero, _solve_order_one

Array = np.ndarray

#: Maps with |det| at or below this are rejected as non-invertible.
MIN_DET = 1e-8

#: Points per block of the checks: bounds the jet and fd-patch arrays, so
#: peak memory does not grow with the number of points.
BLOCK_POINTS = 256


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine coordinate change ``X = A x + b``.

    ``matrix`` is d(X)/d(x); the inverse is computed on construction and
    verified against the identity.  Matrix, offset and inverse are read-only
    copies, so no write, here or in the caller's arrays, can stale ``det``.
    """

    matrix: Array
    offset: Array = None

    def __post_init__(self):
        a = np.array(self.matrix, dtype=float)  # copies: the caller keeps its arrays
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        b = np.zeros(n) if self.offset is None else np.array(self.offset, dtype=float)
        if b.shape != (n,):
            raise ValueError(f"offset must have shape ({n},), got {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("map entries must be finite")
        det = float(np.linalg.det(a))
        if abs(det) < MIN_DET:
            raise ValueError(f"map is not invertible: |det| = {abs(det):.3e} < {MIN_DET}")
        inv = np.linalg.inv(a)
        if np.max(np.abs(a @ inv - np.eye(n))) > 1e-12:
            raise ValueError("map is too ill-conditioned: inverse residual exceeds 1e-12")
        for arr in (a, b, inv):
            arr.flags.writeable = False
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "_inverse", inv)
        object.__setattr__(self, "_det", det)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def det(self) -> float:
        return self._det

    @property
    def inverse_matrix(self) -> Array:
        return self._inverse

    def apply(self, x) -> Array:
        """Map old-frame points to the new frame (vectorized over leading axes)."""
        return np.asarray(x, dtype=float) @ self.matrix.T + self.offset

    def invert(self, X) -> Array:
        """Map new-frame points back to the old frame."""
        return (np.asarray(X, dtype=float) - self.offset) @ self._inverse.T

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim))

    @classmethod
    def mirror(cls, dim: int) -> "AffineMap":
        """Full spatial reflection x -> -x."""
        return cls(-np.eye(dim))

    @classmethod
    def rotation_2d(cls, angle: float) -> "AffineMap":
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, -s], [s, c]]))


def random_affine(rng, dim: int, max_condition: float = 50.0) -> AffineMap:
    """Random invertible map with condition number at most ``max_condition``.

    Built from two random orthogonal factors and a geometric singular-value
    ladder, so the condition number is controlled exactly.
    """
    if max_condition < 1.0:
        raise ValueError("max_condition must be >= 1")
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cond = rng.uniform(1.0, max_condition)
    svals = np.geomspace(1.0, 1.0 / cond, dim)
    matrix = (q1 * svals) @ q2
    return AffineMap(matrix, rng.standard_normal(dim))


def transform_covector(w, amap: AffineMap) -> Array:
    """Old-frame components ``w @ A`` (``w_x = A^T w_X``) of new-frame covectors ``(..., N)``."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (amap.dim,):
        raise ValueError(f"covectors must have trailing dimension {amap.dim}, got {w.shape}")
    return w @ amap.matrix


def transform_vector(v, amap: AffineMap) -> Array:
    """Old-frame components ``v @ A^-T`` (``v_x = A^-1 v_X``) of new-frame vectors ``(..., N)``."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (amap.dim,):
        raise ValueError(f"vectors must have trailing dimension {amap.dim}, got {v.shape}")
    return v @ np.ascontiguousarray(amap.inverse_matrix.T)  # rows round as stacks do


def _pullback(amap: AffineMap, grad: Array, hess: Array, tmix: Array) -> tuple:
    """New-frame gradients, Hessians and mixed time rows, one point or a stack,
    chain-ruled into the old frame: covector rows and the congruence ``A^T H A``."""
    a = amap.matrix
    hess = np.einsum("ki,...kl,lj->...ij", a, hess, a)
    # congruence in floats can be asymmetric by an ulp; mirror the upper triangle
    return transform_covector(grad, amap), _mirror_upper(hess), transform_covector(tmix, amap)


def pullback_jet2(jet: Jet2, amap: AffineMap) -> Jet2:
    """Chain-rule a new-frame jet into the old frame.

    For affine maps this is exact: gradient and mixed time rows pick up
    ``A^T``, the Hessian the congruence ``A^T H A``; the value and its time
    derivative are frame scalars.
    """
    if jet.dim != amap.dim:
        raise ValueError(f"dimension mismatch: jet {jet.dim}, map {amap.dim}")
    grad, hess, tmix = _pullback(amap, jet.grad, jet.hessian, jet.time_mixed)
    return Jet2(Jet1(jet.psi, jet.dpsi_dt, grad), hess, tmix)


class AffineReparamField(AnalyticField):
    """Catalog field composed with an affine map: ``phi(x, t) = base(A x + b, t)``.

    Its exact jets are the pullbacks of the base field's jets, so it doubles
    as the analytically-composed oracle for the transformation checks, while
    plain evaluation (no chain rule anywhere) feeds the finite-difference
    route.
    """

    kind = "affine-reparam"

    def __init__(self, base: AnalyticField, amap: AffineMap):
        if base.dim != amap.dim:
            raise ValueError(f"dimension mismatch: field {base.dim}, map {amap.dim}")
        self.base = base
        self.amap = amap

    @property
    def dim(self) -> int:
        return self.base.dim

    def value(self, points, t):
        pts = self._check_points(points)
        return self.base.value(self.amap.apply(pts), t)

    def jet_arrays(self, points, t):
        pts = self._check_points(points)
        psi, dpsi_dt, grad, hess, tmix = self.base.jet_arrays(self.amap.apply(pts), t)
        return (psi, dpsi_dt) + _pullback(self.amap, grad, hess, tmix)


def make_fd_jet2_fn(h: float, dt: float, spec: StencilSpec = DEFAULT_STENCIL):
    """Build a jet source that samples a field on a small patch grid around
    each point and differentiates numerically (pure evaluation, no chain rule).

    The patches of all points lie end to end along axis 0 of one sampled
    field, so one :func:`fd_jets_at` call at the patch centres serves the
    stack; the jets there equal :func:`fd_jet2_at` on each point's own patch
    grid, bit for bit.  A centre takes the central stencils under either
    boundary policy.
    """
    if not (h > 0 and dt > 0):
        raise ValueError("h and dt must be positive")
    h = float(h)
    extent = max(MIN_EXTENT, 2 * spec.half_width + 1)
    center = extent // 2
    mid = spec.min_frames // 2

    def fd_jet_arrays(field: AnalyticField, points, t: float):
        pts = field._check_points(points)
        n = field.dim
        origins = pts.reshape((-1,) + (1,) * n + (n,)) - center * h
        grid = Grid((len(origins) * extent,) + (extent,) * (n - 1), (h,) * n, (0.0,) * n)
        # patch coordinates as Grid.points() computes them: origin + h * index
        offsets = h * np.moveaxis(np.indices((extent,) * n), 0, -1)
        patches = (origins + offsets).reshape(grid.shape + (n,))
        t0, step, frames = canonical_time_axis(t + dt * (np.arange(spec.min_frames) - mid))
        values = np.stack([field.value(patches, t0 + step * k) for k in range(frames)])
        centres = np.full((len(origins), n), center)
        centres[:, 0] += extent * np.arange(len(origins))
        jets = fd_jets_at(SampledField(grid, t0, step, values), np.full(len(origins), mid),
                          centres, spec)
        return tuple(jets[name].reshape(pts.shape[:-1] + jets[name].shape[1:])
                     for name in ("psi", "dpsi_dt", "grad", "hessian", "time_mixed"))

    return fd_jet_arrays


@dataclass(frozen=True)
class CovarianceReport:
    """Outcome of a two-path transformation check over a point set."""

    max_deviation: float
    checked: int
    skipped: int
    max_bound_ratio: float | None = None


def _frame_velocities(source, field: AnalyticField, points: Array, t: float):
    """``(moving, reciprocals, order-one components, solved, kappa_2(H),
    contractions, contracted)`` of one frame's jets: ``moving`` marks psi_t != 0,
    ``solved`` a non-singular Hessian and ``contracted`` a defined contraction."""
    psi, dpsi_dt, grad, hess, tmix = source(field, points, t)
    _require_finite(psi, dpsi_dt, grad, hess, tmix)
    ok = np.ones(len(points), dtype=bool)
    # pivoted, not Cramer as in the maps: Cramer's forward error would read as
    # a deviation of the laws (7x LU's at kappa(H) = 1e4; ROADMAP, "Earlier probes")
    comps, solved, _ = _solve_order_one(h := _mirror_upper(hess), tmix, ok, pivoted=True)
    reciprocals = _order_zero(grad, dpsi_dt, ok)[0]
    kappa = np.linalg.cond(h)
    return (dpsi_dt != 0.0, reciprocals, comps, solved, kappa) + _contract(reciprocals, comps, solved)


def _relative_deviations(a: Array, b: Array) -> Array:
    scale = np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1))
    return np.where(scale == 0.0, 0.0, np.abs(a - b).max(axis=-1) / scale)


def check_transformation_laws(
    field: AnalyticField, amap: AffineMap, points, t: float, jet2_fn=None
) -> tuple:
    """Reports ``(covector, vector, contraction)`` from one jet evaluation per
    frame; ``jet2_fn`` is the jet source, by default the field's exact jets.

    The reciprocals are carried back with ``A^T`` and the order-one
    components with ``A^{-1}`` (relative deviations); the contraction is
    compared as is (absolute deviation).  Points where psi_t = 0 skip the
    covector law, points with a singular Hessian the vector law, and the
    contraction where it is undefined.  Non-finite jets raise ``ValueError``.
    The contraction report's ``max_bound_ratio`` (None on the others) is the
    worst deviation over its rounding bound ``2^-53 (|w_x| |v_x| c_x + |w_X|
    |v_X| c_X)``, 0 where the deviation is 0, else inf where the bound is not
    finite: 2-norms of the reciprocals and the components, ``c`` the Hessian's
    2-norm condition number (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, ch. 7).
    """
    if field.dim != amap.dim:
        raise ValueError(f"dimension mismatch: field {field.dim}, map {amap.dim}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != field.dim:
        raise ValueError(f"points must have trailing dimension {field.dim}")
    pts = pts.reshape(-1, field.dim)
    source = jet2_fn or (lambda fld, pts, when: fld.jet_arrays(pts, when))
    composed = AffineReparamField(field, amap)
    worst, checked, ratio = [0.0] * 3, [0] * 3, 0.0
    for start in range(0, len(pts), BLOCK_POINTS):
        x = pts[start : start + BLOCK_POINTS]
        # only skipped points divide by 0; an overflowed bound is inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            moving_x, w_x, v_x, solved_x, kappa_x, c_x, contracted_x = _frame_velocities(
                source, composed, x, t)
            moving_X, w_X, v_X, solved_X, kappa_X, c_X, contracted_X = _frame_velocities(
                source, field, amap.apply(x), t)
            nw_x, nv_x, nw_X, nv_X = (np.linalg.norm(a, axis=-1) for a in (w_x, v_x, w_X, v_X))
            bound = 2.0**-53 * (nw_x * nv_x * kappa_x + nw_X * nv_X * kappa_X)
            laws = (
                (moving_x & moving_X, _relative_deviations(w_x, transform_covector(w_X, amap))),
                (solved_x & solved_X, _relative_deviations(v_x, transform_vector(v_X, amap))),
                (contracted_x & contracted_X, np.abs(c_x - c_X)),
            )
            # a deviation beside a bound that is not finite fails: no point goes unjudged
            mask, dev = laws[2]
            ratio = max(ratio, float(np.where(dev == 0.0, 0.0, np.where(
                np.isfinite(bound), dev / bound, np.inf)).max(initial=0.0, where=mask)))
        for k, (mask, dev) in enumerate(laws):
            checked[k] += int(np.count_nonzero(mask))
            worst[k] = max(worst[k], float(dev.max(initial=0.0, where=mask)))
    return tuple(CovarianceReport(worst[k], checked[k], len(pts) - checked[k],
                                  ratio if k == 2 else None) for k in range(3))


def check_zero_order_covariance(
    field: AnalyticField, amap: AffineMap, points, t: float, jet2_fn=None
) -> CovarianceReport:
    """Covector law of the order-zero reciprocals (see :func:`check_transformation_laws`)."""
    return check_transformation_laws(field, amap, points, t, jet2_fn)[0]


def check_first_order_covariance(
    field: AnalyticField, amap: AffineMap, points, t: float, jet2_fn=None
) -> CovarianceReport:
    """Contravariant law of the order-one velocities (see :func:`check_transformation_laws`)."""
    return check_transformation_laws(field, amap, points, t, jet2_fn)[1]


def check_contraction_invariance(
    field: AnalyticField, amap: AffineMap, points, t: float, jet2_fn=None
) -> CovarianceReport:
    """Frame independence of the contraction scalar (see :func:`check_transformation_laws`)."""
    return check_transformation_laws(field, amap, points, t, jet2_fn)[2]
