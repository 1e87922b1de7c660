"""Geometric transformation laws of the velocities under linear coordinate changes.

The stored matrix of an :class:`AffineMap` is the Jacobian of the new frame
with respect to the old one (``X = A x + b``).  Reciprocal order-zero
velocities transform with the transpose of ``A`` (covariantly), order-one
velocities with the inverse of ``A`` (contravariantly), and their pairing is
invariant.  Only affine maps are supported; for them the second-derivative
terms of a general change of variables vanish identically, which makes the
linear laws exact and testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import AnalyticField, Grid, analytic_jet2, sample
from .findiff import DEFAULT_STENCIL, StencilSpec, fd_jet2_at
from .jets import Jet1, Jet2
from .velocities import (
    StationaryDegenerateError,
    contraction_scalar,
    first_order_velocity_nd,
    zero_order_velocity,
)

Array = np.ndarray

#: Maps with |det| at or below this are rejected as non-invertible.
MIN_DET = 1e-8


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine coordinate change ``X = A x + b``.

    ``matrix`` is d(X)/d(x); the inverse is computed on construction and
    verified against the identity.
    """

    matrix: Array
    offset: Array = None

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        b = np.zeros(n) if self.offset is None else np.asarray(self.offset, dtype=float)
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


def random_affine(rng, dim: int, max_condition: float = 50.0, offset_scale: float = 1.0) -> AffineMap:
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
    offset = offset_scale * rng.standard_normal(dim)
    return AffineMap(matrix, offset)


def transform_covector(w, amap: AffineMap) -> Array:
    """New-frame covector components to old-frame ones: ``w_x = A^T w_X``."""
    w = np.asarray(w, dtype=float)
    if w.shape != (amap.dim,):
        raise ValueError(f"covector must have shape ({amap.dim},), got {w.shape}")
    return amap.matrix.T @ w


def transform_vector(v, amap: AffineMap) -> Array:
    """New-frame vector components to old-frame ones: ``v_x = A^{-1} v_X``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (amap.dim,):
        raise ValueError(f"vector must have shape ({amap.dim},), got {v.shape}")
    return amap.inverse_matrix @ v


def pullback_jet2(jet: Jet2, amap: AffineMap) -> Jet2:
    """Chain-rule a new-frame jet into the old frame.

    For affine maps this is exact: gradient and mixed time rows pick up
    ``A^T``, the Hessian the congruence ``A^T H A``; the value and its time
    derivative are frame scalars.
    """
    if jet.dim != amap.dim:
        raise ValueError(f"dimension mismatch: jet {jet.dim}, map {amap.dim}")
    a = amap.matrix
    grad = a.T @ jet.grad
    hess = a.T @ jet.hessian @ a
    tmix = a.T @ jet.time_mixed
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
        a = self.amap.matrix
        grad = grad @ a
        tmix = tmix @ a
        hess = np.einsum("ki,...kl,lj->...ij", a, hess, a)
        # congruence in floats can be asymmetric by an ulp; mirror the upper triangle
        hess = np.triu(hess) + np.swapaxes(np.triu(hess, 1), -1, -2)
        return psi, dpsi_dt, grad, hess, tmix


def make_fd_jet2_fn(h: float, dt: float, spec: StencilSpec = DEFAULT_STENCIL):
    """Build a jet evaluator that samples a field on a small local grid and
    differentiates numerically (pure evaluation, no chain rule).

    The returned callable has the signature ``fn(field, point, t) -> Jet2``
    and is accepted by the covariance checks in place of exact jets.
    """
    if not (h > 0 and dt > 0):
        raise ValueError("h and dt must be positive")

    def fd_jet2(field: AnalyticField, point, t: float) -> Jet2:
        n = field.dim
        extent = max(5, 2 * spec.half_width + 1)
        center = extent // 2
        origin = np.asarray(point, dtype=float) - center * h
        grid = Grid((extent,) * n, (h,) * n, tuple(origin))
        frames = spec.min_frames
        mid = frames // 2
        times = t + dt * (np.arange(frames) - mid)
        sampled = sample(field, grid, times)
        jet = fd_jet2_at(sampled, mid, (center,) * n, spec)
        assert jet is not None  # central point always has full stencil room
        return jet

    return fd_jet2


@dataclass(frozen=True)
class CovarianceReport:
    """Outcome of a two-path transformation check over a point set."""

    max_deviation: float
    checked: int
    skipped: int


def _relative_deviation(a: Array, b: Array) -> float:
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - b)) / scale)


def _two_path(field, amap, points, t, jet2_fn, compare):
    """Shared driver: direct old-frame computation vs transformed new-frame one.

    ``compare(jet_x, jet_X)`` returns a deviation or None to skip the point.
    """
    if field.dim != amap.dim:
        raise ValueError(f"dimension mismatch: field {field.dim}, map {amap.dim}")
    jet2_fn = jet2_fn or analytic_jet2
    composed = AffineReparamField(field, amap)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != field.dim:
        raise ValueError(f"points must have trailing dimension {field.dim}")
    max_dev = 0.0
    checked = 0
    skipped = 0
    for x in pts:
        jet_x = jet2_fn(composed, x, t)
        jet_X = jet2_fn(field, amap.apply(x), t)
        dev = compare(jet_x, jet_X)
        if dev is None:
            skipped += 1
            continue
        checked += 1
        max_dev = max(max_dev, dev)
    return CovarianceReport(max_dev, checked, skipped)


def check_zero_order_covariance(
    field: AnalyticField, amap: AffineMap, points, t: float, jet2_fn=None
) -> CovarianceReport:
    """Covector law for reciprocal order-zero velocities.

    Path one computes the reciprocals from old-frame jets of the composed
    field; path two transforms the new-frame reciprocals with ``A^T``.
    Points where psi_t = 0 are skipped and counted.
    """

    def compare(jet_x: Jet2, jet_X: Jet2):
        if jet_x.dpsi_dt == 0.0 or jet_X.dpsi_dt == 0.0:
            return None
        try:
            w_direct = zero_order_velocity(jet_x.jet1).reciprocal
            w_new = zero_order_velocity(jet_X.jet1).reciprocal
        except StationaryDegenerateError:
            return None
        return _relative_deviation(w_direct, transform_covector(w_new, amap))

    return _two_path(field, amap, points, t, jet2_fn, compare)


def check_first_order_covariance(
    field: AnalyticField, amap: AffineMap, points, t: float, jet2_fn=None
) -> CovarianceReport:
    """Contravariant law for order-one velocities; singular points are skipped."""

    def compare(jet_x: Jet2, jet_X: Jet2):
        v_direct = first_order_velocity_nd(jet_x)
        v_new = first_order_velocity_nd(jet_X)
        if not (v_direct.valid and v_new.valid):
            return None
        return _relative_deviation(
            v_direct.components, transform_vector(v_new.components, amap)
        )

    return _two_path(field, amap, points, t, jet2_fn, compare)


def check_contraction_invariance(
    field: AnalyticField, amap: AffineMap, points, t: float, jet2_fn=None
) -> CovarianceReport:
    """Frame independence of the contraction scalar (absolute deviation)."""

    def compare(jet_x: Jet2, jet_X: Jet2):
        v1_x = first_order_velocity_nd(jet_x)
        v1_X = first_order_velocity_nd(jet_X)
        if not (v1_x.valid and v1_X.valid):
            return None
        if jet_x.dpsi_dt == 0.0 or jet_X.dpsi_dt == 0.0:
            return None
        try:
            c_x = contraction_scalar(zero_order_velocity(jet_x.jet1), v1_x)
            c_X = contraction_scalar(zero_order_velocity(jet_X.jet1), v1_X)
        except StationaryDegenerateError:
            return None
        return abs(c_x - c_X)

    return _two_path(field, amap, points, t, jet2_fn, compare)
