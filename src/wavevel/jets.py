"""Pointwise derivative jets of a scalar field and their grid-level container.

A first-order jet collects the field value, its time derivative and its
spatial gradient at one point; a second-order jet adds the spatial Hessian
and the mixed space-time derivatives.  These are the raw ingredients every
velocity formula consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .fields import Grid

Array = np.ndarray


def _mirror_upper(hess: Array) -> Array:
    """Hessians (``...xNxN``) made exactly symmetric from their upper triangle, -0 as +0."""
    out = hess + 0.0
    for i in range(1, hess.shape[-1]):
        out[..., i, :i] = out[..., :i, i]
    return out


@lru_cache(maxsize=None)
def _leading_to_last(ndim: int, k: int) -> tuple:
    """The axes of ``ndarray.transpose`` that move the first ``k`` of ``ndim``
    axes to the end, in order (what ``np.moveaxis`` builds on every call)."""
    return (*range(k, ndim), *range(k))


def _component_planes(shape, n: int, k: int = 1) -> Array:
    """An uninitialised array of shape ``(*shape, N)`` (``(*shape, N, N)`` for
    ``k = 2``) stored planes-first: each component plane ``[..., i]``
    (``[..., i, j]``) is C-contiguous."""
    shape = tuple(shape)
    return np.empty((n,) * k + shape).transpose(_leading_to_last(len(shape) + k, k))


def _jet_shapes(shape: tuple, n: int) -> dict:
    """The shape of each :class:`JetField` array, by name, on points of ``shape``
    in N dimensions."""
    return {"psi": shape, "dpsi_dt": shape, "grad": shape + (n,), "hessian": shape + (n, n),
            "time_mixed": shape + (n,), "valid": shape}


def _require_finite(*entries) -> None:
    """Reject jets with a non-finite entry, at one point or on a stack."""
    # math.isfinite on Python floats: np.isfinite costs microseconds a call
    if not all(math.isfinite(e) if type(e) is float else np.isfinite(e).all() for e in entries):
        raise ValueError("jet entries must be finite")


def _as_float_vector(x, name: str) -> Array:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class Jet1:
    """Value, time derivative and spatial gradient of a scalar field at a point."""

    psi: float
    dpsi_dt: float
    grad: Array

    def __post_init__(self):
        grad = _as_float_vector(self.grad, "grad")
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "psi", float(self.psi))
        object.__setattr__(self, "dpsi_dt", float(self.dpsi_dt))
        _require_finite(self.psi, self.dpsi_dt, grad)

    @property
    def dim(self) -> int:
        return self.grad.shape[0]


@dataclass(frozen=True)
class Jet2:
    """Second-order jet: first-order jet plus spatial Hessian and mixed time rows.

    The Hessian is stored exactly symmetric; the upper triangle given at
    construction is the source of truth and is mirrored into the lower one.
    """

    jet1: Jet1
    hessian: Array
    time_mixed: Array

    def __post_init__(self):
        n = self.jet1.dim
        hess = np.asarray(self.hessian, dtype=float)
        if hess.shape != (n, n):
            raise ValueError(f"hessian must have shape ({n}, {n}), got {hess.shape}")
        hess = _mirror_upper(hess)
        tm = _as_float_vector(self.time_mixed, "time_mixed")
        if tm.shape != (n,):
            raise ValueError(f"time_mixed must have shape ({n},), got {tm.shape}")
        _require_finite(hess, tm)
        object.__setattr__(self, "hessian", hess)
        object.__setattr__(self, "time_mixed", tm)

    @property
    def dim(self) -> int:
        return self.jet1.dim

    @property
    def psi(self) -> float:
        return self.jet1.psi

    @property
    def dpsi_dt(self) -> float:
        return self.jet1.dpsi_dt

    @property
    def grad(self) -> Array:
        return self.jet1.grad


@dataclass
class JetField:
    """Second-order jets evaluated at every point of a grid at one instant.

    Shapes are component-last: ``grad`` has shape ``(*grid.shape, N)``,
    ``hessian`` has ``(*grid.shape, N, N)``.  The grid kernels store the
    component planes contiguously, so ``grad[..., a]`` and
    ``hessian[..., i, j]`` are C-contiguous planes and the arrays themselves
    are non-contiguous views: do not assume C order.  Every consumer gives
    the same bits on any layout.  Entries may be NaN wherever ``valid`` is
    False (points where the requested stencil order could not be met, or
    where no value was computed at all).

    ``frame`` is the time index into the originating sampled field, or None
    when the jets came from analytic evaluation.
    """

    grid: Grid
    t: float
    frame: int | None
    psi: Array
    dpsi_dt: Array
    grad: Array
    hessian: Array
    time_mixed: Array
    valid: Array = field(repr=False)

    def __post_init__(self):
        for name, want in _jet_shapes(tuple(self.grid.shape), self.grid.dim).items():
            arr = getattr(self, name)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")

    @property
    def dim(self) -> int:
        return self.grid.dim

    def jet2_at(self, index) -> Jet2 | None:
        """Assemble the pointwise jet at a grid index; None where invalid."""
        idx = tuple(int(i) for i in index)
        if not bool(self.valid[idx]):
            return None
        jet1 = Jet1(self.psi[idx], self.dpsi_dt[idx], self.grad[idx])
        return Jet2(jet1, self.hessian[idx], self.time_mixed[idx])
