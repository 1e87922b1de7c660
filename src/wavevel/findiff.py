"""Finite-difference jets on uniform grids with controlled accuracy order.

Interior points always use the classical central stencils; near boundaries
the behaviour is a policy choice: ``one-sided`` switches to offset stencils
of the same accuracy order, ``shrink-to-valid`` marks the point invalid
instead.  Mixed derivatives are compositions of one-dimensional stencils,
which keeps them symmetric by construction and preserves the order.

Two kernels compute jets, one pointwise (:func:`fd_jets_at`) and one on the
grid (:func:`fd_jet_stacks`); every other entry point is a view of one of
them.  They share one tap table and one composition order, so they produce
bit-identical values: every entry is a stencil sum from 0.0 in tap order, a
mixed Hessian entry runs the lower axis's pass over the higher axis's, and a
mixed time row runs the spatial pass over the time derivative.
:func:`_apply_taps_pointwise` is the one pointwise sum, nested once for the
mixed entries and run elementwise on a stack of points.

The grid path works on contiguous planes: :func:`diff_along_axis` shifts the
flattened array by whole strides and accumulates each tap from +0.0.  Every
stencil sum, spatial or in time, runs in strips of :data:`STRIP_POINTS`
points (256 KB): all taps of a strip are added while its output, products
and shifted tap windows are still in the L2 cache, so each plane goes
through memory about once per sum instead of about three times per tap, and
the scratch for the products is one strip, not one plane.  Each point still
gets the same operations in the same order, so the bits do not depend on
the strip size.  An array of at most one strip (a tracking window) takes
one pass.  The grid path stores the gradient, the mixed time rows and the
Hessian planes-first, as ``(N, *shape)`` and ``(N, N, *shape)`` buffers
behind component-last views, and writes every derivative straight into its
contiguous plane.  It differentiates one axis at a time and takes the mixed
derivatives of that axis from its gradient plane; invalid points are set to
NaN by slicing the border bands of each axis.

:func:`fd_jet_stacks` is the one grid pass: it computes a run of frames
stacked along a leading axis, every spatial derivative runs once over the
``(K, *shape)`` stack, and the frames that share time taps get their time
derivative from one stencil sum.  It computes only the jet parts it is
asked for and what they depend on: without ``time_mixed`` it runs no mixed
time rows.  Most of a small field's cost is the fixed cost of a pass (an
11^2 tracking window on a 2-vCPU VM, median of 50 calls, best of 3 runs:
0.15 ms for one frame and 0.21 ms for 20 frames stacked with every part,
0.12 and 0.18 ms without ``time_mixed``), so a tracker pays it once per run
of frames, not once per frame.  :func:`fd_jet_field` is the
:class:`JetField` view of a one-frame pass of every part.  A reader of a few
hundred scattered points takes :func:`fd_jets_at` instead: a level track's
306 block points in 2-D and 567 in 3-D take 0.22 and 0.39 ms (same VM, best
of 5 runs of 200 calls), where windows around them held 2,057 to 10,166
points.  :func:`fd_jet2_at` is its one-point case, as a :class:`Jet2`.

Every frame of a pass gets psi and its requested parts wherever the spatial
stencils apply.  The end frames of ``shrink-to-valid`` have no time window:
their time parts are NaN and no point of a pass with a time part is valid,
as both velocities need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .fields import SampledField
from .jets import Jet1, Jet2, JetField, _component_planes, _integers, _jet_shapes

Array = np.ndarray

#: Flat points per strip of a stencil sum.  A strip's output, products and
#: tap windows (256 KB each) stay in a 2 MB L2 cache while every tap is
#: added, where whole planes stream through L3 once per tap.  Order-4 d/dx
#: passes, median ms of 9 interleaved runs on a 2-vCPU Xeon VM for strips
#: of 8192 / 16384 / 32768 / 65536 / 131072 points / whole planes: 512^2
#: axis 0 1.42 / 1.19 / 1.18 / 1.18 / 1.81 / 2.33, 64^3 axis 0 1.30 / 1.27 /
#: 1.10 / 1.22 / 1.82 / 2.32.
STRIP_POINTS = 32768

#: The jet parts a pass computes, besides psi.
_PARTS = ("dpsi_dt", "grad", "hessian", "time_mixed")

BOUNDARY_ONE_SIDED = "one-sided"
BOUNDARY_SHRINK = "shrink-to-valid"


class InsufficientFramesError(ValueError):
    """Raised when a field has too few time frames for the requested order."""


@dataclass(frozen=True)
class StencilSpec:
    """Accuracy order (2 or 4) and boundary policy for derivative stencils."""

    order: int = 4
    boundary: str = BOUNDARY_SHRINK

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")
        if self.boundary not in (BOUNDARY_ONE_SIDED, BOUNDARY_SHRINK):
            raise ValueError(f"unknown boundary policy {self.boundary!r}")

    @property
    def half_width(self) -> int:
        return self.order // 2

    @property
    def min_frames(self) -> int:
        return self.order + 1


DEFAULT_STENCIL = StencilSpec()

# Classical central-difference coefficients, offsets ascending.
_CENTRAL = {
    (1, 2): ((-1, -0.5), (1, 0.5)),
    (1, 4): ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0)),
    (2, 2): ((-1, 1.0), (0, -2.0), (1, 1.0)),
    (2, 4): ((-2, -1.0 / 12.0), (-1, 4.0 / 3.0), (0, -5.0 / 2.0), (1, 4.0 / 3.0), (2, -1.0 / 12.0)),
}


def fornberg_weights(nodes, x0: float, deriv: int) -> Array:
    """Finite-difference weights of the ``deriv``-th derivative at ``x0``.

    Classic recursive computation on arbitrary distinct nodes; exact on
    polynomials up to degree ``len(nodes) - 1``.
    """
    alpha = np.asarray(nodes, dtype=float)
    n = alpha.size - 1
    m = deriv
    c = np.zeros((n + 1, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = alpha[0] - x0
    for i in range(1, n + 1):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = alpha[i] - x0
        for j in range(i):
            c3 = alpha[i] - alpha[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=None)
def _taps_cached(deriv: int, order: int, d_low: int, d_high: int, h: float, boundary: str):
    """The taps of :func:`stencil_taps`; ``ValueError`` when the step ``h`` is so
    small or so large that ``h**deriv`` under- or overflows or a tap is not finite."""
    hw = order // 2
    if d_low >= hw and d_high >= hw:
        weights = _CENTRAL[(deriv, order)]
    elif boundary == BOUNDARY_SHRINK:
        return None
    else:
        weights = _one_sided_weights(deriv, order, d_low, d_high)
    try:  # one rule: integer-offset weights over h**deriv
        scale = h**deriv
        taps = tuple((off, coeff / scale) for off, coeff in weights)
    except (ZeroDivisionError, OverflowError):  # h**deriv underflows to 0 or overflows
        taps = ()
    if not taps or not all(np.isfinite(coeff) for _, coeff in taps):
        raise ValueError(f"step {h!r} is out of range for a derivative-{deriv} stencil: "
                         f"h**{deriv} or a tap under- or overflows")
    return taps


def _one_sided_weights(deriv: int, order: int, d_low: int, d_high: int):
    nw = deriv + order
    if d_low + d_high + 1 < nw:
        raise ValueError(f"axis too short for one-sided order-{order} derivative-{deriv} "
                         f"stencil ({nw} points needed)")
    # window of nw contiguous offsets, as centered as the boundary allows
    a = max(-d_low, min(-(nw - 1) // 2, d_high - (nw - 1)))
    offsets = range(a, a + nw)
    return tuple(zip(offsets, fornberg_weights(offsets, 0.0, deriv).tolist()))


def stencil_taps(deriv: int, order: int, pos: int, n: int, h: float, boundary: str):
    """Taps ``((offset, coeff), ...)`` for a derivative at index ``pos`` of an
    ``n``-point axis with spacing ``h``; None when the policy declines.
    """
    if not 0 <= pos < n:
        raise IndexError(f"position {pos} out of range [0, {n})")
    cap = deriv + order  # distances beyond one window look alike
    return _taps_cached(deriv, order, min(pos, cap), min(n - 1 - pos, cap), float(h), boundary)


@lru_cache(maxsize=None)
def _axis_taps(deriv: int, order: int, n: int, h: float, boundary: str):
    """The central taps of an ``n``-point axis and the ``(pos, taps)`` pairs of
    its edge positions (``taps`` None where the policy declines), as
    :func:`stencil_taps` gives them: one lookup per axis and pass."""
    hw = order // 2
    central = stencil_taps(deriv, order, hw, n, h, boundary)
    edges = tuple((pos, stencil_taps(deriv, order, pos, n, h, boundary))
                  for pos in (*range(hw), *range(n - hw, n)))
    return central, edges


def _apply_taps_pointwise(read, at, stride: int, taps, inner=None):
    """The one pointwise stencil sum: ``sum(coeff * term)`` over ``taps`` at the
    flat sample indices ``at`` (an int array), a tap ``off`` reading
    ``at + off * stride``, from 0.0 in tap order.  ``term`` is ``read``
    (``flat.take``) of the shifted indices or, with ``inner = (stride, taps)``,
    that inner sum there, as the grid nests a mixed entry.  Every tap's terms
    are read at once, as one ``(taps, *at.shape)`` stack."""
    at = np.add.outer([off * stride for off, _ in taps], at)
    terms = read(at) if inner is None else _apply_taps_pointwise(read, at, *inner)
    acc = 0.0
    for (_, coeff), term in zip(taps, terms):
        acc = acc + coeff * term
    return acc


def _jet_parts(names, n: int) -> set:
    """The jet parts ``names`` as a set; ValueError for a string or an unknown part."""
    if isinstance(names, str):
        raise ValueError(f"jet parts must be a collection of names, got the string {names!r}")
    keep = set(names)
    unknown = keep.difference(_jet_shapes((), n))
    if unknown:
        raise ValueError(f"unknown jet parts {sorted(unknown)}")
    return keep


def _flat_strides(values: Array) -> list:
    """The flat distances of neighbours along each axis of the C-ordered ``values``."""
    return [stride // values.itemsize for stride in values.strides]


def diff_along_axis(arr: Array, axis: int, h: float, deriv: int, spec: StencilSpec):
    """Differentiate a full array along one axis.

    Returns ``(out, valid)`` where ``valid`` is a per-index boolean along the
    axis; under ``shrink-to-valid`` the edge bands are NaN and flagged False.
    ``out`` is C-contiguous.  Taps accumulate from +0.0 in strips of
    :data:`STRIP_POINTS` points through one strip of scratch; the central
    stencil runs over the flattened array, so every axis is differenced by
    contiguous shifts of ``offset * stride``.
    """
    arr = np.ascontiguousarray(arr, dtype=float)
    out = np.empty_like(arr)
    return out, _diff_into(out, arr, axis, h, deriv, spec)


def _stencil_sum(out: Array, terms, scratch: Array) -> None:
    """``out = sum(coeff * source for coeff, source in terms)``, in place.

    Every point's sum starts from +0.0 (so a sum of -0 products is +0) and
    adds the products in tap order.  A sum larger than ``scratch`` runs in
    strips of whole rows along axis 0, each of at most ``scratch.size``
    points where a row fits, so every tap of a strip finds its ``out`` still
    in cache; ``scratch`` holds one strip's products and must hold at least
    one row.
    """
    step = max(1, scratch.size // out[0].size)
    if len(out) > step:
        for start in range(0, len(out), step):
            strip = slice(start, start + step)
            _stencil_sum(out[strip], [(coeff, source[strip]) for coeff, source in terms], scratch)
        return
    term = scratch[: out.size].reshape(out.shape)
    out.fill(0.0)
    for coeff, source in terms:
        out += np.multiply(coeff, source, out=term)


def _diff_into(out: Array, arr: Array, axis: int, h: float, deriv: int, spec: StencilSpec):
    """:func:`diff_along_axis` of the C-contiguous ``arr`` written into the
    C-contiguous ``out`` of the same shape; returns the per-index validity."""
    n = arr.shape[axis]
    hw = spec.half_width
    if n < 2 * hw + 1:
        raise ValueError(f"axis needs at least {2 * hw + 1} points for order {spec.order}")
    stride = arr.strides[axis] // arr.itemsize  # flat distance of neighbours along the axis
    rows = (-1, n, stride)  # the edge band at index pos is rows[:, pos]
    flat = arr.reshape(-1)
    lo, hi = hw * stride, flat.size - hw * stride
    scratch = np.empty(min(hi - lo, max(STRIP_POINTS, stride)))  # a strip, or one edge row
    valid = np.ones(n, dtype=bool)
    # the axis's taps from one cached lookup, not one stencil_taps call per edge position
    central, edges = _axis_taps(deriv, spec.order, n, h, spec.boundary)

    # the flat range also covers the edge bands of the axis, which are rewritten below
    _stencil_sum(out.reshape(-1)[lo:hi],
                 [(coeff, flat[lo + off * stride : hi + off * stride]) for off, coeff in central],
                 scratch)
    edge, source = out.reshape(rows), arr.reshape(rows)
    for pos, taps in edges:
        if taps is None:
            valid[pos] = False
            edge[:, pos] = np.nan
        else:
            _stencil_sum(edge[:, pos], [(coeff, source[:, pos + off]) for off, coeff in taps],
                         scratch)
    return valid


def _time_taps(field: SampledField, spec: StencilSpec) -> list:
    """The time taps of every frame of ``field`` (None where the policy declines),
    from one :func:`_axis_taps` lookup."""
    m = field.frames
    if m < spec.min_frames:
        raise InsufficientFramesError(
            f"order-{spec.order} time derivatives need at least {spec.min_frames} frames, got {m}"
        )
    central, edges = _axis_taps(1, spec.order, m, field.dt, spec.boundary)
    taps = [central] * m
    for pos, edge in edges:
        taps[pos] = edge
    return taps


def _point_taps(grid, index, spec: StencilSpec):
    """The ``(d/dx_a, d2/dx_a2)`` taps of every axis at the grid ``index``, or
    None where the policy declines."""
    taps = [tuple(stencil_taps(deriv, spec.order, i, size, h, spec.boundary) for deriv in (1, 2))
            for i, size, h in zip(index, grid.shape, grid.spacing)]
    return None if any(None in pair for pair in taps) else taps


def _point_sums(read, at, strides, taps, ttaps, names) -> dict:
    """The jet parts ``names`` at the flat indices ``at`` of the samples, as nested
    lists of :func:`_apply_taps_pointwise` sums composed as the grid's passes
    are: the lower axis outside on mixed Hessian entries, space outside time
    on the mixed time rows.  ``strides`` are the flat strides of time and the
    axes, ``taps`` the :func:`_point_taps` and ``ttaps`` the time taps."""
    (st, *s), sums = strides, {}
    axes = range(len(s))
    if "dpsi_dt" in names:
        sums["dpsi_dt"] = _apply_taps_pointwise(read, at, st, ttaps)
    if "grad" in names:
        sums["grad"] = [_apply_taps_pointwise(read, at, s[a], taps[a][0]) for a in axes]
    if "time_mixed" in names:
        sums["time_mixed"] = [_apply_taps_pointwise(read, at, s[a], taps[a][0], (st, ttaps))
                              for a in axes]
    if "hessian" in names:
        hess = sums["hessian"] = [[_apply_taps_pointwise(read, at, s[a], taps[a][1])] * len(s)
                                  for a in axes]
        for a in axes:
            for b in range(a + 1, len(s)):
                hess[a][b] = hess[b][a] = _apply_taps_pointwise(read, at, s[a], taps[a][0],
                                                                (s[b], taps[b][0]))
    return sums


def fd_jet2_at(
    field: SampledField,
    frame: int,
    index,
    spec: StencilSpec = DEFAULT_STENCIL,
) -> Jet2 | None:
    """Finite-difference second-order jet at one grid point: :func:`fd_jets_at`
    at one point, as a :class:`Jet2`.

    Returns None where that point is not valid: where the ``shrink-to-valid``
    policy cannot meet the requested order, spatially or in time (the end
    frames of ``shrink-to-valid`` have no time window, so no jet at all), and
    where a stencil sum overflows.
    """
    index = tuple(index)
    if len(index) != field.grid.dim:
        raise ValueError(f"index must have {field.grid.dim} entries, got {len(index)}")
    jets = {name: arr[0] for name, arr in fd_jets_at(field, [frame], [index], spec).items()}
    if not jets["valid"]:
        return None
    return Jet2(Jet1(jets["psi"], jets["dpsi_dt"], jets["grad"]), jets["hessian"],
                jets["time_mixed"])


def fd_jets_at(
    field: SampledField,
    frames,
    indices,
    spec: StencilSpec = DEFAULT_STENCIL,
    names=_PARTS,
) -> dict:
    """The jet parts ``names`` at a stack of R grid points, with ``psi`` and
    ``valid``: point ``r`` is grid index ``indices[r]`` (``(R, N)`` integers) of
    frame ``frames[r]`` (``(R,)`` integers), and by name the ``(R, ...)`` stack
    holds at ``r`` the entry :func:`fd_jet_stacks` gives that point, bit for
    bit, in any order and with repeats.  The one pointwise kernel:
    :func:`fd_jet2_at` is its one-point case.

    Every entry is :func:`_apply_taps_pointwise`'s stencil sum, composed as
    the grid's passes are and run elementwise over the points that share
    their taps: a group's points share their frame's time taps and each
    axis's taps (all interior positions share the central ones), in strips of
    ``STRIP_POINTS // (order + 1)**2`` points.  Only the requested parts are
    computed.  Where the spatial stencils decline, every part reads NaN, and
    on a frame without a time window the time parts do; ``valid`` is False
    there and where a requested part is not finite (an overflow, which raises
    no warning).  Frames or indices without an integer dtype raise
    ``ValueError``: they are not rounded.
    """
    grid = field.grid
    n = grid.dim
    keep = _jet_parts(names, n)
    frames = _integers(frames, "frames").astype(np.intp, copy=False)
    indices = _integers(indices, "indices").astype(np.intp, copy=False)
    if frames.ndim != 1 or indices.shape != (len(frames), n):
        raise ValueError(f"frames must have shape (R,) and indices (R, {n}), "
                         f"got {frames.shape} and {indices.shape}")
    points = np.column_stack((frames, indices))  # the axes of field.values, time first
    sizes = (field.frames, *grid.shape)
    if np.any((points < 0) | (points >= sizes)):
        raise IndexError(f"frame or index out of range for {sizes[0]} frames of shape {grid.shape}")
    ttaps = _time_taps(field, spec)
    read, strides = field.values.reshape(-1).take, _flat_strides(field.values)
    at = points @ strides
    out = {name: np.full(shape, np.nan) for name, shape in _jet_shapes((len(at),), n).items()
           if name in keep.intersection(_PARTS)}
    valid = np.ones(len(at), dtype=bool)

    # within half a stencil of an axis end a position has taps of its own;
    # farther in, all positions share the central taps
    hw = spec.half_width
    edge = (points < hw) | (points >= np.subtract(sizes, hw))
    codes = np.ravel_multi_index(tuple(np.where(edge, points, sizes).T), [k + 1 for k in sizes])
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    # (a point, the points that share its taps), in strips: a mixed entry's
    # (taps, taps, points) terms span at most STRIP_POINTS values
    step, groups = max(1, STRIP_POINTS // (spec.order + 1) ** 2), []
    for g, rep in enumerate(first.tolist()):
        sel = np.flatnonzero(inverse == g)
        groups += [(rep, sel[k : k + step]) for k in range(0, len(sel), step)]
    # the samples are finite, so a non-finite entry can only come from an
    # overflow or an invalid operation; entries are scanned only if one happened
    faults = []
    with np.errstate(over="call", invalid="call", call=lambda err, flag: faults.append(err)):
        for rep, sel in groups:
            frame, *idx = points[rep].tolist()
            taps, parts = _point_taps(grid, idx, spec), keep
            if ttaps[frame] is None:  # no time window: the time parts stay NaN
                parts = keep.difference(("dpsi_dt", "time_mixed"))
            valid[sel] = taps is not None and parts == keep
            if taps is not None:
                for name, sums in _point_sums(read, at[sel], strides, taps, ttaps[frame],
                                              parts).items():
                    out[name][sel] = np.moveaxis(np.array(sums), -1, 0)
    if faults:
        for arr in out.values():
            valid &= np.isfinite(arr).reshape(len(at), -1).all(axis=1)
    return {"psi": read(at), **out, "valid": valid}


def fd_jet_field(field: SampledField, frame: int, spec: StencilSpec = DEFAULT_STENCIL) -> JetField:
    """Finite-difference jets at every grid point of one frame: the
    :class:`JetField` view of a one-frame :func:`fd_jet_stacks` pass of every
    jet part, so each valid point holds :func:`fd_jets_at`'s bits there.

    psi is a read-only view of the frame's samples; the gradient and the
    Hessian are defined wherever the spatial stencils apply.  A frame without
    a time window gets NaN ``dpsi_dt`` and ``time_mixed`` and is valid
    nowhere: ``valid`` marks the points where the whole jet is defined.
    """
    stacks = fd_jet_stacks(field, range(frame, frame + 1), spec)
    return JetField(field.grid, field.time(frame), frame,
                    **{name: stack[0] for name, stack in stacks.items()})


def fd_jet_stacks(
    field: SampledField,
    frames: range,
    spec: StencilSpec = DEFAULT_STENCIL,
    names=_PARTS,
) -> dict:
    """The jet parts ``names`` of every frame of ``frames`` (a range of step 1)
    in one pass, with ``psi`` (a read-only view of the samples) and ``valid``:
    by name, the ``(K, *shape, ...)`` stack whose frame ``k`` holds that array
    of :func:`fd_jet_field` of frame ``frames[k]``, bit for bit.

    The pass computes the requested parts and what they depend on, nothing
    else: the mixed Hessian entries run over the gradient planes, so the
    gradient comes with the Hessian, and the mixed time rows run over the
    time derivative; without ``time_mixed`` the N mixed time passes do not
    run.  ``valid`` marks the points where the spatial stencils apply and
    every requested part is finite: border bands are NaN in every part, a
    frame without a time window has NaN time parts, and an overflow in a
    pass leaves a non-finite entry.  A field with too few frames for the
    time stencil raises :class:`InsufficientFramesError` whatever the names.

    The K frames are differentiated as one ``(K, *shape)`` stack along its
    axes 1..N, and the frames that share time taps (every interior frame)
    get their time derivative from one stencil sum, so a run of K small
    frames costs about one call's fixed cost instead of K.  The stacks are
    component-last views of planes-first buffers: ``(N, K, *shape)`` for the
    gradient and the mixed time rows, ``(N, N, K, *shape)`` for the Hessian.
    """
    grid = field.grid
    n = grid.dim
    keep = _jet_parts(names, n)
    if not isinstance(frames, range) or frames.step != 1:
        raise ValueError(f"frames must be a range of step 1, got {frames!r}")
    stack = (len(frames),) + grid.shape
    if not frames:
        return {name: np.empty(shape, dtype=bool if name == "valid" else float)
                for name, shape in _jet_shapes(stack, n).items()
                if name in keep or name in ("psi", "valid")}
    if frames.start < 0 or frames.stop > field.frames:
        bad = frames.start if frames.start < 0 else max(frames.start, field.frames)
        raise IndexError(f"frame {bad} out of range [0, {field.frames})")
    ttaps = _time_taps(field, spec)[frames.start : frames.stop]
    # per axis, the edge indices where the spatial stencils decline (the first
    # and second derivatives decline at the same ones: both need hw cells a side)
    bands = [[pos for pos, taps in _axis_taps(1, spec.order, size, h, spec.boundary)[1]
              if taps is None] for size, h in zip(grid.shape, grid.spacing)]

    cur = field.values[frames.start : frames.stop]
    psi = cur.view()  # the frames themselves, read-only: no jet array is written through it
    psi.flags.writeable = False
    timed = [taps is not None for taps in ttaps]
    time_parts = keep & {"dpsi_dt", "time_mixed"}
    parts = {}

    # the input is finite, so a non-finite entry can only come from an overflow
    # or an invalid operation in a pass; entries are scanned only if one happened
    faults = []
    with np.errstate(over="call", invalid="call", call=lambda err, flag: faults.append(err)):
        if keep & {"grad", "hessian"}:
            grad = _component_planes(stack, n)
            hess = _component_planes(stack, n, 2) if "hessian" in keep else None
            for b in range(n):
                _diff_into(grad[..., b], cur, b + 1, grid.spacing[b], 1, spec)
                if hess is not None:
                    _diff_into(hess[..., b, b], cur, b + 1, grid.spacing[b], 2, spec)
                    # the mixed derivatives of axis b from its contiguous d/dx_b plane
                    for a in range(b):
                        _diff_into(hess[..., a, b], grad[..., b], a + 1, grid.spacing[a], 1, spec)
                        hess[..., b, a] = hess[..., a, b]
            parts.update(grad=grad, hessian=hess)

        if time_parts:
            dpsi_dt = np.empty(stack)  # frames without a time window are masked below
            start = 0
            for taps, group in groupby(ttaps):
                stop = start + len(list(group))
                if taps is not None:
                    lo, hi = frames.start + start, frames.start + stop
                    out = dpsi_dt[start:stop].reshape(-1)
                    _stencil_sum(out,
                                 [(coeff, field.values[lo + off : hi + off].reshape(-1))
                                  for off, coeff in taps],
                                 np.empty(min(out.size, STRIP_POINTS)))
                start = stop
            tmix = None
            if "time_mixed" in keep:
                tmix = _component_planes(stack, n)
                # a time window needs half a stencil of frames on each side, so
                # the frames that have one are contiguous
                if any(timed):
                    span = slice(timed.index(True), len(timed) - timed[::-1].index(True))
                    for a in range(n):
                        _diff_into(tmix[span, ..., a], dpsi_dt[span], a + 1, grid.spacing[a], 1,
                                   spec)
            parts.update(dpsi_dt=dpsi_dt, time_mixed=tmix)
    parts = {name: arr for name, arr in parts.items() if name in keep}

    # invalid points: whole frames without a time window, whose time parts
    # are NaN, and the border bands of each axis, whose entries are NaN
    valid = np.ones(stack, dtype=bool)
    if time_parts and not all(timed):
        untimed = np.logical_not(timed)
        valid[untimed] = False
        for name in time_parts:
            parts[name][untimed] = np.nan
    for a, band in enumerate(bands):
        if band:
            index = (slice(None),) * (a + 1) + (band,)
            valid[index] = False
            for arr in parts.values():
                arr[index] = np.nan
    if faults:
        for arr in parts.values():
            valid &= np.isfinite(arr).all(axis=tuple(range(len(stack), arr.ndim)))
    return {"psi": psi, **parts, "valid": valid}
