"""Empirical velocity oracles: follow attribute points across time frames.

Gradient attributes (peaks, troughs, saddles, or any fixed-gradient point)
are located per frame by Newton iteration on the frame's jets, then
differenced in time; the measured motion is compared against the order-one
velocity evaluated at the tracked points.  From frame 2 on, Newton starts at
the linear extrapolation of the last two roots, O(dt^2) from the new root,
so a frame mostly takes 2-3 iterations; the prediction reads no velocity.

Value attributes are tracked per coordinate axis: the crossing of the level
along a ray through the seed, holding the other coordinates fixed.  Its
speed is compared against N times the axis's order-zero component (the 1/N
coefficient splits the attribute motion across axes; a single-axis
crossing undoes the split), NaN where that is not finite.

Both trackers read a track's frames through one frame source, with the
frame as an argument: a :class:`_WindowRun` for a :class:`SampledField`
(finite-difference jets, quadratically interpolated) and :class:`_ExactJets`
for an analytic catalog field (exact evaluation, mainly for calibration at
machine accuracy).  A source hands out jets and evaluates no formula:
``jets(frame, x, names, anchor=None, fid=None)`` reads jet parts at ``x``,
``timed[frame]`` says whether the frame has time derivatives,
``crossings(point, axis, level, near)`` finds a ray's level crossing on
every frame and ``jets_stack(frames, points, names)`` reads a level track's
jets at all its crossings at once, stacked in their order.  Each formula runs
in one place, with the kernels the maps run: the Newton step in
:func:`_newton_iterations`, the order-one velocity
(:func:`_solve_order_one`) in the gradient frame loop, once a timed frame,
and the order-zero velocity (:func:`_order_zero`) once a level track, on the
stack of its timed crossings.  On a sampled field the jets are computed
only around where they are read, bit-identical to the full-grid jets
there, so a track costs O(frames) whatever the grid size.

A Newton track cannot know its next point, so it reads its jets from window
runs: a box, a run of frames and their jets from one :func:`fd_jet_stacks`
pass of the parts its track reads.  A run goes through frames with and
without a time window alike, and holds at most ``_RUN_POINTS`` box points
(box size times frames), which bounds a track's memory whatever its frame
count.  Its box reaches half a stencil and ``_WINDOW_SLACK`` cells beyond
the interpolation block (11^N points at order 4): the tracked point can
move ``_WINDOW_SLACK`` cells before the run misses, and the run opened after
the point left the last one holds one frame more than that one served, so a
moving point costs few frames it never reads.  A run caches the rows of the
last block it served, so the Newton steps at one anchor and the velocity at
the root gather the block and test it for finite entries once per pass, and
the Newton bookkeeping runs on Python floats.  A level track opens no run: it
finds every crossing first (crossings read only the samples), then reads the
jets at the points of the crossings' blocks and nowhere else, with one
:func:`fd_jets_at` call, finite test and matmul a slice of at most
``_RUN_POINTS`` block points; the order-zero kernel runs once on the stack.
Either way a point is lost where its block has a non-finite gradient or
Hessian entry, and the floats, stacks and contractions reproduce the numpy
loop's operations and operand shapes, so no path changes an output bit.  A
:class:`TrackResult` reports the passes, the points and the Newton
iterations a track spent.

Both level trackers take a crossing by one rule: the linear crossing in the
cell nearest to the previous crossing where ``value - level`` changes sign.
A sampled ray finds the sign changes of all its frames in one scan of its
``(frames, n)`` samples; the nearest cell is then picked frame by frame.
An analytic ray's cell, first one of 64 across the search radius, is
re-sampled 64-fold (one vectorised ``value`` call a round) until it is no
wider than ``1e-14 + 8.9e-16 |x|``, brentq's tolerances (Brent 1973, ch. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AnalyticField, Grid, SampledField, _sum_planes, canonical_time_axis
from .findiff import DEFAULT_STENCIL, StencilSpec, _time_taps, fd_jet_stacks, fd_jets_at
from .jets import JetField, _jet_shapes
from .velocities import AttributeSpec, _order_zero, _solve_order_one

Array = np.ndarray

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-8
# Cells a window extends beyond the interpolation block and half a stencil,
# and box points (box size times frames) of one window run.  Sum of the
# per-task minimums of 15 interleaved runs of the perfbench track cycle
# (seeds 5 and 9, 2-vCPU VM, BLAS at 1 thread), ms, at run points 2**14:
# slack 1 / 2 / 3 / 4: 105.9 / 88.7 / 85.6 / 100.9; at slack 2, run points
# 1 / 2**12 / 2**13 / 2**14 / 2**15 / 2**16: 199.4 / 103.4 / 100.4 / 88.7 /
# 88.0 / 93.0 (two repeats put slack 2 and 3, and 2**14 to 2**16 points,
# within 10% of each other either way).  Fewer cells of slack re-open runs as
# the point moves; more make every box larger.  At 2**14 points a 2-D box of
# slack 2 (11^2) takes 135 frames and a 3-D one (11^3) 12 frames, and a 3-D
# run peaks at about 2.5 MB; at 2**15 and more the cap no longer binds on a
# 21-frame 3-D track, whose memory then grows with its frame count.  These
# timings were taken while level tracks still ran slack windows; level tracks
# have since stopped opening runs (see _WindowRun.jets_stack), and neither
# value was re-tuned after that.
_WINDOW_SLACK = 2
_RUN_POINTS = 2**14


class TrackingError(RuntimeError):
    """Base class for tracking failures."""


class NoConvergenceError(TrackingError):
    """Newton iteration did not converge within the iteration budget."""


class AttributeLostError(TrackingError):
    """The tracked attribute left the grid or no crossing exists."""


class SingularHessianError(TrackingError):
    """The (interpolated) Hessian is singular, or the Newton step overflows,
    at a Newton iterate."""


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

    The track also reports its work: ``newton_iterations[m]`` is the number
    of Newton iterations (jet evaluations) at frame ``m``, 0 on level
    tracks, ``jet_passes`` the number of finite-difference passes and
    ``jet_points`` the points they computed, both 0 on analytic fields.  A
    gradient track's passes are its runs' :func:`fd_jet_stacks` calls, and
    its points the box points times frames; a level track's passes are its
    :func:`fd_jets_at` calls, and its points the block points they computed.
    All three are None on a result built without them.
    """

    kind: str
    times: Array
    positions: Array
    empirical_velocity: Array
    computed_velocity: Array
    deviation: float
    newton_iterations: Array | None = None
    jet_passes: int | None = None
    jet_points: int | None = None


def _quad_weights(s: float) -> tuple:
    # Lagrange basis on nodes -1, 0, 1
    return (0.5 * s * (s - 1.0), 1.0 - s * s, 0.5 * s * (s + 1.0))


def _tensor_weights(fid, anchor) -> list:
    """The 3^N tensor-product weights at the fractional index ``fid`` of the
    block around ``anchor``: products in the order and the bits of
    ``reduce(np.multiply.outer, axis weights)``, flattened.  On Python floats
    at one point, or elementwise on arrays at R points (``fid`` and ``anchor``
    as N rows of R), which gives each point the same operations."""
    axes = [_quad_weights(f - a) for f, a in zip(fid, anchor)]
    weights = axes[0]
    for axis in axes[1:]:
        weights = [p * w for p in weights for w in axis]
    return weights


def _gather(stack: Array, index: tuple) -> tuple:
    """The contiguous ``(3^N, k)`` rows of one frame's block ``stack[index]`` (a
    copy: it keeps no jet array alive) and the trailing shape of ``stack``."""
    n = len(index) - 1
    return stack[index].copy().reshape(3**n, -1), stack.shape[n + 1:]


def _contract(weights: Array, rows: Array, shape: tuple) -> Array:
    """The interpolated value: the operands and the product np.tensordot would
    build from the block and the weights, without its Python overhead.  A
    ``(1, 3^N)`` row and ``(3^N, k)`` rows give one value, of ``shape``; an
    ``(R, 1, 3^N)`` stack and ``(R, 3^N, k)`` rows give R values, ``shape``
    ``(R, ...)``, each with the bits of its one-row product."""
    return np.matmul(weights, rows).reshape(shape)


class _WindowRun:
    """Frame source on sampled data: finite-difference jets of runs of frames
    or of known points, tensor-quadratically interpolated.

    One run serves every frame of a track, or (:meth:`whole`) the one frame
    of a jet field on its whole grid.  It hands out :meth:`jets` at a point
    of a frame, ``timed``, :meth:`crossings` (a level ray's crossing on every
    frame, from the samples, in one sign scan) and :meth:`jets_stack` (known
    points' jets, stacked, from :func:`fd_jets_at` calls); a whole run
    scans its frame's psi and reads every request from its held jets, as it
    holds every point of its grid.  The run owns the time windows:
    ``timed[f]`` says whether frame ``f`` has one (the end frames of
    shrink-to-valid have none), decided once when the run is made; a field
    with too few frames for the time stencil raises
    :class:`InsufficientFramesError` there.  Without one a frame's
    velocities stay NaN.  A run holds ``names``, its track's jet parts,
    named once when it is made (a whole run holds every part): its passes
    and its stacked read compute those and nothing else, its block cache
    gathers those, and a
    request for another part raises ``ValueError``.  Every run holds the
    gradient and the Hessian, which the Newton loop and the finite-block
    rule read.  A run goes through frames with and without a time window
    alike: an untimed frame's time parts are NaN.  A point
    is lost when any gradient or Hessian entry of its 3^N block is not
    finite (the border bands are NaN), on timed and untimed frames alike.

    A run is an index box of the grid, a range of frames and the jets of
    those frames on the box, from one :func:`fd_jet_stacks` pass over a
    window of the field cut without a second finite scan.  The box
    reaches at least ``hw`` cells beyond the interpolation blocks it serves
    on each side (``hw`` is half a stencil, ``spec.half_width``), clipped to
    the grid, and its exact zone is the box less ``hw`` cells at each cut
    face.  In the exact zone the jets are bit-identical to the full-grid
    jets:

    * every fd pass runs along one axis, and a point at least ``hw`` cells
      from both box ends of that axis gets the central taps on the same
      values as on the full grid; at a real grid face the box ends where
      the grid does, so a point there gets the full grid's taps too;
    * a mixed Hessian entry composes passes along two different axes: the
      inner pass is pointwise along the outer axis, so the outer pass reads
      values that are exact wherever the point is ``hw`` cells inside the
      inner axis's cut faces, and the mixed time rows are one spatial pass
      over the time derivative, which is pointwise in space; so a point
      ``hw`` cells inside every cut face reads only exact values;
    * ``stencil_taps`` caps edge distances at ``deriv + order``, which
      matters only for the one-sided taps within ``hw`` cells of a real
      grid face: those taps do not depend on the far side of the axis once
      it is at least 3 cells away, and a block point there is at least 3
      cells from the far end of its box (its anchor is at least 1 and the
      box reaches ``hw`` beyond the block), or the box spans the whole axis;
      a box cut on one side of an axis holds ``3 + hw + _WINDOW_SLACK >=
      order + 2`` points or more, so the one-sided taps at its cut face exist;
    * the sub-field holds the run's frames and ``spec.order`` frames on
      each side, clipped to the field: a time stencil reads ``order + 1``
      consecutive frames, its own among them, and ``stencil_taps`` picks
      the same taps for any cut at least ``order`` frames away, so every
      run frame keeps the full field's time taps and time window.

    A request misses when its frame is outside the run or its 3^N block
    leaves the exact zone; the run then drops its jets and opens a new run
    by the slack rule (:meth:`_open`): a box reaching ``_WINDOW_SLACK`` cells
    beyond ``hw`` and the block, opened at the request's frame over the
    following frames.  After a position miss at frame ``f`` it holds
    ``f - start + 1`` frames, one more than the old run served before the
    point left it, so the run length follows the point's motion; the first
    run, and a run opened for a frame outside the old one, take as many
    frames as ``_RUN_POINTS`` box points allow.  ``passes`` counts the fd
    passes, each :func:`fd_jet_stacks` call of a run and each
    :func:`fd_jets_at` call of a stacked read, and ``points`` the points they
    computed: box points times frames, and block points.

    A point is located once per request: :meth:`index` gives its fractional
    grid index as Python floats (a stacked read takes the same operations
    elementwise), from which the anchor, the bound checks and the weights
    follow.  A level track's points are read stacked (:meth:`jets_stack`)
    and open no run.  Newton's reads go point by point,
    through a block cache: the first :meth:`jets` request for a frame and an
    anchor in a pass takes one serve step, :meth:`_holds` (a miss follows it
    with :meth:`_open`), gathers the block's rows from the run's
    ``(K, *box, ...)`` stacks and decides once whether its gradient and
    Hessian rows are finite; later requests for that block in the same pass
    read the copies, so the Newton steps at one anchor and the velocity at
    the root gather and check the block once.  The cache holds one block,
    keyed on ``passes``, the frame and the anchor, so a reopened run never
    serves the old pass's rows; it holds copies, so an old run's jets are
    freed when a new run opens; and a non-finite block is not kept,
    so every request for it fails.  Every
    contraction keeps the operand shapes np.tensordot would build, so the
    bits do not depend on the cache.
    """

    def __init__(self, field: SampledField, spec: StencilSpec, names):
        self.field = field
        self._spec = spec
        self._start(field.grid, [taps is not None for taps in _time_taps(field, spec)],
                    field.values, tuple(names))

    def _start(self, grid: Grid, timed: list, samples: Array, names: tuple) -> None:
        self.grid = grid
        self.names = names  # the jet parts the run holds: its track's, or all of a whole run's
        self.samples = samples  # the (frames, *shape) values level rays scan
        self.spacing = grid.spacing
        self.length_scale = max(self.spacing)
        self.timed = timed
        self.coords = [grid.axis_coordinates(a) for a in range(grid.dim)]  # for level crossings
        self.passes = 0  # fd passes: fd_jet_stacks and fd_jets_at calls
        self.points = 0  # the points they computed: box points times frames, block points
        self.frames = range(0)
        self.stacks = {}  # the (K, *box, ...) jet arrays of the run's frames, by name
        self.lo = None  # index offset of the box
        self._exact = None  # inclusive index bounds of the exact zone
        self._key = None  # (passes, frame, anchor) of the cached block
        self._rows = {}  # its gathered (rows, tail) operands, by jet array name

    @classmethod
    def whole(cls, jets: JetField) -> "_WindowRun":
        """A run of one frame (index 0) on the whole grid of ``jets``; it never
        misses, and its frame is timed where its jets are valid somewhere.  Its
        stacks are one-frame views of the jet arrays."""
        run = cls.__new__(cls)
        run.field = None
        run._start(jets.grid, [bool(jets.valid.any())], jets.psi[None],
                   ("grad", "hessian", "time_mixed", "dpsi_dt"))
        run.stacks = {name: getattr(jets, name)[None] for name in _jet_shapes((), jets.dim)}
        run.frames, run.lo = range(1), (0,) * jets.dim
        run._exact = (run.lo, tuple(n - 1 for n in jets.grid.shape))
        return run

    def index(self, x) -> list:
        """Fractional grid index of ``x`` (:meth:`Grid.index_of` on Python floats)."""
        if isinstance(x, np.ndarray):
            x = x.tolist()
        return [(e - o) / h for e, o, h in zip(x, self.grid.origin, self.spacing)]

    def anchor(self, fid, locked=None) -> tuple:
        """Anchor of the interpolant at the fractional index ``fid``: ``locked``
        while ``fid`` stays within 1.5 cells of it, else the nearest grid point
        with a full 3^N block."""
        if locked is not None and not any(abs(f - a) > 1.5 for f, a in zip(fid, locked)):
            return locked
        return tuple(min(max(round(f), 1), n - 2) for f, n in zip(fid, self.grid.shape))

    def jets(self, frame: int, x, names, anchor=None, fid=None) -> list:
        """The jet arrays ``names`` (parts the run holds) of ``frame``
        interpolated at ``x``, whose fractional index is ``fid``, on the block
        around ``anchor`` (None: the nearest full block), through the block
        cache; ``ValueError`` for a part the run does not hold."""
        if fid is None:
            fid = self.index(x)
        if not self._on_grid(fid):
            raise AttributeLostError(f"point {np.asarray(x)} left the grid")
        if anchor is None:
            anchor = self.anchor(fid)
        if (self.passes, frame, anchor) != self._key:
            self._key = None
            if not self._holds(frame, anchor):
                self._open(frame, anchor)  # passes first, key after
            index = (frame - self.frames.start,
                     *[slice(a - b - 1, a - b + 2) for a, b in zip(anchor, self.lo)])
            self._rows = {name: _gather(self.stacks[name], index) for name in self.names}
            if not all(np.isfinite(self._rows[name][0]).all() for name in ("grad", "hessian")):
                raise AttributeLostError(f"point {np.asarray(x)} left the valid interior "
                                         "of the jet field")
            self._key = (self.passes, frame, anchor)
        try:
            rows = [self._rows[name] for name in names]
        except KeyError:
            raise self._not_held(names) from None
        weights = np.array([_tensor_weights(fid, anchor)])
        return [_contract(weights, *row) for row in rows]

    def _not_held(self, names) -> ValueError:
        return ValueError(f"the run holds the jet parts {self.names}, not all of {tuple(names)}")

    def _on_grid(self, fid) -> bool:
        """Whether the fractional index ``fid`` lies on the grid, faces included."""
        return all(0.0 <= f <= n - 1 for f, n in zip(fid, self.grid.shape))

    def jets_stack(self, frames: Array, points: Array, names) -> tuple:
        """The jet arrays ``names`` at the ``(R, N)`` ``points`` of the ``(R,)``
        ``frames``, stacked ``(R, ...)``, and the ``(R,)`` mask of the points
        served: what :meth:`jets` reads at each, bit for bit, or NaN and False
        where it raises AttributeLostError.  ``names`` must be parts the run
        holds (``ValueError`` before any pass).  The points are located as
        :meth:`index` and :meth:`anchor` locate one, elementwise, and read in
        slices of at most ``_RUN_POINTS`` block points (:meth:`_read_blocks`),
        which bounds the read's memory as a run's is bounded."""
        if not set(names) <= set(self.names):
            raise self._not_held(names)
        n, shape = self.grid.dim, np.array(self.grid.shape)
        parts = [np.full(_jet_shapes((len(frames),), n)[name], np.nan) for name in names]
        ok = np.zeros(len(frames), dtype=bool)
        fids = (points - self.grid.origin) / self.spacing
        served = np.flatnonzero(((fids >= 0.0) & (fids <= shape - 1)).all(axis=1))
        step = max(1, _RUN_POINTS // 3**n)
        for start in range(0, len(served), step):  # at most _RUN_POINTS block points a pass
            at = served[start : start + step]
            values, good = self._read_blocks(frames[at], fids[at], names)
            for part, value in zip(parts, values):
                part[at[good]] = value[good]
            ok[at] = good
        return parts, ok

    def _read_blocks(self, frames: Array, fids: Array, names) -> tuple:
        """One slice of :meth:`jets_stack` (its jets freed on return): one
        :func:`fd_jets_at` call (one pass; a whole run gathers from its stacks)
        at the 3^N block points of ``fids`` (fractional indices on the grid) of
        ``frames``, one finite test of the gradient and Hessian rows and one
        :func:`_contract`: the parts ``names`` and the mask of finite blocks."""
        n, shape = self.grid.dim, np.array(self.grid.shape)
        anchors = np.clip(np.rint(fids), 1, shape - 2).astype(int)
        offsets = np.indices((3,) * n).reshape(n, -1).T - 1  # a block's points in C order
        frames, points = np.repeat(frames, 3**n), (anchors[:, None] + offsets).reshape(-1, n)
        held = {"grad", "hessian", *names}
        if self.field is None:  # a whole run: its one frame's stacks
            jets = {name: self.stacks[name][(frames, *points.T)] for name in held}
        else:
            jets = fd_jets_at(self.field, frames, points, self._spec, held)
            self.passes += 1
            self.points += len(points)
        # C-ordered (3^N, k) rows a point, as the block cache gathers them
        rows = {name: np.ascontiguousarray(jets[name]).reshape(len(fids), 3**n, -1)
                for name in held}
        good = np.isfinite(rows["grad"]).all(axis=(1, 2))
        good &= np.isfinite(rows["hessian"]).all(axis=(1, 2))
        weights = np.stack(_tensor_weights(fids.T, anchors.T), axis=-1)[:, None]
        shapes = _jet_shapes((len(fids),), n)
        return [_contract(weights, rows[name], shapes[name]) for name in names], good

    def crossings(self, point, axis: int, level: float, near: float) -> list:
        """The crossing of ``level`` on every frame's grid line through ``point``
        along ``axis`` (linear interpolation of the samples), each nearest to the
        one before it, the first nearest to ``near``.  One sign scan serves the
        ray: the level is subtracted from its ``(frames, n)`` slab, and the cells
        where each frame changes sign and their midpoints are found at once."""
        index = tuple(round(f) for f in self.index(point))
        ray = (slice(None),) + index[:axis] + (slice(None),) + index[axis + 1 :]
        f = self.samples[ray] - level
        coords, lost = self.coords[axis], f"no crossing of level {level} on the ray"
        changes = _sign_changes(f)
        rows, cells = np.divmod(np.flatnonzero(changes), changes.shape[1])  # frame-major
        mids = _midpoints(coords, cells)
        cells = cells.tolist()
        bounds = np.searchsorted(rows, np.arange(len(f) + 1)).tolist()  # each frame's cells
        found = []
        for row, a, b in zip(f, bounds, bounds[1:]):
            near = _cell_crossing(coords, row, _nearest_cell(cells[a:b], mids[a:b], near, lost))
            found.append(near)
        return found

    def _holds(self, frame: int, anchor) -> bool:
        """Whether the open run serves ``frame`` and the block around ``anchor``
        (inside the exact zone): the step a block-cache fill takes before a miss."""
        return frame in self.frames and all(low < a < high
                                            for a, low, high in zip(anchor, *self._exact))

    def _open(self, frame: int, anchor) -> None:
        """Open the run of a missed request by the slack rule and make it: one fd
        pass.  The box reaches half a stencil and ``_WINDOW_SLACK`` cells beyond
        the block around ``anchor``, clipped to the grid.  After a position miss
        it holds one frame more than the run served."""
        field, spec = self.field, self._spec
        hw, shape = spec.half_width, field.grid.shape
        reach = 1 + hw + _WINDOW_SLACK
        lo = [max(a - reach, 0) for a in anchor]
        hi = [min(a + reach + 1, n) for a, n in zip(anchor, shape)]
        size = math.prod(b - a for a, b in zip(lo, hi))
        count = frame - self.frames.start + 1 if frame in self.frames else None
        cap = max(1, _RUN_POINTS // size)
        frames = range(frame, min(frame + (cap if count is None else min(count, cap)),
                                  field.frames))
        self.stacks = {}  # free the old run before the new one is allocated: never both at once
        # the run's frames +- order, at least min_frames of them: every run
        # frame keeps its time taps and time window (see the class docstring)
        first, stop = max(frames.start - spec.order, 0), min(frames.stop + spec.order, field.frames)
        sub = field._window(range(first, stop), lo, hi)
        self.stacks = fd_jet_stacks(sub, range(frames.start - first, frames.stop - first), spec,
                                    self.names)
        self.passes += 1
        self.points += len(frames) * size
        self.frames, self.lo = frames, tuple(lo)
        self._exact = (tuple(a + hw if a > 0 else 0 for a in lo),  # the box less hw at cut faces
                       tuple(b - 1 - hw if b < n else n - 1 for b, n in zip(hi, shape)))


class _ExactJets:
    """Frame source on an analytic field: exact jets at each frame's time.

    The counterpart of :class:`_WindowRun` without a grid: the length scale
    is 1 and there is one constant anchor, so Newton's anchor locking never
    re-anchors.  Every frame is timed, and :meth:`crossings` takes a ray's
    crossing on every frame, each a bracketed root within ``search_radius``
    of the previous crossing.  It needs no runs: ``passes`` and ``points``
    stay 0.
    """

    length_scale = 1.0
    passes = points = 0
    _ANCHOR = ()

    def __init__(self, field: AnalyticField, times: Array, search_radius: float):
        self._field = field
        self._times = times
        self._search_radius = search_radius
        self.spacing = (1.0,) * field.dim
        self.timed = [True] * len(times)

    def index(self, x):
        """The point itself: exact jets need no grid index."""
        return x

    def anchor(self, fid, locked=None):
        return self._ANCHOR

    def jets_stack(self, frames: Array, points: Array, names) -> tuple:
        """The :meth:`jets` at every point (see :meth:`_WindowRun.jets_stack`),
        stacked; every point is served."""
        parts = zip(*[self.jets(frame, point, names) for frame, point in zip(frames, points)])
        return [np.array(part) for part in parts], np.ones(len(frames), dtype=bool)

    def jets(self, frame: int, x, names, anchor=None, fid=None) -> list:
        """The :class:`Jet2` attributes ``names`` of the exact jet at ``x``."""
        jet = self._field.jet2(x, self._times[frame])
        return [getattr(jet, name) for name in names]

    def crossings(self, point, axis: int, level: float, near: float) -> list:
        """The crossing of ``level`` on every frame's line through ``point`` along
        ``axis``, each nearest to the one before it, the first nearest to ``near``."""
        found = []
        for t in self._times:
            def profile(s, t=t):
                p = np.tile(point, (s.size, 1))  # one (samples, N) point stack per round
                p[:, axis] = s
                return self._field.value(p, t) - level

            near = _bracketed_root(profile, near, self._search_radius)
            found.append(near)
        return found


def _newton_iterations(source, frame: int, x0, targets):
    """Newton iteration for grad(psi)(x) = targets on ``frame`` of a frame source.

    Returns the root and the number of iterations (jet evaluations) spent.

    Converged when the residual max-norm drops below
    ``NEWTON_TOL * ||H||_F * source.length_scale``.  On sampled data the
    interpolant is anchored at the nearest grid point; once the step drops
    below half a cell the anchor is frozen, so the final iterations polish
    the root of one smooth local polynomial (the anchored interpolant jumps
    by O(h^3) across cell midplanes, which would otherwise stall the
    residual below its tolerance).  On convergence the anchor is re-derived
    from the root and polishing repeats until the anchor is its own
    fixpoint, which makes the result a function of the frame data alone to
    the Newton tolerance, not to the bit: the root depends on its start at
    the 1e-10 level.  Within the interpolant's O(h^3) jump of a cell
    midplane the anchors on both sides can each hold a root of their own
    (0.01 cells from the midplane on a peak lying on it), and the start
    picks one.  Exact jets have one constant anchor, so their first
    convergence returns.

    The iterate, the step and the tests run on Python floats, with the
    source's fractional index computed once a step; ``||H||_F`` is summed
    left to right (:func:`_sum_planes`), as the grid kernels sum it, so every
    decision and bit is that of the same loop on numpy arrays.
    """
    x = np.asarray(x0, dtype=float).tolist()
    locked = None
    polished = set()
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        fid = source.index(x)
        anchor = source.anchor(fid, locked)
        if anchor is not locked:
            locked = None  # not locked, or the iterate escaped the locked cell
        grad, hess = source.jets(frame, x, ("grad", "hessian"), anchor, fid)
        residual = grad - targets
        frob = math.sqrt(_sum_planes(e * e for e in hess.ravel().tolist()))
        bound = NEWTON_TOL * frob * source.length_scale
        if all(abs(r) <= bound for r in residual.tolist()):  # False on NaN, as np.max is
            canonical = source.anchor(fid)
            if locked is None or canonical == locked or canonical in polished:
                return np.array(x), iteration
            polished.add(locked)
            locked = canonical  # converged off the root's own cell; re-polish there
            continue
        step, valid, _ = _solve_order_one(hess, residual)  # step = -H^-1 r
        if not valid:
            raise SingularHessianError("singular Hessian or overflowed step at a Newton iterate")
        step = step.tolist()
        x = [e + d for e, d in zip(x, step)]
        if not all(map(math.isfinite, x)):
            raise NoConvergenceError("Newton iterate became non-finite")
        if locked is None and all(abs(d) / h <= 0.5 for d, h in zip(step, source.spacing)):
            locked = anchor
    raise NoConvergenceError(f"no convergence in {NEWTON_MAX_ITER} iterations")


def _gradient_targets(target, dim: int) -> Array:
    if isinstance(target, AttributeSpec):
        if target.kind != AttributeSpec.GRADIENT_SET:
            raise ValueError("critical-point search needs a gradient-set attribute")
        target = target.gradient_targets
    targets = np.asarray(target, dtype=float)
    if targets.shape != (dim,):
        raise ValueError(f"targets must have shape ({dim},), got {targets.shape}")
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"targets must be finite, got {targets}")
    return targets


def _grid_seed(grid: Grid, seed) -> Array:
    """Grid point at a seed index; ValueError unless it is N integer indices inside the grid."""
    index = np.asarray(seed)
    if (index.shape != (grid.dim,) or not np.issubdtype(index.dtype, np.integer)
            or np.any(index < 0) or np.any(index >= grid.shape)):
        raise ValueError(
            f"seed must be {grid.dim} integer indices inside the grid shape {grid.shape}, "
            f"got {seed!r}"
        )
    return grid.point(index)


def find_critical_point(jets: JetField, seed_index, target) -> Array:
    """Sub-grid location where the field gradient equals the target values.

    Newton iteration on quadratically interpolated jets, seeded at a grid
    index.  ``target`` is a gradient-set :class:`AttributeSpec` or a plain
    target vector (zero for peaks and saddles).
    """
    targets = _gradient_targets(target, jets.dim)
    x0 = _grid_seed(jets.grid, seed_index)
    return _newton_iterations(_WindowRun.whole(jets), 0, x0, targets)[0]


# --------------------------------------------------------------------------
# frame-by-frame tracking


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
    search_radius: float | None = None,
) -> TrackResult:
    """Track an attribute point across frames and compare velocities.

    For a :class:`SampledField`, ``seed`` is a grid index near the attribute
    at the first frame (N integer indices inside the grid) and jets come
    from finite differences.  For an analytic catalog field, ``seed`` is a
    point, ``times`` supplies the (uniform) frames, and evaluation is exact;
    ``search_radius`` (finite and > 0; None means 0.5) bounds the per-frame
    level-crossing search along each ray.  A malformed seed, gradient target,
    time axis or search radius raises ``ValueError``, and so do ``times`` and
    ``search_radius`` given with a sampled field, whose frames carry their own
    times and whose crossings are searched along whole grid lines.
    """
    if not isinstance(target, AttributeSpec):
        raise TypeError("target must be an AttributeSpec")
    gradient = target.kind == AttributeSpec.GRADIENT_SET
    if isinstance(field, SampledField):
        if times is not None:
            raise ValueError("times must be None for a SampledField: its frames carry "
                             "their own times (field.times)")
        if search_radius is not None:
            raise ValueError("search_radius must be None for a SampledField: its level "
                             "crossings are searched along whole grid lines")
        times, dt = field.times, field.dt
        x0 = _grid_seed(field.grid, seed)
        # the parts the track reads (its windows open lazily): Newton and the
        # block rule grad and hessian, order one time_mixed, order zero dpsi_dt
        source = _WindowRun(field, spec, ("grad", "hessian",
                                          "time_mixed" if gradient else "dpsi_dt"))
    elif isinstance(field, AnalyticField):
        if times is None:
            raise ValueError("analytic tracking needs explicit times")
        t0, dt, m = canonical_time_axis(times)
        times = t0 + dt * np.arange(m)
        x0 = np.asarray(seed, dtype=float)
        if x0.shape != (field.dim,) or not np.all(np.isfinite(x0)):
            raise ValueError(f"seed must be a finite point of dimension {field.dim}")
        radius = 0.5 if search_radius is None else search_radius
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"search_radius must be finite and > 0, got {radius!r}")
        source = _ExactJets(field, times, radius)
    else:
        raise TypeError(f"cannot track on a {type(field).__name__}")
    if times.size < 3:
        raise ValueError("tracking needs at least 3 frames")
    positions = np.empty((times.size, x0.size))
    computed = np.full_like(positions, np.nan)
    iterations = np.zeros(times.size, dtype=int)
    if gradient:
        _track_gradient(source, x0, _gradient_targets(target, x0.size), positions, computed,
                        iterations)
    else:
        _track_level(source, x0, target.level, positions, computed)
    with np.errstate(over="ignore"):  # crossings far apart over a tiny dt: +-inf speeds
        empirical = np.gradient(positions, dt, axis=0)
    return TrackResult(
        target.kind, times, positions, empirical, computed,
        _deviation(empirical, computed), iterations, source.passes, source.points,
    )


def _track_gradient(source, x, targets: Array, positions: Array, computed: Array,
                    iterations: Array) -> None:
    """Locate the fixed-gradient point in each frame.  Frame 0 starts Newton at
    the seed and frame 1 at frame 0's root; a later frame starts at the linear
    extrapolation of the last two roots, O(dt^2) from its own root where the
    previous root is O(dt) away.  The prediction reads no velocity, so the
    path does not depend on the formula the track checks."""
    for frame in range(len(positions)):
        if frame >= 2:
            x = positions[frame - 1] + (positions[frame - 1] - positions[frame - 2])
        x, iterations[frame] = _newton_iterations(source, frame, x, targets)
        positions[frame] = x
        if source.timed[frame]:
            computed[frame] = _solve_order_one(*source.jets(frame, x, ("hessian", "time_mixed")))[0]


def _track_level(source, seed: Array, level: float, positions: Array,
                 computed: Array) -> None:
    """Follow the level crossing on each axis ray through ``seed``, frame by frame,
    with N times the axis component of :func:`_order_zero` at each crossing.

    Every crossing is found first: crossings read the samples (or the field),
    never the jets.  The jets at the crossings of the timed frames are read
    after, ray by ray, in one stacked read (on a sampled field,
    :func:`fd_jets_at` calls at the points of their blocks).
    """
    n = seed.size
    for axis in range(n):
        positions[:, axis] = source.crossings(seed, axis, level, seed[axis])
    # the timed crossings, ray by ray: the seed with its axis coordinate moved
    frames = np.tile(np.flatnonzero(source.timed), n)
    axes, rows = np.repeat(np.arange(n), len(frames) // n), np.arange(len(frames))
    points = np.tile(seed, (len(frames), 1))
    points[rows, axes] = positions[frames, axes]
    # time rows hold +-inf where |psi| / dt overflowed: a quiet NaN or inf
    with np.errstate(invalid="ignore", over="ignore"):
        (grad, psi_t), ok = source.jets_stack(frames, points, ("grad", "dpsi_dt"))
        # no valid jet block at a crossing (not ok): its speed is NaN
        speed = n * _order_zero(grad, psi_t, ok)[1][rows, axes]
    computed[frames, axes] = np.where(np.isfinite(speed), speed, np.nan)


def _sign_changes(f: Array) -> Array:
    """Mask of the cells ``k`` (along the last axis of ``f``) in which ``f`` changes
    sign from sample ``k`` to ``k + 1``, or starts at zero."""
    sign = np.sign(f)
    lo, hi = sign[..., :-1], sign[..., 1:]
    return (lo == 0.0) | (lo != hi)


def _midpoints(coords: Array, cells: Array) -> list:
    """Midpoints of the cells ``coords[k]..coords[k+1]``, as Python floats."""
    return (0.5 * (coords[cells] + coords[cells + 1])).tolist()


def _nearest_cell(cells: list, mids: list, near: float, lost: str) -> int:
    """The cell of ``cells`` whose midpoint (``mids``) is nearest to ``near``, the
    first on ties; AttributeLostError(lost) if there is none."""
    if not cells:
        raise AttributeLostError(lost)
    return cells[min(range(len(cells)), key=lambda i: abs(mids[i] - near))]


def _cell_crossing(coords: Array, f: Array, k: int) -> float:
    """The linear zero of ``f`` in the cell ``coords[k]..coords[k+1]``, fraction first
    so that a large step times a large value cannot overflow."""
    if f[k] == 0.0:
        return float(coords[k])
    return float(coords[k] + (coords[k + 1] - coords[k]) * (f[k] / (f[k] - f[k + 1])))


def _bracketed_root(fn, near: float, radius: float) -> float:
    """Root of the vectorised ``fn`` nearest to ``near`` within ``radius``.  A round
    keeps the cell's end values, so rounding cannot lose its sign change."""
    s = np.linspace(near - radius, near + radius, 65)
    f = fn(s)
    while True:
        cells = np.flatnonzero(_sign_changes(f))
        k = _nearest_cell(cells.tolist(), _midpoints(s, cells), near,
                          "no level crossing within the search radius")
        if f[k] == 0.0 or s[k + 1] - s[k] <= 1e-14 + 8.9e-16 * abs(s[k]):
            return _cell_crossing(s, f, k)
        s = np.linspace(s[k], s[k + 1], 65)
        f = np.concatenate(([f[k]], fn(s[1:-1]), [f[k + 1]]))
