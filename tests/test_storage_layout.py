"""Planes-first storage behind component-last views.

The grid kernels store every jet and velocity component plane contiguously
and hand out transposed views with the documented component-last
shapes.  These tests pin that storage (contiguous planes, no Hessian copy in
the order-one map, the memory it saves) and check that every consumer of a
``JetField`` gives the same bits on planes-first arrays as on C-ordered
component-last copies of them, the layout ``analytic_jet_field`` produces.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest

import wavevel as wv
from wavevel.fields import _sum_planes
from wavevel.velocities import _solve_order_one

SHAPES = {1: (23,), 2: (17, 13), 3: (9, 8, 10), 4: (6, 7, 5, 6), 5: (5, 6, 5, 5, 6)}
TIMES = 0.05 * np.arange(6) - 0.1


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if want.dtype.kind != "f":
        assert np.array_equal(got, want)
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _grid(n):
    shape = SHAPES[n]
    return wv.make_grid(n, shape, 0.2, [-0.1 * (k - 1) + 0.013 for k in shape])


def _fd_jets(n, field=None, spec=wv.DEFAULT_STENCIL):
    if field is None:
        rng = np.random.default_rng(n)
        field = wv.TranslatingGaussian(tuple(rng.standard_normal(n)), 0.7,
                                       tuple(0.1 * rng.standard_normal(n)), 1.3)
    return wv.fd_jet_field(wv.sample(field, _grid(n), TIMES), 2, spec)


def _planes_first(arr, k):
    """A planes-first copy of ``arr`` (``k`` trailing component axes), viewed
    component-last."""
    lead = tuple(range(arr.ndim - k, arr.ndim))
    planes = np.ascontiguousarray(np.moveaxis(arr, lead, tuple(range(k))))
    return np.moveaxis(planes, tuple(range(k)), lead)


def _relaid(jets, layout):
    """The same jets with every component array in ``layout``."""
    def put(arr, k):
        return np.ascontiguousarray(arr) if layout == "last" else _planes_first(arr, k)

    return wv.JetField(jets.grid, jets.t, jets.frame, jets.psi, jets.dpsi_dt,
                       put(jets.grad, 1), put(jets.hessian, 2), put(jets.time_mixed, 1),
                       jets.valid)


def _random_jets(n, seed):
    """Jets with invalid, zero and signed-zero entries, singular, tiny and
    non-finite Hessians, C-ordered component-last."""
    rng = np.random.default_rng(seed)
    grid = _grid(n)
    shape = grid.shape
    h = rng.standard_normal(shape + (n, n))
    h = h + np.swapaxes(h, -1, -2)
    u = rng.standard_normal(shape + (n,))
    rank1 = rng.random(shape) < 0.1
    h[rank1] = (u[..., :, None] * u[..., None, :])[rank1]
    h[rng.random(shape) < 0.05] = 0.0
    h[rng.random(shape) < 0.05, 0, 0] = np.inf
    h[rng.random(shape) < 0.05] *= 1e-200
    b = rng.standard_normal(shape + (n,))
    b[rng.random(shape + (n,)) < 0.1] = -0.0
    pt = rng.standard_normal(shape)
    pt[rng.random(shape) < 0.1] = 0.0
    g = rng.standard_normal(shape + (n,))
    g[rng.random(shape + (n,)) < 0.2] = -0.0
    valid = rng.random(shape) > 0.2
    for arr in (pt, g, h, b):
        arr[~valid] = np.nan
    return wv.JetField(grid, 0.0, None, np.zeros(shape), pt, g, h, b, valid)


def _maps(jets):
    with np.errstate(over="ignore", invalid="ignore"):
        v0 = wv.velocity_field(jets, 0)
        v1 = wv.velocity_field(jets, 1)
        vals, valid = wv.contraction_scalar_field(v0, v1)
    return (v0.reciprocal, v0.components, v0.valid,
            v1.components, v1.valid, v1.hessian_condition, vals, valid)


# --------------------------------------------------------------------------
# _sum_planes


def _special_terms(n, size, seed):
    rng = np.random.default_rng(seed)
    terms = rng.standard_normal((n, size)) * 10.0 ** rng.integers(-12, 12, (n, size))
    terms[rng.random((n, size)) < 0.15] = 0.0
    terms[rng.random((n, size)) < 0.15] = -0.0
    terms[:, :8] = -0.0  # every term -0: the sum from +0.0 is +0
    terms[:, 8:16] = 0.0
    terms[rng.integers(n), 16] = np.nan
    terms[rng.integers(n), 17] = np.inf
    terms[rng.integers(n), 18] = -np.inf
    terms[0, 19], terms[-1, 19] = np.inf, -np.inf
    terms[rng.random((n, size)) < 0.01] = np.inf
    return terms


@pytest.mark.parametrize("n", list(range(1, 41)) + [128, 129, 300])
def test_sum_planes_adds_left_to_right(n):
    terms = _special_terms(n, 400, n)
    with np.errstate(invalid="ignore"):
        want = reduce(np.add, terms, 0.0)
        got = _sum_planes([t.copy() for t in terms])
        into = _sum_planes([t.copy() for t in terms], np.empty(400))
    assert_same_bits(got, want)
    assert_same_bits(into, want)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 25])
def test_sum_planes_of_floats_adds_left_to_right(n):
    # the order-one kernel sums plain floats at a single point
    terms = _special_terms(n, 40, 100 + n)[:, 20:]
    want = reduce(np.add, terms, 0.0)
    for k in range(terms.shape[1]):
        got = _sum_planes([float(t) for t in terms[:, k]])
        assert_same_bits(np.float64(got), want[k])


# --------------------------------------------------------------------------
# storage


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fd_jet_planes_are_contiguous(n):
    jets = _fd_jets(n)
    shape = jets.grid.shape
    assert jets.grad.shape == jets.time_mixed.shape == shape + (n,)
    assert jets.hessian.shape == shape + (n, n)
    for a in range(n):
        assert jets.grad[..., a].flags.c_contiguous
        assert jets.time_mixed[..., a].flags.c_contiguous
    for i in range(n):
        for j in range(n):
            assert jets.hessian[..., i, j].flags.c_contiguous


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_velocity_map_planes_are_contiguous(n):
    jets = _fd_jets(n)
    v0, v1 = wv.velocity_field(jets, 0), wv.velocity_field(jets, 1)
    shape = jets.grid.shape
    for arr in (v0.reciprocal, v0.components, v1.components):
        assert arr.shape == shape + (n,)
        for a in range(n):
            assert arr[..., a].flags.c_contiguous
    assert v0.valid.shape == v1.valid.shape == v1.hessian_condition.shape == shape


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_order_one_map_reads_jets_in_place(n):
    jets = _fd_jets(n)
    assert np.shares_memory(jets.hessian.reshape(-1, n, n), jets.hessian)
    assert np.shares_memory(jets.time_mixed.reshape(-1, n), jets.time_mixed)


def test_fd_jet_field_holds_no_derivative_copy():
    # 64^3: the output (17.1 frames) plus the stencil scratch, under one frame
    # (measured 0.88 frames); writing each derivative into its plane through a
    # separate array cost 2.9 frames over the output
    grid = wv.make_grid(3, (64, 64, 64), 0.1, -3.15)
    sampled = wv.sample(wv.TranslatingGaussian((0.4, 0.3, 0.2), 1.0), grid, 0.01 * np.arange(5))
    tracemalloc.start()
    try:
        jets = wv.fd_jet_field(sampled, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for a in (jets.psi, jets.dpsi_dt, jets.grad, jets.hessian,
                                 jets.time_mixed, jets.valid))
    assert peak <= out + 1.25 * grid.npoints * 8


def test_fd_jet_field_scratch_is_one_strip():
    # 64^3: the stencil sums run in strips, so the output plus at most two
    # strips (measured 0.07 strips over the output); a whole-plane scratch
    # cost 7.0 strips
    grid = wv.make_grid(3, (64, 64, 64), 0.1, -3.15)
    sampled = wv.sample(wv.TranslatingGaussian((0.4, 0.3, 0.2), 1.0), grid, 0.01 * np.arange(5))
    tracemalloc.start()
    try:
        jets = wv.fd_jet_field(sampled, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for a in (jets.psi, jets.dpsi_dt, jets.grad, jets.hessian,
                                 jets.time_mixed, jets.valid))
    assert peak <= out + 2 * wv.findiff.STRIP_POINTS * 8


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("spec", [wv.StencilSpec(4, "one-sided"), wv.StencilSpec(2, "shrink-to-valid")])
def test_diff_along_axis_scratch_is_one_strip(axis, spec):
    # 512^2 (2 MB a plane): the output plus one strip of products (measured
    # 1.02 strips over the output); a whole-plane scratch cost 8 strips
    x = np.random.default_rng(axis).standard_normal((512, 512))
    tracemalloc.start()
    try:
        out, valid = wv.diff_along_axis(x, axis, 0.02, 1, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 1.25 * wv.findiff.STRIP_POINTS * 8


# --------------------------------------------------------------------------
# layout independence


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["translating", "plane-wave", "random"])
def test_maps_do_not_depend_on_layout(n, kind):
    if kind == "random":  # invalid, singular and non-finite points
        jets = _random_jets(n, 10 + n)
    elif kind == "plane-wave":  # singular Hessians everywhere
        field = wv.PlaneWave(tuple(np.random.default_rng(n).standard_normal(n)), 2.0, 1.1, 0.2)
        jets = _fd_jets(n, field, wv.StencilSpec(2, "shrink-to-valid"))
    else:
        jets = _fd_jets(n)
    want = _maps(_relaid(jets, "last"))
    for got in (_maps(jets), _maps(_relaid(jets, "first"))):
        for g, w in zip(got, want):
            assert_same_bits(g, w)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_order_one_kernel_does_not_depend_on_layout(n):
    jets = _random_jets(n, 30 + n)
    h, b, ok = jets.hessian, jets.time_mixed, jets.valid
    routes = (False, True) if n <= 3 else (True,)
    with np.errstate(over="ignore", invalid="ignore"):
        for pivoted in routes:
            want = _solve_order_one(h, b, ok, pivoted=pivoted)
            got = _solve_order_one(_planes_first(h, 2), _planes_first(b, 1), ok, pivoted=pivoted)
            for g, w in zip(got, want):
                assert_same_bits(g, w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transformation_laws_do_not_depend_on_layout(n):
    rng = np.random.default_rng(n)
    field = wv.TranslatingGaussian(tuple(rng.standard_normal(n)), 1.1)
    amap = wv.random_affine(rng, n)
    points = rng.uniform(-1.0, 1.0, (40, n))
    fd = wv.make_fd_jet2_fn(0.02, 0.02)

    def component_last(fld, pts, t):
        return tuple(np.ascontiguousarray(a) for a in fd(fld, pts, t))

    got = wv.check_transformation_laws(field, amap, points, 0.1, fd)
    want = wv.check_transformation_laws(field, amap, points, 0.1, component_last)
    assert got == want


@pytest.mark.parametrize("n, shape, h", [(2, (40, 40), 0.08), (3, (20, 20, 20), 0.15)])
def test_sampled_tracks_do_not_depend_on_layout(n, shape, h, monkeypatch):
    grid = wv.make_grid(n, shape, h, [-0.5 * h * (k - 1) for k in shape])
    bump = wv.TranslatingGaussian(tuple(0.6 * np.ones(n) / np.sqrt(n)), 1.0,
                                  tuple(0.05 * np.arange(n)))
    sampled = wv.sample(bump, grid, 0.02 * np.arange(9))
    peak = wv.AttributeSpec.gradient_set([0.0] * n)
    level = wv.AttributeSpec.level_set(0.5)
    on_level = np.asarray(bump.center) + np.sqrt(np.log(2.0) / n)  # psi = 0.5
    seeds = {peak: tuple(k // 2 for k in shape),
             level: tuple(np.rint(grid.index_of(on_level)).astype(int))}
    got = {attr: wv.track_attribute(sampled, attr, seed) for attr, seed in seeds.items()}
    fd_jet_stacks, fd_jets_at = wv.tracking.fd_jet_stacks, wv.tracking.fd_jets_at
    passes = []

    def relaid_jet_stacks(*args):
        # the stacks a gradient track gathers from, C-ordered component-last
        passes.append(args[1])
        return {name: np.ascontiguousarray(stack) for name, stack in fd_jet_stacks(*args).items()}

    def relaid_jets_at(*args):
        # the point stacks a level track contracts, component planes first
        passes.append(args[1])
        return {name: np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
                for name, stack in fd_jets_at(*args).items()}

    monkeypatch.setattr(wv.tracking, "fd_jet_stacks", relaid_jet_stacks)
    monkeypatch.setattr(wv.tracking, "fd_jets_at", relaid_jets_at)
    for attr, seed in seeds.items():
        passes.clear()
        want = wv.track_attribute(sampled, attr, seed)
        assert want.jet_passes == len(passes) >= 1  # every pass of the track was relaid
        for name in ("times", "positions", "empirical_velocity", "computed_velocity",
                     "deviation"):
            assert_same_bits(getattr(got[attr], name), getattr(want, name))
