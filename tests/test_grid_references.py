"""The grid kernels against their straightforward formulas, bit for bit.

The ``_ref_*`` functions below are the trailing-axis formulations the grid
kernels replaced: point-array sampling, the boolean-mask ``fd_jet_field``,
the broadcasting order-zero map and contraction, and the unblocked
eye-substituting pivoted solve.  Their sums over components run left to
right from +0.0 (``reduce(np.add, terms, 0.0)``), the package's one rule.
The kernels work on component planes and blocks of points but must round
exactly like these references: same values, same NaN positions, same sign
of zero.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest

import wavevel as wv
from wavevel.fields import _sum_planes
from wavevel.findiff import _time_taps, stencil_taps
from wavevel.velocities import EPS_SINGULAR, _solve_order_one


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if want.dtype.kind != "f":
        assert np.array_equal(got, want)
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


# --------------------------------------------------------------------------
# references


def _ref_value(field, points, t):
    if isinstance(field, wv.TranslatingGaussian):
        u = points - np.asarray(field.center) - np.asarray(field.velocity) * t
    elif isinstance(field, wv.StaticGaussian):
        u = points - np.asarray(field.center)
    else:
        return field.value(points, t)
    q = reduce(np.add, np.moveaxis(u * u, -1, 0), 0.0)
    return field.amplitude * np.exp(-q / field.sigma**2)


def _ref_sample(field, grid, times):
    pts = grid.points()
    return np.stack([_ref_value(field, pts, t) for t in times])


def _ref_sample_rows(field, grid, times):
    """:func:`_ref_sample` one index of axis 0 at a time: the same points and
    bits in a fraction of the memory, for grids of eight and more axes."""
    axes = [grid.axis_coordinates(a) for a in range(grid.dim)]
    want = np.empty((len(times),) + grid.shape)
    for i in range(grid.shape[0]):
        pts = np.stack(np.meshgrid(axes[0][i : i + 1], *axes[1:], indexing="ij"), axis=-1)
        for k, t in enumerate(times):
            want[k, i : i + 1] = _ref_value(field, pts, t)
    return want


def _ref_diff_along_axis(arr, axis, h, deriv, spec):
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    n = a.shape[0]
    hw = spec.half_width
    out = np.full_like(a, np.nan)
    valid = np.ones(n, dtype=bool)
    acc = np.zeros_like(a[hw : n - hw])
    for off, coeff in stencil_taps(deriv, spec.order, hw, n, h, spec.boundary):
        acc = acc + coeff * a[hw + off : n - hw + off]
    out[hw : n - hw] = acc
    for pos in list(range(hw)) + list(range(n - hw, n)):
        taps = stencil_taps(deriv, spec.order, pos, n, h, spec.boundary)
        if taps is None:
            valid[pos] = False
            continue
        acc_b = np.zeros_like(a[pos])
        for off, coeff in taps:
            acc_b = acc_b + coeff * a[pos + off]
        out[pos] = acc_b
    return np.moveaxis(out, 0, axis), valid


def _ref_fd_jet_field(field, frame, spec):
    grid = field.grid
    n, shape = grid.dim, grid.shape
    ttaps = _time_taps(field, spec)[frame]
    cur = field.values[frame]
    grad = np.empty(shape + (n,))
    hess = np.empty(shape + (n, n))
    tmix = np.full(shape + (n,), np.nan)
    dpsi_dt = np.full(shape, np.nan)
    axis_valid = []
    for a in range(n):
        grad[..., a], v1 = _ref_diff_along_axis(cur, a, grid.spacing[a], 1, spec)
        hess[..., a, a], v2 = _ref_diff_along_axis(cur, a, grid.spacing[a], 2, spec)
        axis_valid.append(v1 & v2)
    for a in range(n):
        for b in range(a + 1, n):
            mixed, _ = _ref_diff_along_axis(grad[..., b], a, grid.spacing[a], 1, spec)
            hess[..., a, b] = mixed
            hess[..., b, a] = mixed
    if ttaps is not None:
        acc = np.zeros(shape)
        for off, coeff in ttaps:
            acc = acc + coeff * field.values[frame + off]
        dpsi_dt = acc
        for a in range(n):
            tmix[..., a], _ = _ref_diff_along_axis(dpsi_dt, a, grid.spacing[a], 1, spec)
    # spatial validity NaNs every entry; a frame without a time window has
    # NaN time parts and is valid nowhere
    spatial = np.ones(shape, dtype=bool)
    for a in range(n):
        idx_shape = [1] * n
        idx_shape[a] = shape[a]
        spatial &= axis_valid[a].reshape(idx_shape)
    bad = ~spatial
    grad[bad] = np.nan
    hess[bad] = np.nan
    tmix[bad] = np.nan
    dpsi_dt = np.where(bad, np.nan, dpsi_dt)
    valid = spatial & (ttaps is not None)
    return cur.copy(), dpsi_dt, grad, hess, tmix, valid


def _ref_zero_order(jets):
    n, pt, g = jets.dim, jets.dpsi_dt, jets.grad
    valid = jets.valid & ~((pt == 0.0) & np.all(g == 0.0, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        reciprocal = -(n * g) / pt[..., None]
        components = np.where(
            g != 0.0,
            -(pt[..., None] / n) / g,
            np.where(pt[..., None] != 0.0, np.copysign(np.inf, -pt)[..., None], np.nan),
        )
    reciprocal[~valid] = np.nan
    components[~valid] = np.nan
    return reciprocal, components, valid


def _ref_contraction(reciprocal, components, valid0, valid1):
    valid = valid0 & valid1 & np.all(np.isfinite(reciprocal), axis=-1)
    with np.errstate(invalid="ignore"):
        vals = reduce(np.add, np.moveaxis(reciprocal * components, -1, 0), 0.0)
    return np.where(valid, vals, np.nan), valid


def _ref_pivoted_stack(h, b, ok, eps_singular=EPS_SINGULAR):
    n = h.shape[-1]
    squares = (h * h).reshape(h.shape[:-2] + (n * n,))  # row by row, as the kernel sums
    frob_2 = reduce(np.add, np.moveaxis(squares, -1, 0), 0.0)
    # the root at odd N, then N // 2 factors of ||H||_F ** 2, left to right
    frob_n = reduce(np.multiply, [frob_2] * (n // 2), np.sqrt(frob_2) if n % 2 else 1.0)
    h = np.where(ok[..., None, None], h, np.eye(n))
    det = np.linalg.det(h)
    valid = ok & (abs(det) > eps_singular * frob_n)
    cond = np.divide(frob_n, abs(det), out=np.full(det.shape, np.inf), where=ok & (det != 0.0))
    h[~valid] = np.eye(n)
    b = np.where(valid[..., None], b, np.nan)
    components = np.linalg.solve(h, -b[..., None])[..., 0]
    valid &= np.isfinite(components).all(-1)  # an overflowed solve is not valid
    components[~valid] = np.nan
    return components, valid, cond


def _ref_order_one_field(jets):
    """Unblocked: the eye-substituting solve above N = 3, one Cramer call below."""
    if jets.dim > 3:
        return _ref_pivoted_stack(jets.hessian, jets.time_mixed, jets.valid)
    return _solve_order_one(jets.hessian, jets.time_mixed, jets.valid)


# --------------------------------------------------------------------------
# inputs

SHAPES = {1: (23,), 2: (17, 13), 3: (9, 8, 10), 4: (6, 7, 5, 6), 5: (5, 6, 5, 5, 6)}
TIMES = 0.05 * np.arange(6) - 0.1
SPECS = [wv.StencilSpec(order, boundary) for order in (2, 4)
         for boundary in ("one-sided", "shrink-to-valid")]


def _grid(n):
    shape = SHAPES[n]
    return wv.make_grid(n, shape, 0.2, [-0.1 * (k - 1) + 0.013 for k in shape])


def _field(kind, n):
    rng = np.random.default_rng(n)
    if kind == "translating":
        return wv.TranslatingGaussian(tuple(rng.standard_normal(n)), 0.7,
                                      tuple(0.1 * rng.standard_normal(n)), 1.3)
    if kind == "static":  # psi_t is rounding noise
        return wv.StaticGaussian(0.8, tuple(0.05 * rng.standard_normal(n)), 1.3)
    return wv.PlaneWave(tuple(rng.standard_normal(n)), 2.0, 1.1, 0.2)  # singular Hessians


def _random_jets(n, seed):
    """Random jets on a grid: invalid, zero and signed-zero entries, singular
    and non-finite Hessians."""
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
    b[rng.random(shape) < 0.05, -1] = np.nan
    b[rng.random(shape + (n,)) < 0.1] = -0.0
    pt = rng.standard_normal(shape)
    pt[rng.random(shape) < 0.1] = 0.0
    pt[rng.random(shape) < 0.1] = -0.0
    g = rng.standard_normal(shape + (n,))
    g[rng.random(shape + (n,)) < 0.2] = 0.0
    g[rng.random(shape + (n,)) < 0.2] = -0.0
    g[rng.random(shape) < 0.1] = 0.0
    valid = rng.random(shape) > 0.2
    for arr in (pt, g, h, b):
        arr[~valid] = np.nan
    return wv.JetField(grid, 0.0, None, np.zeros(shape), pt, g, h, b, valid)


# --------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["translating", "static", "plane-wave"])
def test_grid_pipeline_matches_references(n, kind):
    field, grid = _field(kind, n), _grid(n)
    sampled = wv.sample(field, grid, TIMES)
    assert_same_bits(sampled.values, _ref_sample(field, grid, TIMES))
    last = sampled.frames - 1
    for spec in SPECS:
        for frame in (0, 2, last):
            try:
                want = _ref_fd_jet_field(sampled, frame, spec)
            except ValueError:  # axis too short for the one-sided order-4 stencil
                with pytest.raises(ValueError):
                    wv.fd_jet_field(sampled, frame, spec)
                continue
            jets = wv.fd_jet_field(sampled, frame, spec)
            for got, ref in zip((jets.psi, jets.dpsi_dt, jets.grad, jets.hessian,
                                 jets.time_mixed, jets.valid), want):
                assert_same_bits(got, ref)
            v0 = wv.velocity_field(jets, 0)
            r0 = _ref_zero_order(jets)
            for got, ref in zip((v0.reciprocal, v0.components, v0.valid), r0):
                assert_same_bits(got, ref)
            v1 = wv.velocity_field(jets, 1)
            r1 = _ref_order_one_field(jets)
            for got, ref in zip((v1.components, v1.valid, v1.hessian_condition), r1):
                assert_same_bits(got, ref)
            vals, valid = wv.contraction_scalar_field(v0, v1)
            want_vals, want_valid = _ref_contraction(r0[0], r1[0], r0[2], r1[1])
            assert_same_bits(vals, want_vals)
            assert_same_bits(valid, want_valid)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fd_jets_of_signed_zeros_match_reference(n):
    # +0 and -0 samples make stencil sums whose every product is -0; only a
    # sum started from +0.0, as the reference's, gives +0 there
    rng = np.random.default_rng(20 + n)
    grid = _grid(n)
    values = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -2.0], size=(len(TIMES),) + grid.shape)
    sampled = wv.SampledField(grid, 0.0, 0.05, values)
    for spec in SPECS:
        for frame in (0, 3, 5):
            try:
                want = _ref_fd_jet_field(sampled, frame, spec)
            except ValueError:
                continue
            jets = wv.fd_jet_field(sampled, frame, spec)
            for got, ref in zip((jets.psi, jets.dpsi_dt, jets.grad, jets.hessian,
                                 jets.time_mixed, jets.valid), want):
                assert_same_bits(got, ref)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("strip", [1, 7, 64])
def test_fd_jets_in_strips_match_reference(n, strip, monkeypatch):
    # strips this short end inside grid rows and inside the border bands, and
    # signed-zero samples need every strip's sum started from +0.0
    monkeypatch.setattr(wv.findiff, "STRIP_POINTS", strip)
    grid = _grid(n)
    values = np.random.default_rng(30 + n).choice(
        [0.0, -0.0, 0.0, -0.0, 1.0, -2.0], size=(len(TIMES),) + grid.shape)
    for sampled in (wv.sample(_field("translating", n), grid, TIMES),
                    wv.SampledField(grid, 0.0, 0.05, values)):
        last = sampled.frames - 1
        for spec in SPECS:
            for frame in (2, last):
                try:
                    want = _ref_fd_jet_field(sampled, frame, spec)
                except ValueError:  # axis too short for the one-sided order-4 stencil
                    continue
                jets = wv.fd_jet_field(sampled, frame, spec)
                for got, ref in zip((jets.psi, jets.dpsi_dt, jets.grad, jets.hessian,
                                     jets.time_mixed, jets.valid), want):
                    assert_same_bits(got, ref)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("kind", ["translating", "static"])
def test_gaussian_sampling_matches_reference(n, kind):
    # the grid path sums per-axis squares without a point array, left to
    # right as the reference sums a point's components.  Centers sit on
    # grid points and frame 0 is at t = 0 (a -0 shift where a velocity
    # component is negative), so some offsets u_a are exactly 0
    grid = wv.make_grid(n, (5,) * n, 0.25, -0.5)
    rng = np.random.default_rng(50 + n)
    center = tuple(0.25 * rng.integers(-2, 3, n))
    if kind == "translating":
        field = wv.TranslatingGaussian(tuple(rng.standard_normal(n)), 0.7, center, 1.3)
    else:
        field = wv.StaticGaussian(0.8, center, -1.3)
    times = [0.0, 0.05] if n < 9 else [0.05]
    got = wv.sample(field, grid, times).values
    assert_same_bits(got, _ref_sample_rows(field, grid, times))
    if n <= 5:
        assert_same_bits(got, _ref_sample(field, grid, times))
        other = _grid(n)
        assert_same_bits(wv.sample(field, other, TIMES).values, _ref_sample(field, other, TIMES))


@pytest.mark.parametrize("shape", [(23,), (17, 13), (9, 8, 10)])
def test_diff_along_axis_takes_negative_axes(shape):
    x = np.random.default_rng(len(shape)).standard_normal(shape)
    spec = wv.StencilSpec(4, "one-sided")
    for axis in range(-len(shape), 0):
        for got, want in zip(wv.diff_along_axis(x, axis, 0.2, 1, spec),
                             _ref_diff_along_axis(x, axis, 0.2, 1, spec)):
            assert_same_bits(got, want)


def test_static_contraction_sums_from_positive_zero():
    # psi_t is rounding noise on a static field; where every product is -0
    # only a sum started from +0.0, as numpy's is, gives +0
    grid = wv.make_grid(2, (41, 41), 0.125, -2.5)
    jets = wv.fd_jet_field(wv.sample(wv.StaticGaussian(0.8), grid, TIMES), 2)
    v0, v1 = wv.velocity_field(jets, 0), wv.velocity_field(jets, 1)
    vals, valid = wv.contraction_scalar_field(v0, v1)
    r0 = _ref_zero_order(jets)
    want, _ = _ref_contraction(r0[0], v1.components, r0[2], v1.valid)
    assert_same_bits(vals, want)
    with np.errstate(invalid="ignore"):
        products = v0.reciprocal * v1.components
    all_negative_zero = valid & np.all((products == 0.0) & np.signbit(products), axis=-1)
    assert np.any(all_negative_zero)
    assert not np.any(np.signbit(vals[all_negative_zero]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("block", [1, 7, None])
def test_random_jets_match_references(n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(wv.velocities, "BLOCK_POINTS", block)
    jets = _random_jets(n, 40 + n)
    v0 = wv.zero_order_velocity_field(jets)
    r0 = _ref_zero_order(jets)
    for got, ref in zip((v0.reciprocal, v0.components, v0.valid), r0):
        assert_same_bits(got, ref)
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = wv.velocities.first_order_velocity_field(jets)
        r1 = _ref_order_one_field(jets)
    for got, ref in zip((v1.components, v1.valid, v1.hessian_condition), r1):
        assert_same_bits(got, ref)
    vals, valid = wv.contraction_scalar_field(v0, v1)
    want_vals, want_valid = _ref_contraction(r0[0], r1[0], r0[2], r1[1])
    assert_same_bits(vals, want_vals)
    assert_same_bits(valid, want_valid)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pivoted_stack_sees_only_its_points(n):
    jets = _random_jets(n, 60 + n)
    h, b, ok = jets.hessian, jets.time_mixed, jets.valid
    with np.errstate(over="ignore", invalid="ignore"):
        got = _solve_order_one(h, b, ok, pivoted=True)
        want = _ref_pivoted_stack(h, b, ok)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cramer_route_is_block_independent(n, monkeypatch):
    jets = _random_jets(n, 80 + n)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _solve_order_one(jets.hessian, jets.time_mixed, jets.valid)
        for block in (1, 7):
            monkeypatch.setattr(wv.velocities, "BLOCK_POINTS", block)
            v1 = wv.velocities.first_order_velocity_field(jets)
            for g, w in zip((v1.components, v1.valid, v1.hessian_condition), want):
                assert_same_bits(g, w)


@pytest.mark.parametrize("n", list(range(1, 11)))
def test_sum_planes_is_a_left_to_right_sum(n):
    rng = np.random.default_rng(n)
    terms = rng.standard_normal((n, 500)) * 10.0 ** rng.integers(-12, 12, (n, 500))
    terms[:, :50] = -0.0
    terms[rng.random((n, 500)) < 0.1] = -0.0
    want = reduce(np.add, terms, 0.0)
    got = _sum_planes(list(terms.copy()))
    assert_same_bits(got, want)


def test_gaussian_value_at_a_single_point():
    for field in (wv.TranslatingGaussian((0.3, -0.2), 0.9), wv.StaticGaussian(0.9)):
        x = np.array([0.2, 0.1])
        got = field.value(x, 0.4)
        assert np.ndim(got) == 0
        assert_same_bits(got, _ref_value(field, x, 0.4))


# --------------------------------------------------------------------------
# memory


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_sample_holds_one_copy_of_its_output():
    grid = wv.make_grid(2, (64, 64), 0.05, -1.6)
    field = wv.TranslatingGaussian((0.4, 0.3), 0.7)
    sampled, peak = _traced_peak(lambda: wv.sample(field, grid, 0.01 * np.arange(40)))
    assert peak <= 1.5 * sampled.values.nbytes  # a stacked list would hold two copies


@pytest.mark.parametrize("kind", ["translating", "static"])
def test_gaussian_sample_builds_no_point_array(kind):
    # 16^4, 5 frames: the output plus the finiteness mask of SampledField
    # (0.63 frames measured); a point array of N frames put the peak at 6
    # frames over the output
    n = 4
    grid = wv.make_grid(n, (16,) * n, 0.3, -2.25)
    field = (wv.TranslatingGaussian((0.2, 0.3, 0.4, 0.5), 1.2) if kind == "translating"
             else wv.StaticGaussian(1.2, (0.1,) * n))
    sampled, peak = _traced_peak(lambda: wv.sample(field, grid, 0.02 * np.arange(5)))
    assert peak <= sampled.values.nbytes + grid.npoints * 8


@pytest.mark.parametrize("kind", ["translating", "static"])
def test_sample_checks_finiteness_frame_by_frame(kind):
    # 16^4, 5 frames: a finiteness mask of one frame at a time puts the peak
    # 0.14 frames over the output; one mask of every sample put it 0.63
    # frames over
    n = 4
    grid = wv.make_grid(n, (16,) * n, 0.3, -2.25)
    field = (wv.TranslatingGaussian((0.2, 0.3, 0.4, 0.5), 1.2) if kind == "translating"
             else wv.StaticGaussian(1.2, (0.1,) * n))
    sampled, peak = _traced_peak(lambda: wv.sample(field, grid, 0.02 * np.arange(5)))
    assert peak <= sampled.values.nbytes + 0.25 * grid.npoints * 8


def test_order_one_field_peaks_at_output_plus_one_block():
    n = 4
    grid = wv.make_grid(n, (16,) * n, 0.3, -2.25)
    field = wv.TranslatingGaussian((0.2, 0.3, 0.4, 0.5), 1.2)
    jets = wv.fd_jet_field(wv.sample(field, grid, 0.02 * np.arange(5)), 2)
    v1, peak = _traced_peak(lambda: wv.velocities.first_order_velocity_field(jets))
    out = v1.components.nbytes + v1.valid.nbytes + v1.hessian_condition.nbytes
    block = wv.velocities.BLOCK_POINTS * n * n * 8  # one block of Hessians
    assert peak <= out + 2 * block  # 5.1 frames of output; 31 frames unblocked


def test_fd_jet_field_keeps_one_derivative_plane_alive():
    n = 4
    grid = wv.make_grid(n, (16,) * n, 0.3, -2.25)
    field = wv.TranslatingGaussian((0.2, 0.3, 0.4, 0.5), 1.2)
    sampled = wv.sample(field, grid, 0.02 * np.arange(5))
    jets, peak = _traced_peak(lambda: wv.fd_jet_field(sampled, 2))
    frame = grid.npoints * 8
    out = sum(a.nbytes for a in (jets.psi, jets.dpsi_dt, jets.grad, jets.hessian,
                                 jets.time_mixed, jets.valid))
    assert peak <= out + 3.5 * frame  # a plane, a derivative and its scratch
