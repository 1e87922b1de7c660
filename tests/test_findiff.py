"""Finite-difference jet tests: exactness, masks, equivalence, convergence."""

import re
import warnings
from itertools import combinations

import numpy as np
import pytest

import wavevel as wv
from wavevel import findiff
from wavevel.findiff import fornberg_weights, stencil_taps


class TestStencils:
    def test_central_first_derivative_tables(self):
        taps = dict(stencil_taps(1, 2, 5, 11, 1.0, "shrink-to-valid"))
        assert taps == {-1: -0.5, 1: 0.5}
        taps = dict(stencil_taps(1, 4, 5, 11, 1.0, "shrink-to-valid"))
        assert taps == {-2: 1 / 12, -1: -2 / 3, 1: 2 / 3, 2: -1 / 12}

    def test_central_second_derivative_tables(self):
        taps = dict(stencil_taps(2, 2, 5, 11, 1.0, "shrink-to-valid"))
        assert taps == {-1: 1.0, 0: -2.0, 1: 1.0}
        taps = dict(stencil_taps(2, 4, 5, 11, 1.0, "shrink-to-valid"))
        assert taps == {-2: -1 / 12, -1: 4 / 3, 0: -5 / 2, 1: 4 / 3, 2: -1 / 12}

    def test_spacing_scaling(self):
        taps = dict(stencil_taps(2, 2, 5, 11, 0.5, "shrink-to-valid"))
        assert taps == {-1: 4.0, 0: -8.0, 1: 4.0}
        # a tiny step is fine while its taps stay finite
        taps = dict(stencil_taps(1, 2, 5, 11, 1e-200, "shrink-to-valid"))
        assert taps == {-1: -0.5 / 1e-200, 1: 0.5 / 1e-200}

    def test_fornberg_reproduces_central(self):
        assert fornberg_weights([-1, 0, 1], 0.0, 1) == pytest.approx([-0.5, 0, 0.5])
        assert fornberg_weights([-2, -1, 0, 1, 2], 0.0, 1) == pytest.approx(
            [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12]
        )

    def test_one_sided_edge_weights(self):
        # classical forward 5-point order-4 first derivative
        taps = stencil_taps(1, 4, 0, 20, 1.0, "one-sided")
        assert [c for _, c in taps] == pytest.approx([-25 / 12, 4, -3, 4 / 3, -1 / 4])

    def test_shrink_declines_near_edges(self):
        assert stencil_taps(1, 4, 1, 20, 1.0, "shrink-to-valid") is None
        assert stencil_taps(1, 4, 2, 20, 1.0, "shrink-to-valid") is not None

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            stencil_taps(1, 2, 20, 20, 1.0, "one-sided")

    @pytest.mark.parametrize("deriv, pos, h, boundary", [
        (2, 5, 1e-200, "shrink-to-valid"),  # h**2 underflows to 0
        (1, 5, 5e-324, "shrink-to-valid"),  # 1/h overflows
        (2, 5, 1e200, "shrink-to-valid"),  # h**2 overflows
        (2, 0, 1e-200, "one-sided"),  # h**2 underflows to 0
    ])
    def test_out_of_range_step_is_rejected(self, deriv, pos, h, boundary):
        message = f"step {h!r} is out of range for a derivative-{deriv} stencil"
        with pytest.raises(ValueError, match=re.escape(message)):
            stencil_taps(deriv, 4, pos, 11, h, boundary)

    def test_tiny_step_gives_finite_one_sided_taps(self):
        # one-sided taps are integer-offset weights over h**deriv, as the central
        # taps are: at h = 1e-100 they are about 1e100, finite, not rejected
        taps = stencil_taps(1, 4, 0, 20, 1e-100, "one-sided")
        unit = stencil_taps(1, 4, 0, 20, 1.0, "one-sided")
        assert taps == tuple((off, coeff / 1e-100) for off, coeff in unit)
        assert all(np.isfinite(coeff) and abs(coeff) > 1e99 for _, coeff in taps)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            wv.StencilSpec(order=3)
        with pytest.raises(ValueError):
            wv.StencilSpec(boundary="wrap")


def _poly_field():
    # psi = x^2 + 3 x y + 2 t with binary-exact spacings: stencils exact
    f = wv.Polynomial(((1.0, (2, 0), 0), (3.0, (1, 1), 0), (2.0, (0, 0), 1)))
    g = wv.make_grid(2, [9, 9], [0.5, 0.5], [-2.0, -2.0])
    return f, g, wv.sample(f, g, 0.25 * np.arange(5))


class TestFdJet2At:
    def test_polynomial_exact_interior_order2(self):
        _, g, sf = _poly_field()
        spec = wv.StencilSpec(order=2, boundary="one-sided")
        j = wv.fd_jet2_at(sf, 2, (4, 4), spec)
        assert np.array_equal(j.hessian, [[2.0, 3.0], [3.0, 0.0]])
        assert j.dpsi_dt == 2.0
        assert np.array_equal(j.time_mixed, [0.0, 0.0])

    def test_polynomial_exact_at_boundary_one_sided(self):
        f, g, sf = _poly_field()
        spec = wv.StencilSpec(order=2, boundary="one-sided")
        j = wv.fd_jet2_at(sf, 0, (0, 8), spec)
        ref = f.jet2(g.point((0, 8)), sf.time(0))
        assert j.grad == pytest.approx(ref.grad, abs=1e-12)
        assert j.hessian == pytest.approx(ref.hessian, abs=1e-12)

    def test_translating_gaussian_accuracy(self):
        # measured on this configuration; every jet entry within 1e-6 of exact
        f = wv.TranslatingGaussian((0.7, 0.0), 2.0)
        g = wv.make_grid(2, [64, 64], [0.05, 0.05], [-1.575, -1.575])
        sf = wv.sample(f, g, 0.01 * np.arange(5) - 0.02)
        j = wv.fd_jet2_at(sf, 2, (20, 37))
        ref = f.jet2(g.point((20, 37)), sf.time(2))
        assert j.grad == pytest.approx(ref.grad, abs=1e-6)
        assert j.dpsi_dt == pytest.approx(ref.dpsi_dt, abs=1e-6)
        assert j.hessian == pytest.approx(ref.hessian, abs=1e-6)
        assert j.time_mixed == pytest.approx(ref.time_mixed, abs=1e-6)

    def test_single_frame_time_derivative_errors(self):
        f = wv.StaticGaussian(1.0)
        g = wv.make_grid(2, [8, 8], [0.2, 0.2], [-0.7, -0.7])
        sf = wv.sample(f, g, [0.0])
        with pytest.raises(wv.InsufficientFramesError):
            wv.fd_jet2_at(sf, 0, (4, 4), wv.StencilSpec(order=2, boundary="one-sided"))

    def test_index_out_of_range(self):
        _, _, sf = _poly_field()
        with pytest.raises(IndexError):
            wv.fd_jet2_at(sf, 2, (9, 0), wv.StencilSpec(order=2, boundary="one-sided"))

    def test_shrink_returns_none_at_boundary(self):
        _, _, sf = _poly_field()
        assert wv.fd_jet2_at(sf, 2, (0, 4), wv.StencilSpec(4, "shrink-to-valid")) is None
        assert wv.fd_jet2_at(sf, 0, (4, 4), wv.StencilSpec(4, "shrink-to-valid")) is None


class TestFdJetField:
    def test_shrink_mask_is_interior(self):
        f = wv.TranslatingGaussian((0.7, 0.0), 1.0)
        g = wv.make_grid(2, [64, 64], [0.05, 0.05], [-1.575, -1.575])
        sf = wv.sample(f, g, 0.01 * np.arange(5))
        jf = wv.fd_jet_field(sf, 2)
        assert jf.valid.sum() == 60 * 60
        assert jf.valid[2:-2, 2:-2].all()
        assert not jf.valid[:2].any() and not jf.valid[:, :2].any()

    def test_one_sided_mask_all_true(self):
        f = wv.TranslatingGaussian((0.7, 0.0), 1.0)
        g = wv.make_grid(2, [16, 16], [0.1, 0.1], [-0.75, -0.75])
        sf = wv.sample(f, g, 0.02 * np.arange(5))
        jf = wv.fd_jet_field(sf, 2, wv.StencilSpec(order=4, boundary="one-sided"))
        assert jf.valid.all()
        jf2 = wv.fd_jet_field(sf, 2, wv.StencilSpec(order=2, boundary="one-sided"))
        assert jf2.valid.all()

    @pytest.mark.parametrize("frame", (0, 1, 4))
    def test_end_frame_has_spatial_jets_and_no_velocity(self, frame):
        # an end frame of shrink-to-valid has no time window: the gradient
        # and the Hessian are there, the time parts NaN and no point valid,
        # so neither velocity can read a zero psi_t as "not moving"
        f = wv.TranslatingGaussian((0.7, 0.0), 0.5)
        g = wv.make_grid(2, [28, 28], [0.05, 0.05], [-0.675, -0.675])
        sf = wv.sample(f, g, 0.01 * np.arange(5))
        end = wv.fd_jet_field(sf, frame)
        interior = wv.fd_jet_field(sf, 2).valid
        assert interior.sum() == 24 * 24
        # the spatial jets of the same values at a timed frame, bit for bit
        still = wv.SampledField(g, 0.0, 0.01, np.repeat(sf.values[frame:frame + 1], 5, axis=0))
        ref = wv.fd_jet_field(still, 2)
        for got, want in ((end.grad, ref.grad), (end.hessian, ref.hessian)):
            assert np.isfinite(got[interior]).all() and np.isnan(got[~interior]).all()
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isnan(end.dpsi_dt).all() and np.isnan(end.time_mixed).all()
        assert not end.valid.any()
        v0, v1 = wv.velocity_field(end, 0), wv.velocity_field(end, 1)
        assert not v0.valid.any() and np.isnan(v0.components).all()
        assert not v1.valid.any() and np.isnan(v1.components).all()
        values, valid = wv.contraction_scalar_field(v0, v1)
        assert not valid.any() and np.isnan(values).all()
        assert wv.fd_jet2_at(sf, frame, (14, 14)) is None

    def test_static_field_time_entries_vanish(self):
        f = wv.StaticGaussian(1.0)
        g = wv.make_grid(2, [12, 12], [0.15, 0.15], [-0.8, -0.8])
        sf = wv.sample(f, g, 0.1 * np.arange(5))
        jf = wv.fd_jet_field(sf, 2)
        m = jf.valid
        assert np.abs(jf.dpsi_dt[m]).max() < 1e-14
        assert np.abs(jf.time_mixed[m]).max() < 1e-14

    def test_matches_pointwise_bitwise(self):
        # every frame of a 7-frame field (the end frames take one-sided time taps
        # or have no time window), N = 1-4 on axes of at least 6 points (a
        # one-sided order-4 second derivative needs 6), both orders and
        # boundaries; every point for N <= 2, the corners and a sample above
        shapes = {1: (9,), 2: (8, 7), 3: (6, 7, 6), 4: (6, 6, 7, 6)}
        specs = [wv.StencilSpec(order, boundary) for order in (2, 4)
                 for boundary in ("one-sided", "shrink-to-valid")]
        rng = np.random.default_rng(2)

        def bits(x):
            return np.asarray(x, dtype=float).view(np.uint64)

        for n, shape in shapes.items():
            grid = wv.make_grid(n, shape, (0.11, 0.09, 0.13, 0.07)[:n], -0.3)
            values = rng.standard_normal((7,) + shape)
            values[3, (0,) * n] = -0.0  # signed zeros sum from +0.0 on both paths
            sf = wv.SampledField(grid, 0.1, 0.03, values)
            points = list(np.ndindex(shape))
            if n > 2:
                corners = [tuple(k * (m - 1) for k, m in zip(c, shape))
                           for c in np.ndindex((2,) * n)]
                sample = rng.choice(len(points), 24, replace=False)
                points = corners + [points[i] for i in sample]
            for spec in specs:
                for frame in range(7):
                    jf = wv.fd_jet_field(sf, frame, spec)
                    for idx in points:
                        j = wv.fd_jet2_at(sf, frame, idx, spec)
                        assert (j is None) == (not jf.valid[idx]), (n, spec, frame, idx)
                        if j is None:
                            continue
                        ref = jf.jet2_at(idx)
                        for name in ("psi", "dpsi_dt", "grad", "hessian", "time_mixed"):
                            got, want = getattr(j, name), getattr(ref, name)
                            assert np.array_equal(bits(got), bits(want)), (n, spec, frame, idx)

    def test_mixed_partials_stored_symmetric(self):
        f = wv.TranslatingGaussian((0.7, 0.3), 1.0)
        g = wv.make_grid(2, [12, 12], [0.1, 0.1], [-0.55, -0.55])
        sf = wv.sample(f, g, 0.02 * np.arange(5))
        jf = wv.fd_jet_field(sf, 2)
        assert np.array_equal(
            jf.hessian[jf.valid][:, 0, 1], jf.hessian[jf.valid][:, 1, 0]
        )

    def test_time_space_commutation(self):
        # d/dxi of d/dt equals d/dt of d/dxi to 1e-12 relative
        f = wv.TranslatingGaussian((0.7, 0.3), 1.0)
        g = wv.make_grid(2, [24, 24], [0.1, 0.1], [-1.15, -1.15])
        sf = wv.sample(f, g, 0.02 * np.arange(5))
        spec = wv.StencilSpec(order=4, boundary="one-sided")
        taps = stencil_taps(1, 4, 2, 5, sf.dt, "one-sided")
        dpsi_dt = np.zeros(g.shape)
        for off, c in taps:
            dpsi_dt = dpsi_dt + c * sf.values[2 + off]
        t_then_x, _ = wv.diff_along_axis(dpsi_dt, 0, 0.1, 1, spec)
        per_frame = np.stack(
            [wv.diff_along_axis(sf.values[m], 0, 0.1, 1, spec)[0] for m in range(5)]
        )
        x_then_t = np.zeros(g.shape)
        for off, c in taps:
            x_then_t = x_then_t + c * per_frame[2 + off]
        rel = np.abs(t_then_x - x_then_t).max() / np.abs(t_then_x).max()
        assert rel <= 1e-12


class TestFdJetFields:
    SHAPES = {1: (23,), 2: (17, 13), 3: (9, 8, 10), 4: (6, 7, 6, 6)}

    @pytest.mark.parametrize("cut", (False, True))
    @pytest.mark.parametrize("boundary", ("one-sided", "shrink-to-valid"))
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_runs_equal_single_frames_bitwise(self, n, order, boundary, cut):
        # cut: the run is computed on the frames +- order only, as tracking
        # cuts its sub-fields; every run frame keeps the whole field's jets
        shape = self.SHAPES[n]
        grid = wv.make_grid(n, shape, 0.2, -0.3)
        values = np.random.default_rng(n).standard_normal((9,) + shape)
        values[4] = -0.0  # signed zeros sum from +0.0 in both paths
        sf = wv.SampledField(grid, 0.1, 0.03, values)
        spec = wv.StencilSpec(order, boundary)
        names = ("psi", "dpsi_dt", "grad", "hessian", "time_mixed", "valid")
        for frames in (range(9), range(0, 3), range(2, 7), range(6, 9), range(8, 9)):
            first = max(frames.start - order, 0) if cut else 0
            stop = min(frames.stop + order, 9) if cut else 9
            sub = wv.SampledField(grid, sf.time(first), sf.dt, values[first:stop])
            run = wv.fd_jet_stacks(sub, range(frames.start - first, frames.stop - first), spec)
            assert all(len(stack) == len(frames) for stack in run.values())
            for k, frame in enumerate(frames):
                one = wv.fd_jet_field(sf, frame, spec)
                if not cut:
                    assert sub.time(frame - first) == one.t
                for name in names:
                    got, want = run[name][k], getattr(one, name)
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(np.uint64) if got.dtype.kind == "f" else got,
                                          want.view(np.uint64) if want.dtype.kind == "f" else want)

    def test_frames_share_planes_first_buffers(self):
        _, g, sf = _poly_field()
        run = wv.fd_jet_stacks(sf, range(1, 4))
        grad, hess = run["grad"], run["hessian"]
        for k in range(3):
            for a in range(2):
                assert grad[k, ..., a].flags.c_contiguous
                for b in range(2):
                    assert hess[k, ..., a, b].flags.c_contiguous
            assert grad[k].base is grad[0].base
            assert grad[k].base.shape == (2, 3) + g.shape
            assert hess[k].base is hess[0].base
            assert hess[k].base.shape == (2, 2, 3) + g.shape

    def test_overflow_clears_valid(self):
        # finite samples near 1e308 overflow in the stencil sums near them;
        # those jets are not valid, and every other interior jet still is
        g = wv.make_grid(2, (16, 16), 0.05, 0.0)
        values = np.random.default_rng(3).standard_normal((5, 16, 16))
        interior = wv.fd_jet_field(wv.SampledField(g, 0.0, 0.01, values), 2).valid
        values[:, :5, :5] = 1e308
        jets = wv.fd_jet_field(wv.SampledField(g, 0.0, 0.01, values), 2)
        finite = (np.isfinite(jets.dpsi_dt) & np.isfinite(jets.grad).all(-1)
                  & np.isfinite(jets.time_mixed).all(-1) & np.isfinite(jets.hessian).all((-2, -1)))
        assert np.array_equal(jets.valid, interior & finite)
        assert 0 < np.count_nonzero(jets.valid) < np.count_nonzero(interior)

    def test_pointwise_overflow_gives_no_jet(self):
        # fd_jet2_at used to warn and then raise "jet entries must be finite"
        # where fd_jet_field marks the point invalid; now both give no jet
        g = wv.make_grid(2, (16, 16), 0.05, 0.0)
        wave = wv.make_field("plane-wave", wave_vector=[2.0, 1.0], angular_frequency=3.0,
                             amplitude=1e308)
        values = np.random.default_rng(3).standard_normal((5, 16, 16))
        values[:, :5, :5] = 1e308
        for field in (wv.sample(wave, g, 0.01 * np.arange(5)),
                      wv.SampledField(g, 0.0, 0.01, values)):
            valid = wv.fd_jet_field(field, 2).valid
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = np.array([wv.fd_jet2_at(field, 2, idx) is not None
                                for idx in np.ndindex(g.shape)]).reshape(g.shape)
            assert np.array_equal(got, valid)
        assert wv.fd_jet2_at(wv.sample(wave, g, 0.01 * np.arange(5)), 2, (8, 8)) is None
        assert 0 < np.count_nonzero(valid) < g.npoints

    def test_frame_range_checked(self):
        _, g, sf = _poly_field()
        assert all(len(stack) == 0 for stack in wv.fd_jet_stacks(sf, range(2, 2)).values())
        with pytest.raises(IndexError):
            wv.fd_jet_stacks(sf, range(3, 6))
        with pytest.raises(IndexError):
            wv.fd_jet_stacks(sf, range(-1, 2))
        with pytest.raises(ValueError):
            wv.fd_jet_stacks(sf, range(0, 5, 2))
        with pytest.raises(wv.InsufficientFramesError):
            wv.fd_jet_stacks(wv.SampledField(g, 0.0, 0.1, sf.values[:3]), range(1, 2))

    @pytest.mark.parametrize("overflow", (False, True))
    @pytest.mark.parametrize("boundary", ("one-sided", "shrink-to-valid"))
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_stacks_equal_jet_fields_for_every_name_subset(self, n, order, boundary, overflow,
                                                           monkeypatch):
        shape = self.SHAPES[n]
        grid = wv.make_grid(n, shape, 0.2, -0.3)
        values = np.random.default_rng(n).standard_normal((9,) + shape)
        if overflow:  # finite samples whose stencil sums overflow near them
            values[(slice(None),) + (slice(0, 2),) * n] = 1e308
        sf = wv.SampledField(grid, 0.1, 0.03, values)
        spec = wv.StencilSpec(order, boundary)
        # every point where the spatial stencils apply, on every frame
        inside = np.ones((1,) + shape, dtype=bool)
        for a, size in enumerate(shape):
            ok = [stencil_taps(1, order, i, size, 0.2, boundary) is not None for i in range(size)]
            inside &= np.reshape(ok, (1,) * (a + 1) + (size,) + (1,) * (n - a - 1))
        parts = ("dpsi_dt", "grad", "hessian", "time_mixed")
        calls = []
        diff_into = findiff._diff_into
        monkeypatch.setattr(findiff, "_diff_into",
                            lambda *args: calls.append(args) or diff_into(*args))
        # all frames (the end frames of shrink-to-valid have no time window) and a few
        for frames in (range(9), range(1, 4)):
            full = [wv.fd_jet_field(sf, frame, spec) for frame in frames]
            want = {name: np.stack([getattr(jets, name) for jets in full])
                    for name in ("psi", *parts, "valid")}
            for names in (c for k in range(len(parts) + 1) for c in combinations(parts, k)):
                calls.clear()
                got = wv.fd_jet_stacks(sf, frames, spec, names)
                assert set(got) == {"psi", "valid", *names}
                for name in ("psi", *names):
                    assert got[name].shape == want[name].shape
                    assert np.array_equal(got[name].view(np.uint64), want[name].view(np.uint64))
                # valid covers the computed parts: where the spatial stencils apply
                # and every requested part is finite
                valid = np.broadcast_to(inside, (len(frames),) + shape)
                for name in names:
                    valid = valid & np.isfinite(want[name]).reshape(len(frames), *shape, -1).all(-1)
                assert np.array_equal(got["valid"], valid)
                if len(names) == len(parts):
                    assert np.array_equal(got["valid"], want["valid"])
                # no mixed time pass without time_mixed: N of the diagonal, mixed
                # Hessian and mixed time passes are the mixed time rows
                passes = {"grad": n, "hessian": n + n * (n - 1) // 2, "time_mixed": n}
                spatial = n if "hessian" in names and "grad" not in names else 0
                assert len(calls) == spatial + sum(passes.get(name, 0) for name in names)
        if overflow:
            assert 0 < np.count_nonzero(want["valid"]) < np.count_nonzero(inside) * len(frames)

    def test_stacks_reject_unknown_parts(self):
        _, _, sf = _poly_field()
        with pytest.raises(ValueError, match=r"unknown jet parts \['gradient'\]"):
            wv.fd_jet_stacks(sf, range(1, 3), names=("gradient",))
        empty = wv.fd_jet_stacks(sf, range(2, 2), names=("grad",))
        assert set(empty) == {"psi", "grad", "valid"} and empty["grad"].shape[0] == 0



class TestFdJetsAt:
    """The stacked pointwise kernel: fd_jet2_at's stencil sums at a stack of
    (frame, grid index) points, bit for bit the grid pass's entries."""

    SHAPES = TestFdJetFields.SHAPES
    PARTS = ("dpsi_dt", "grad", "hessian", "time_mixed")
    LEVEL = ("grad", "hessian", "dpsi_dt")  # what a level track reads

    @staticmethod
    def _field(n, shape, overflow=False):
        values = np.random.default_rng(n).standard_normal((9,) + shape)
        values[4, (0,) * n] = -0.0  # signed zeros sum from +0.0 on both paths
        if overflow:  # finite samples whose stencil sums overflow near them
            values[(slice(None),) + (slice(0, 2),) * n] = 1e308
        return wv.SampledField(wv.make_grid(n, shape, (0.2, 0.15, 0.25, 0.1)[:n], -0.3), 0.1,
                               0.03, values)

    @pytest.mark.parametrize("overflow", (False, True))
    @pytest.mark.parametrize("boundary", ("one-sided", "shrink-to-valid"))
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_stack_equals_grid_pass_at_every_point(self, n, order, boundary, overflow):
        # every point of every frame (the end frames take one-sided time taps or
        # have no time window), shuffled, some of them twice
        shape = self.SHAPES[n]
        sf = self._field(n, shape, overflow)
        spec = wv.StencilSpec(order, boundary)
        rng = np.random.default_rng(10 * n + order)
        points = np.array([(f, *idx) for f in range(9) for idx in np.ndindex(shape)])
        order_ = rng.permutation(len(points))
        points = points[np.concatenate((order_, order_[: len(points) // 5]))]
        at = tuple(points.T)
        for names in ((), ("time_mixed",), self.LEVEL, self.PARTS):
            want = wv.fd_jet_stacks(sf, range(9), spec, names)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # an overflow is quiet
                got = wv.fd_jets_at(sf, points[:, 0], points[:, 1:], spec, names)
            assert set(got) == {"psi", "valid", *names}
            for name in ("psi", *names):
                assert got[name].shape == (len(points),) + want[name].shape[1 + n:]
                assert got[name].flags.c_contiguous
                assert np.array_equal(got[name].view(np.uint64), want[name][at].view(np.uint64))
            assert np.array_equal(got["valid"], want["valid"][at])
        if overflow:
            assert not got["valid"].all() and not np.isfinite(want["hessian"]).all()

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_empty_stack(self, n):
        sf = self._field(n, self.SHAPES[n])
        got = wv.fd_jets_at(sf, np.empty(0, dtype=int), np.empty((0, n), dtype=int),
                            names=self.LEVEL)
        assert set(got) == {"psi", "valid", *self.LEVEL}
        assert got["grad"].shape == (0, n) and got["hessian"].shape == (0, n, n)
        assert got["psi"].shape == got["dpsi_dt"].shape == got["valid"].shape == (0,)

    def test_bad_requests(self):
        sf = self._field(2, self.SHAPES[2])
        frames, indices = np.array([4, 5]), np.array([[3, 3], [4, 6]])
        with pytest.raises(ValueError, match=r"unknown jet parts \['gradient'\]"):
            wv.fd_jets_at(sf, frames, indices, names=("gradient",))
        with pytest.raises(ValueError, match=r"indices \(R, 2\)"):
            wv.fd_jets_at(sf, frames, indices[:, :1])
        for bad_frames, bad_indices in (([4, 9], indices), (frames, [[3, 3], [4, 13]]),
                                        (frames, [[-1, 3], [4, 6]])):
            with pytest.raises(IndexError, match="out of range"):
                wv.fd_jets_at(sf, bad_frames, bad_indices)
        with pytest.raises(wv.InsufficientFramesError):
            wv.fd_jets_at(wv.SampledField(sf.grid, 0.0, 0.1, sf.values[:3]), [1], [[3, 3]],
                          names=("grad",))

    def test_strips_keep_every_bit(self, monkeypatch):
        # every point of every frame again, each group summed in strips of 2 points
        sf = self._field(2, self.SHAPES[2])
        points = np.array([(f, *idx) for f in range(9) for idx in np.ndindex(self.SHAPES[2])])
        want = wv.fd_jets_at(sf, points[:, 0], points[:, 1:])
        monkeypatch.setattr(findiff, "STRIP_POINTS", 50)  # 50 // (4 + 1)**2 points a strip
        got = wv.fd_jets_at(sf, points[:, 0], points[:, 1:])
        for name, arr in want.items():
            assert np.array_equal(got[name].view(np.uint8), arr.view(np.uint8))

    def test_computes_only_the_requested_parts(self, monkeypatch):
        # interior points of one frame share their taps: one sum an entry, the
        # mixed entries' inner sums at once (one nested call each)
        sf = self._field(2, self.SHAPES[2])
        calls = []
        apply_taps = findiff._apply_taps_pointwise
        monkeypatch.setattr(findiff, "_apply_taps_pointwise",
                            lambda *args: calls.append(args[2]) or apply_taps(*args))
        frames, indices = np.full(5, 4), np.array([(k + 2, k + 3) for k in range(5)])
        st, s0, s1 = (stride // 8 for stride in sf.values.strides)
        for names, strides in ((("grad",), [s0, s1]), (("dpsi_dt",), [st]),
                               (self.LEVEL, [s0, s1, s0, s1, s0, s1, st]),
                               (("time_mixed",), [s0, st, s1, st])):
            calls.clear()
            wv.fd_jets_at(sf, frames, indices, names=names)
            assert sorted(calls) == sorted(strides)


CONVERGENCE_CASES = [
    ("plane-wave", wv.PlaneWave((2.0, 1.0), 3.0), (-1.6, 1.6)),
    ("translating-gaussian", wv.TranslatingGaussian((0.7, 0.3), 1.0), (-1.6, 1.6)),
    ("static-gaussian", wv.StaticGaussian(1.0), (-1.6, 1.6)),
    ("ring", wv.ExpandingGaussianRing(0.3, 0.5, radius0=1.2), (0.35, 2.35)),
    (
        "polynomial",
        wv.Polynomial(
            (
                (0.3, (6, 0), 0),
                (0.2, (0, 6), 0),
                (0.1, (5, 2), 0),
                (0.05, (2, 0), 5),
                (1.0, (1, 1), 1),
            )
        ),
        (-1.0, 1.0),
    ),
]


def _max_component_errors(field, lo, hi, npts, order):
    h = (hi - lo) / (npts - 1)
    grid = wv.make_grid(2, [npts, npts], h, lo)
    dt = 0.2 * h
    frames = 5
    times = 0.3 + dt * (np.arange(frames) - frames // 2)
    sf = wv.sample(field, grid, times)
    jf = wv.fd_jet_field(sf, frames // 2, wv.StencilSpec(order, "shrink-to-valid"))
    ja = wv.analytic_jet_field(field, grid, sf.time(frames // 2))
    # fixed interior box shared by all refinements
    pts = grid.points()
    margin = 0.12 * (hi - lo)
    box = np.all((pts >= lo + margin) & (pts <= hi - margin), axis=-1) & jf.valid
    return {
        "dpsi_dt": np.abs(jf.dpsi_dt - ja.dpsi_dt)[box].max(),
        "grad": np.abs(jf.grad - ja.grad)[box].max(),
        "hess": np.abs(jf.hessian - ja.hessian)[box].max(),
        "tmix": np.abs(jf.time_mixed - ja.time_mixed)[box].max(),
    }


@pytest.mark.parametrize("frame", [2, 0], ids=["central-frame", "edge-frame"])
def test_one_sided_boundary_keeps_the_order(frame):
    # whole-domain errors, boundary bands and one-sided time windows included
    bump = wv.TranslatingGaussian((0.7, 0.3), 1.0)
    spec = wv.StencilSpec(order=4, boundary="one-sided")

    def errs(npts, h):
        g = wv.make_grid(2, (npts, npts), h, -1.6)
        dt = 0.2 * h
        f = wv.sample(bump, g, 0.3 + dt * (np.arange(5) - 2))
        jf = wv.fd_jet_field(f, frame, spec)
        ja = wv.analytic_jet_field(bump, g, f.time(frame))
        assert jf.valid.all()
        return {
            "dpsi_dt": np.abs(jf.dpsi_dt - ja.dpsi_dt).max(),
            "grad": np.abs(jf.grad - ja.grad).max(),
            "hess": np.abs(jf.hessian - ja.hessian).max(),
            "tmix": np.abs(jf.time_mixed - ja.time_mixed).max(),
        }

    seq = [errs(n, h) for n, h in ((33, 0.1), (65, 0.05), (129, 0.025))]
    for comp in ("dpsi_dt", "grad", "hess", "tmix"):
        e = [s[comp] for s in seq]
        for e1, e2 in zip(e, e[1:]):
            assert np.log2(e1 / e2) >= 3.8, (frame, comp, e)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name,field,bounds", CONVERGENCE_CASES, ids=lambda c: str(c))
def test_convergence_order(name, field, bounds, order):
    lo, hi = bounds
    errors = [_max_component_errors(field, lo, hi, npts, order) for npts in (33, 65, 129)]
    floor = 1e-11  # rounding scale for unit-magnitude fields; exact components sit below
    for comp in ("dpsi_dt", "grad", "hess", "tmix"):
        seq = [e[comp] for e in errors]
        for e1, e2 in zip(seq, seq[1:]):
            if e1 < floor and e2 < floor:
                continue  # exact on this component (zero or below rounding)
            observed = np.log2(e1 / e2)
            assert observed >= order - 0.2, (name, order, comp, seq)


def test_psi_is_a_read_only_view_of_the_frame():
    field = _poly_field()[2]
    psi = wv.fd_jet_stacks(field, range(1, 4))["psi"]
    for k, frame in enumerate(range(1, 4)):
        assert np.shares_memory(psi[k], field.values[frame])
        assert np.array_equal(psi[k], field.values[frame])
        with pytest.raises(ValueError):
            psi[k][0, 0] = 1.0
    jets = wv.fd_jet_field(field, 2)
    assert np.shares_memory(jets.psi, field.values[2]) and not jets.psi.flags.writeable
