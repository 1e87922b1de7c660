"""Velocity formula tests: worked cases, defining identities, dual routes."""

import tracemalloc
import warnings

import numpy as np
import pytest

import wavevel as wv
from wavevel.velocities import _order_zero, _solve_order_one


#: The coordinate of node 12 on the axes of ``TestVelocityFields._jets``.
NODE = -1.15 + 0.1 * 12


def _assert_same_bits(got, want):
    """Equal values, signs of zero and NaN positions (NaN sign bits are not compared)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _plane_wave_jet(point=(0.3, 0.7), t=0.11):
    return wv.PlaneWave((2.0, 1.0), 3.0).jet2(np.asarray(point, dtype=float), t)


def _gaussian_jet(point=(0.1, 0.2), t=0.0, c=(0.7, 0.0)):
    return wv.TranslatingGaussian(c, 1.0).jet2(np.asarray(point, dtype=float), t)


class TestZeroOrder:
    def test_plane_wave_components(self):
        # v_i = omega / (N k_i), independent of the phase
        v0 = wv.zero_order_velocity(_plane_wave_jet())
        assert v0.components == pytest.approx([0.75, 1.5], rel=1e-14)

    def test_translating_gaussian_components(self):
        # v_x = c/2; v_y = c*u / (2 y) with u=0.1, y=0.2
        v0 = wv.zero_order_velocity(_gaussian_jet())
        assert v0.components == pytest.approx([0.35, 0.175], rel=1e-14)

    def test_static_field_zero_components(self):
        jet = wv.StaticGaussian(1.0).jet2(np.array([0.3, 0.4]), 0.0)
        v0 = wv.zero_order_velocity(jet)
        assert np.array_equal(v0.components, [0.0, 0.0])

    def test_pole_axis(self):
        # psi_y = 0 with psi_t != 0: infinite component, zero reciprocal
        jet = wv.Jet1(0.0, -3.0, np.array([2.0, 0.0]))
        v0 = wv.zero_order_velocity(jet)
        assert v0.components[1] == np.inf  # sign of -psi_t
        assert v0.reciprocal[1] == 0.0
        assert np.isfinite(v0.components[0])
        jet = wv.Jet1(0.0, 3.0, np.array([2.0, 0.0]))
        assert wv.zero_order_velocity(jet).components[1] == -np.inf

    @pytest.mark.parametrize("dpsi_dt, grad, infinite", [
        (1e300, (1e-300, 2.0), "components"),  # -(psi_t / N) / psi_x overflows
        (1e-300, (3e10, 2.0), "reciprocal"),  # -N psi_x / psi_t overflows
    ])
    def test_overflowing_ratio_is_infinite_without_warning(self, dpsi_dt, grad, infinite):
        # a point and a stack of it give the same bits; the stack warned
        jet = wv.Jet1(0.0, dpsi_dt, np.array(grad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v0 = wv.zero_order_velocity(jet)
            reciprocal, components, valid = _order_zero(jet.grad[None], np.array([dpsi_dt]))
        assert valid.tolist() == [True] and getattr(v0, infinite)[0] == -np.inf
        _assert_same_bits(v0.reciprocal, reciprocal[0])
        _assert_same_bits(v0.components, components[0])

    def test_stationary_degenerate_raises(self):
        jet = wv.Jet1(0.5, 0.0, np.array([0.0, 0.0]))
        with pytest.raises(wv.StationaryDegenerateError):
            wv.zero_order_velocity(jet)

    def test_reciprocal_product_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            jet = wv.Jet1(0.0, rng.standard_normal() + 2.0, rng.standard_normal(n))
            v0 = wv.zero_order_velocity(jet)
            nz = v0.reciprocal != 0.0
            prod = v0.components[nz] * v0.reciprocal[nz]
            assert prod == pytest.approx(np.ones(nz.sum()), rel=1e-14)
            assert np.array_equal(v0.reciprocal == 0.0, np.isinf(v0.components))

    def test_defining_identity(self):
        # sum_i psi_xi v_i = -psi_t regardless of dimension
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            jet = wv.Jet1(0.0, rng.standard_normal(), rng.standard_normal(n))
            v0 = wv.zero_order_velocity(jet)
            lhs = jet.grad @ v0.components
            assert lhs == pytest.approx(-jet.dpsi_dt, rel=1e-12)

    def test_implied_coefficients_are_uniform(self):
        jet = _plane_wave_jet()
        v0 = wv.zero_order_velocity(jet)
        coeffs = -v0.components * jet.grad / jet.dpsi_dt
        assert coeffs == pytest.approx([0.5, 0.5], rel=1e-13)
        assert coeffs.sum() == pytest.approx(1.0, rel=1e-13)

    def test_any_coefficient_family_satisfies_identity(self):
        # the per-axis split is ambiguous: any weights summing to 1 work
        rng = np.random.default_rng(13)
        jet = _gaussian_jet(point=(0.4, -0.3))
        for _ in range(50):
            c = rng.standard_normal(2)
            c[1] = 1.0 - c[0]
            v = -c * jet.dpsi_dt / jet.grad
            assert jet.grad @ v == pytest.approx(-jet.dpsi_dt, rel=1e-12)


class TestFirstOrder2d:
    def test_translating_gaussian_gives_c(self):
        v1 = wv.first_order_velocity_2d(_gaussian_jet())
        assert v1.valid
        assert v1.components == pytest.approx([0.7, 0.0], abs=1e-14)

    def test_plane_wave_rank_one_invalid(self):
        v1 = wv.first_order_velocity_2d(_plane_wave_jet())
        assert not v1.valid
        assert np.all(np.isnan(v1.components))

    def test_static_invertible_hessian_zero_velocity(self):
        # off-center, off the inflection ring u^2 + y^2 = sigma^2 / 2
        jet = wv.StaticGaussian(1.0).jet2(np.array([0.2, 0.1]), 0.0)
        v1 = wv.first_order_velocity_2d(jet)
        assert v1.valid
        assert np.array_equal(v1.components, [0.0, 0.0])

    def test_dim_checked(self):
        jet3 = wv.TranslatingGaussian((0.7, 0, 0), 1.0).jet2(np.array([0.1, 0.2, 0.0]), 0.0)
        with pytest.raises(ValueError):
            wv.first_order_velocity_2d(jet3)


class TestFirstOrder3d:
    def test_translating_gaussian_gives_c(self):
        f = wv.TranslatingGaussian((0.7, 0.0, 0.0), 1.0)
        jet = f.jet2(np.array([0.1, 0.2, -0.1]), 0.0)
        v1 = wv.first_order_velocity_3d(jet)
        assert v1.valid
        assert v1.components == pytest.approx([0.7, 0.0, 0.0], abs=1e-14)

    def test_static_zero(self):
        f = wv.StaticGaussian(1.0, center=(0.0, 0.0, 0.0))
        v1 = wv.first_order_velocity_3d(f.jet2(np.array([0.2, 0.1, 0.05]), 0.0))
        assert v1.valid
        assert np.array_equal(v1.components, [0.0, 0.0, 0.0])

    def test_singular_point_found_by_bracketing(self):
        # scan the Hessian determinant along a ray for a sign change, then
        # bisect the bracket to its last bit: the jet there must be flagged invalid
        f = wv.StaticGaussian(1.0, center=(0.0, 0.0, 0.0))

        def det_along_ray(r):
            jet = f.jet2(np.array([r, 0.1, 0.05]), 0.0)
            return float(np.linalg.det(jet.hessian))

        lo, hi = 0.1, 1.2
        assert det_along_ray(lo) * det_along_ray(hi) < 0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if (det_along_ray(mid) > 0) == (det_along_ray(lo) > 0):
                lo = mid
            else:
                hi = mid
        r_star = lo if abs(det_along_ray(lo)) <= abs(det_along_ray(hi)) else hi
        jet = f.jet2(np.array([r_star, 0.1, 0.05]), 0.0)
        v1 = wv.first_order_velocity_3d(jet)
        assert not v1.valid

    def test_matches_nd_route(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            h = rng.standard_normal((3, 3))
            h = 0.5 * (h + h.T) + 3.0 * np.eye(3)
            jet = wv.Jet2(wv.Jet1(0.0, 0.0, rng.standard_normal(3)), h, rng.standard_normal(3))
            a = wv.first_order_velocity_3d(jet)
            b = wv.first_order_velocity_nd(jet)
            assert a.components == pytest.approx(b.components, rel=1e-12)


class TestFirstOrderNd:
    def test_scalar_case(self):
        jet = wv.Jet2(wv.Jet1(0.0, 0.0, np.array([1.0])), np.array([[2.0]]), np.array([-1.0]))
        v1 = wv.first_order_velocity_nd(jet)
        assert v1.valid
        assert v1.components == pytest.approx([0.5])

    def test_matches_2d_route(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            h = rng.standard_normal((2, 2))
            h = 0.5 * (h + h.T) + 2.5 * np.eye(2)
            jet = wv.Jet2(wv.Jet1(0.0, 0.0, rng.standard_normal(2)), h, rng.standard_normal(2))
            a = wv.first_order_velocity_2d(jet)
            b = wv.first_order_velocity_nd(jet)
            assert a.components == pytest.approx(b.components, rel=1e-12)

    def test_four_dimensional_advection(self):
        c = (0.7, -0.2, 0.4, 0.1)
        f = wv.TranslatingGaussian(c, 1.0)
        jet = f.jet2(np.array([0.1, 0.05, -0.1, 0.2]), 0.0)
        v1 = wv.first_order_velocity_nd(jet)
        assert v1.valid
        assert v1.components == pytest.approx(c, abs=1e-13)

    def test_defining_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            h = rng.standard_normal((n, n))
            h = 0.5 * (h + h.T)
            tm = rng.standard_normal(n)
            jet = wv.Jet2(wv.Jet1(0.0, 0.0, rng.standard_normal(n)), h, tm)
            v1 = wv.first_order_velocity_nd(jet)
            if not v1.valid:
                continue
            resid = np.abs(jet.hessian @ v1.components + tm).max()
            scale = np.linalg.norm(h) * np.linalg.norm(v1.components) + np.linalg.norm(tm)
            assert resid <= 1e-10 * scale

    def test_conditioning_diagnostic(self):
        jet = _gaussian_jet()
        v1 = wv.first_order_velocity_2d(jet)
        h = jet.hessian
        expected = np.sum(h * h) / abs(np.linalg.det(h))
        assert v1.hessian_condition == pytest.approx(expected, rel=1e-12)

    def test_zero_hessian_invalid(self):
        jet = wv.Jet2(wv.Jet1(0.0, 0.0, np.array([1.0, 1.0])), np.zeros((2, 2)), np.zeros(2))
        v1 = wv.first_order_velocity_nd(jet)
        assert not v1.valid
        assert v1.hessian_condition == np.inf


class TestDimensionalReduction:
    def test_field_constant_in_y_reduces_to_scalar_case(self):
        # psi = x^2 + 0.5 x t: no y dependence, so the 2-d Hessian is
        # singular while the x-slice carries the whole story
        field = wv.Polynomial(((1.0, (2, 0), 0), (0.5, (1, 0), 1)))
        jet2d = field.jet2(np.array([0.3, 0.7]), 0.2)
        assert jet2d.hessian[1, 1] == 0.0 and jet2d.hessian[0, 1] == 0.0
        assert not wv.first_order_velocity_2d(jet2d).valid
        slice1d = wv.Jet2(
            wv.Jet1(jet2d.psi, jet2d.dpsi_dt, jet2d.grad[:1]),
            jet2d.hessian[:1, :1],
            jet2d.time_mixed[:1],
        )
        v1 = wv.first_order_velocity_nd(slice1d)
        assert v1.valid
        assert v1.components == pytest.approx([-0.5 / 2.0], rel=1e-14)


class TestMirrorProperty:
    def test_both_velocities_flip_sign(self):
        jet = _gaussian_jet(point=(0.3, -0.2))
        mirrored = wv.Jet2(
            wv.Jet1(jet.psi, jet.dpsi_dt, -jet.grad), jet.hessian, -jet.time_mixed
        )
        v0 = wv.zero_order_velocity(jet)
        v0m = wv.zero_order_velocity(mirrored)
        assert np.array_equal(v0m.components, -v0.components)
        assert np.array_equal(v0m.reciprocal, -v0.reciprocal)
        v1 = wv.first_order_velocity_2d(jet)
        v1m = wv.first_order_velocity_2d(mirrored)
        assert np.array_equal(v1m.components, -v1.components)


class TestContraction:
    def test_rigid_translation_equals_dimension(self):
        v0 = wv.zero_order_velocity(_gaussian_jet())
        v1 = wv.first_order_velocity_2d(_gaussian_jet())
        assert wv.contraction_scalar(v0, v1) == pytest.approx(2.0, rel=1e-13)
        # worked numbers: (1/0.35) * 0.7 + w_y * 0 = 2
        assert (1.0 / 0.35) * 0.7 == pytest.approx(2.0, rel=1e-15)

    def test_three_dimensional_translation(self):
        f = wv.TranslatingGaussian((0.4, -0.3, 0.2), 1.0)
        jet = f.jet2(np.array([0.1, 0.2, -0.15]), 0.0)
        c = wv.contraction_scalar(
            wv.zero_order_velocity(jet.jet1), wv.first_order_velocity_3d(jet)
        )
        assert c == pytest.approx(3.0, rel=1e-12)

    def test_expanding_ring_locally_translates(self):
        ring = wv.ExpandingGaussianRing(0.3, 0.4, radius0=1.0)
        jet = ring.jet2(np.array([0.9, 0.7]), 0.1)
        c = wv.contraction_scalar(
            wv.zero_order_velocity(jet.jet1), wv.first_order_velocity_2d(jet)
        )
        assert c == pytest.approx(2.0, rel=1e-12)

    def test_static_zero(self):
        jet = wv.StaticGaussian(1.0).jet2(np.array([0.2, 0.1]), 0.0)
        v1 = wv.first_order_velocity_2d(jet)
        v0 = wv.ZeroOrderVelocity(np.array([1.0, 2.0]), np.array([1.0, 0.5]))
        assert wv.contraction_scalar(v0, v1) == 0.0

    def test_invalid_first_order_rejected(self):
        v0 = wv.zero_order_velocity(_plane_wave_jet())
        v1 = wv.first_order_velocity_2d(_plane_wave_jet())
        with pytest.raises(wv.UndefinedContractionError):
            wv.contraction_scalar(v0, v1)

    def test_stationary_source_rejected(self):
        jet = wv.StaticGaussian(1.0).jet2(np.array([0.2, 0.1]), 0.0)
        v0 = wv.zero_order_velocity(jet)  # psi_t = 0: infinite reciprocals
        v1 = wv.first_order_velocity_2d(jet)
        with pytest.raises(wv.UndefinedContractionError):
            wv.contraction_scalar(v0, v1)

    def test_dim_mismatch(self):
        v0 = wv.ZeroOrderVelocity(np.ones(3), np.ones(3))
        v1 = wv.FirstOrderVelocity(np.ones(2), True, 1.0)
        with pytest.raises(ValueError):
            wv.contraction_scalar(v0, v1)


class TestVelocityFields:
    def _jets(self, field, t=0.0):
        n = field.dim
        grid = wv.make_grid(n, [24] * n, [0.1] * n, [-1.15] * n)
        return wv.analytic_jet_field(field, grid, t), grid

    def test_order1_translating_gaussian(self):
        jets, _ = self._jets(wv.TranslatingGaussian((0.7, 0.0), 1.0))
        vf = wv.velocity_field(jets, 1)
        sel = vf.valid & (vf.hessian_condition < 50.0)
        assert sel.any()
        err = np.abs(vf.components[sel] - np.array([0.7, 0.0])).max()
        assert err < 1e-12

    def test_order1_plane_wave_all_invalid(self):
        jets, _ = self._jets(wv.PlaneWave((2.0, 1.0), 3.0))
        vf = wv.velocity_field(jets, 1)
        assert not vf.valid.any()
        assert np.all(np.isnan(vf.components))

    def test_order0_static_zero_off_degenerate_points(self):
        jets, _ = self._jets(wv.StaticGaussian(1.0, center=(0.05, 0.03)))
        vf = wv.velocity_field(jets, 0)
        assert vf.valid.all()  # center is off-grid, so no degenerate point
        assert np.nanmax(np.abs(vf.components)) == 0.0

    def test_degenerate_points_masked_not_zeroed(self):
        # static bump centered exactly on a node: psi_t = 0 and grad = 0 there
        grid = wv.make_grid(2, [9, 9], [0.25, 0.25], [-1.0, -1.0])
        jets = wv.analytic_jet_field(wv.StaticGaussian(1.0, center=(0.0, 0.0)), grid, 0.0)
        vf = wv.velocity_field(jets, 0)
        assert not vf.valid[4, 4]
        assert np.isnan(vf.components[4, 4]).all()
        assert vf.valid.sum() == 80

    @pytest.mark.parametrize("field, t, special", [
        (wv.TranslatingGaussian((0.4, 0.3), 1.0), 0.2, ()),
        (wv.TranslatingGaussian((0.4, 0.3, -0.2), 1.0), 0.2, ()),
        (wv.PlaneWave((1.3, 0.7), 3.0), 0.1, ()),  # rank-one Hessian: singular everywhere
        # centred on a node: stationary degenerate there, psi_t = 0 everywhere
        (wv.StaticGaussian(1.0, center=(NODE, NODE)), 0.0, ("degenerate", "still")),
        # centred on a node: psi_t = 0 where x = NODE, grad_y = 0 where y = NODE
        (wv.TranslatingGaussian((0.4, 0.0), 1.0, center=(NODE, NODE)), 0.0,
         ("degenerate", "still", "pole")),
        (wv.TranslatingGaussian((0.4, 0.0, 0.0), 1.0, center=(NODE,) * 3), 0.0,
         ("degenerate", "still", "pole")),
    ])
    def test_matches_pointwise_ops(self, field, t, special):
        jets, grid = self._jets(field, t)
        n = grid.dim
        cramer = {2: wv.first_order_velocity_2d, 3: wv.first_order_velocity_3d}[n]
        v0f = wv.velocity_field(jets, 0)
        v1f = wv.velocity_field(jets, 1)
        vals, valid = wv.contraction_scalar_field(v0f, v1f)
        rng = np.random.default_rng(31)
        # random points and the grid lines through the node (12, ..., 12)
        idxs = [tuple(rng.integers(0, 24, size=n)) for _ in range(25)]
        idxs += [tuple(k if b == a else 12 for b in range(n)) for a in range(n) for k in range(24)]
        seen = set()
        for idx in idxs:
            jet = jets.jet2_at(idx)
            try:
                v0 = wv.zero_order_velocity(jet.jet1)
            except wv.StationaryDegenerateError:
                seen.add("degenerate")
                assert not v0f.valid[idx] and not valid[idx]
                assert np.isnan(v0f.reciprocal[idx]).all() and np.isnan(v0f.components[idx]).all()
                assert np.isnan(vals[idx])
                continue
            seen.add("still" if jet.dpsi_dt == 0.0 else "pole" if (jet.grad == 0.0).any() else "")
            assert v0f.valid[idx]
            _assert_same_bits(v0f.reciprocal[idx], v0.reciprocal)
            _assert_same_bits(v0f.components[idx], v0.components)
            v1 = wv.first_order_velocity_nd(jet)
            assert v1f.valid[idx] == v1.valid
            if v1.valid:
                assert v1f.components[idx] == pytest.approx(v1.components, rel=1e-12)
                assert v1f.hessian_condition[idx] == pytest.approx(v1.hessian_condition, rel=1e-12)
            # below the singularity threshold only the grid's own (Cramer) route
            # reproduces the rounding left in det H
            assert v1f.hessian_condition[idx] == pytest.approx(cramer(jet).hessian_condition,
                                                               rel=1e-12)
            grid_v1 = wv.FirstOrderVelocity(v1f.components[idx], v1f.valid[idx],
                                            v1f.hessian_condition[idx])
            try:
                want = wv.contraction_scalar(v0, grid_v1)
            except wv.UndefinedContractionError:
                assert not valid[idx] and np.isnan(vals[idx])
            else:
                assert valid[idx]
                _assert_same_bits(vals[idx], want)
        assert seen.issuperset(special)

    def test_contraction_field_rigid_translation(self):
        jets, _ = self._jets(wv.TranslatingGaussian((0.7, 0.0), 1.0), t=0.1)
        v0f = wv.velocity_field(jets, 0)
        v1f = wv.velocity_field(jets, 1)
        vals, valid = wv.contraction_scalar_field(v0f, v1f)
        assert valid.any()
        assert np.nanmax(np.abs(vals[valid] - 2.0)) < 1e-11

    def _maps_on(self, shape, spacing):
        grid = wv.make_grid(2, shape, spacing, -0.55)
        jets = wv.analytic_jet_field(wv.TranslatingGaussian((0.7, 0.2), 1.0), grid, 0.1)
        return wv.velocity_field(jets, 0), wv.velocity_field(jets, 1)

    def test_contraction_field_rejects_other_spacing(self):
        # equal shapes once paired silently, as 64 "valid" values
        v0, _ = self._maps_on((12, 12), 0.1)
        _, v1 = self._maps_on((12, 12), 0.2)
        with pytest.raises(ValueError, match="grid mismatch"):
            wv.contraction_scalar_field(v0, v1)

    def test_contraction_field_rejects_other_shape(self):
        # once numpy's raw broadcast error
        v0, _ = self._maps_on((12, 12), 0.1)
        _, v1 = self._maps_on((13, 12), 0.1)
        with pytest.raises(ValueError, match="grid mismatch"):
            wv.contraction_scalar_field(v0, v1)

    @pytest.mark.parametrize("n, dt", [(2, 1e-300), (3, 1e-295)])
    def test_overflowed_solve_is_invalid(self, n, dt):
        # finite, valid fd jets of a noise field whose Cramer numerators
        # overflow: no order-one point may be valid with ±inf components, and
        # no contraction valid and NaN
        grid = wv.make_grid(n, (9,) * n, 0.001, 0.0)
        values = np.random.default_rng(0).standard_normal((7,) + (9,) * n)
        jets = wv.fd_jet_field(wv.SampledField(grid, 0.0, dt, values), 3)
        assert jets.valid.sum() == 5**n
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v0, v1 = wv.velocity_field(jets, 0), wv.velocity_field(jets, 1)
            vals, valid = wv.contraction_scalar_field(v0, v1)
            assert np.isfinite(v0.reciprocal[jets.valid]).all()
            assert not v1.valid.any() and np.isnan(v1.components).all()
            assert not valid.any() and np.isnan(vals).all()
            # the pointwise Cramer route agrees (the pivoted one does not overflow here)
            solve = getattr(wv, f"first_order_velocity_{n}d")
            for idx in zip(*np.nonzero(jets.valid)):
                v = solve(jets.jet2_at(idx))
                assert not v.valid and np.isnan(v.components).all()

    def test_order_validated(self):
        jets, _ = self._jets(wv.StaticGaussian(1.0))
        with pytest.raises(ValueError):
            wv.velocity_field(jets, 2)


BAD_THRESHOLDS = [-1.0, np.nan, np.inf]


def _singular_jet(n):
    # H = diag(1, ..., 1, 0): det H = 0 exactly
    return wv.Jet2(wv.Jet1(0.0, 1.0, np.ones(n)), np.diag([1.0] * (n - 1) + [0.0]),
                   0.1 * np.arange(1, n + 1))


class TestSingularityThreshold:
    """The threshold must be finite and non-negative: a negative one passed
    singular Hessians (the 2-D Cramer route divided by det H = 0), a NaN or
    infinite one silently rejected every point."""

    @pytest.mark.parametrize("eps", BAD_THRESHOLDS)
    @pytest.mark.parametrize("route, n", [
        (wv.first_order_velocity_2d, 2),
        (wv.first_order_velocity_3d, 3),
        (wv.first_order_velocity_nd, 2),
        (wv.first_order_velocity_nd, 4),
    ])
    def test_pointwise_routes_reject(self, route, n, eps):
        with pytest.raises(ValueError, match="eps_singular"):
            route(_singular_jet(n), eps_singular=eps)

    @pytest.mark.parametrize("eps", BAD_THRESHOLDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_velocity_field_rejects(self, n, eps):
        grid = wv.make_grid(n, [6] * n, 0.2, -0.5)
        jets = wv.analytic_jet_field(wv.TranslatingGaussian((0.5,) * n, 1.0), grid, 0.1)
        with pytest.raises(ValueError, match="eps_singular"):
            wv.velocity_field(jets, 1, eps_singular=eps)

    def test_zero_threshold_rejects_only_zero_determinants(self):
        assert not wv.first_order_velocity_2d(_singular_jet(2), eps_singular=0.0).valid
        jet = wv.Jet2(wv.Jet1(0.0, 1.0, [1.0, 1.0]), np.diag([1.0, 1e-300]), [0.1, 0.2])
        assert wv.first_order_velocity_2d(jet, eps_singular=0.0).valid


class TestOrderZeroMap:
    """The order-zero map stores the reciprocals and the mask; the components
    are derived from the jets on first read."""

    def test_map_allocates_reciprocals_mask_and_one_plane(self):
        grid = wv.make_grid(2, (128, 128), 0.05, -3.1)
        field = wv.TranslatingGaussian((0.4, 0.3), 0.7)
        jets = wv.fd_jet_field(wv.sample(field, grid, 0.02 * np.arange(5)), 2)
        tracemalloc.start()
        try:
            v0 = wv.velocities.zero_order_velocity_field(jets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "components" not in vars(v0)  # not derived yet
        assert peak <= v0.reciprocal.nbytes + v0.valid.nbytes + grid.npoints * 8

    @pytest.mark.parametrize("field, t, special", [
        (wv.TranslatingGaussian((0.4, 0.3), 1.0), 0.2, ()),
        # psi_t = 0 where x = NODE, grad_y = 0 where y = NODE, both at the node
        (wv.TranslatingGaussian((0.4, 0.0), 1.0, center=(NODE, NODE)), 0.0,
         ("pole", "degenerate")),
        # psi_t = 0 everywhere, stationary degenerate at the node
        (wv.StaticGaussian(1.0, center=(NODE, NODE, NODE)), 0.0, ("degenerate",)),
    ])
    def test_components_are_derived_once_by_the_kernel(self, field, t, special, monkeypatch):
        n = field.dim
        grid = wv.make_grid(n, [24] * n, [0.1] * n, [-1.15] * n)
        jets = wv.analytic_jet_field(field, grid, t)
        calls = []
        derive = wv.velocities._zero_components
        monkeypatch.setattr(wv.velocities, "_zero_components",
                            lambda *args: calls.append(1) or derive(*args))
        v0 = wv.velocity_field(jets, 0)
        assert not calls
        first = v0.components
        assert v0.components is first and len(calls) == 1
        reciprocal, components, valid = _order_zero(jets.grad, jets.dpsi_dt, jets.valid)
        _assert_same_bits(first, components)
        _assert_same_bits(v0.reciprocal, reciprocal)
        assert np.array_equal(v0.valid, valid)
        # the pole axes (grad_i = 0) and the degenerate points are in the comparison
        assert np.isinf(first).any() == ("pole" in special)
        assert valid.all() != ("degenerate" in special)


class TestCramerMinors:
    @pytest.mark.parametrize("n, minors", [(2, 3), (3, 7)])
    @pytest.mark.parametrize("one", [True, False])
    def test_each_minor_is_formed_once(self, n, minors, one, monkeypatch):
        calls = []
        minor = wv.velocities._minor
        monkeypatch.setattr(wv.velocities, "_minor", lambda a, b: calls.append(1) or minor(a, b))
        rng = np.random.default_rng(n)
        h = rng.standard_normal((n, n) if one else (50, n, n))
        b = rng.standard_normal(h.shape[:-1])
        v, valid, _ = _solve_order_one(h, b, True if one else np.ones(50, dtype=bool))
        assert len(calls) == minors
        assert np.all(valid)
        assert np.allclose(np.einsum("...ij,...j->...i", h, v), -b, rtol=0, atol=1e-9)
