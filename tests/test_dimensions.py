"""End-to-end checks of the sampled-data pipeline in 1-D and 3-D.

The formula layer is dimension-generic by construction; these tests make
sure the grid machinery (stencils, masks, batched solves, interpolation)
actually delivers that in dimensions other than two.
"""

import numpy as np
import pytest

import wavevel as wv


class TestOneDimensional:
    def _field(self):
        bump = wv.TranslatingGaussian(velocity=(0.4,), sigma=1.0)
        grid = wv.make_grid(1, [129], 0.025, -1.6)
        return bump, grid, wv.sample(bump, grid, 0.01 * np.arange(5) - 0.02)

    def test_fd_jets_match_analytic(self):
        bump, grid, field = self._field()
        jets = wv.fd_jet_field(field, 2)
        exact = wv.analytic_jet_field(bump, grid, field.time(2))
        m = jets.valid
        assert m.sum() == 129 - 4
        assert np.abs(jets.grad[m] - exact.grad[m]).max() < 1e-6
        assert np.abs(jets.hessian[m] - exact.hessian[m]).max() < 2e-6

    def test_velocities_on_sampled_data(self):
        bump, grid, field = self._field()
        jets = wv.fd_jet_field(field, 2)
        v1 = wv.velocity_field(jets, 1)
        good = v1.valid & (v1.hessian_condition < 20.0)
        assert np.abs(v1.components[good] - 0.4).max() < 5e-5
        v0 = wv.velocity_field(jets, 0)
        # N = 1: the attribute velocity equals the translation speed outright,
        # wherever the gradient is not about to vanish (the peak is a pole)
        g = np.abs(jets.grad[..., 0])
        fin = v0.valid & (g >= 0.05 * np.nanmax(g))
        assert np.abs(v0.components[fin, 0] - 0.4).max() < 1e-3

    def test_peak_tracking(self):
        bump, grid, field = self._field()
        seed = np.unravel_index(np.argmax(field.values[0]), grid.shape)
        res = wv.track_attribute(field, wv.AttributeSpec.gradient_set((0.0,)), seed)
        assert res.deviation < 2e-3
        assert res.empirical_velocity[2] == pytest.approx([0.4], abs=1e-3)


class TestThreeDimensional:
    def _field(self, c=(0.5, -0.3, 0.2)):
        bump = wv.TranslatingGaussian(velocity=c, sigma=2.0)
        grid = wv.make_grid(3, [24, 24, 24], 0.1, -1.15)
        return bump, grid, wv.sample(bump, grid, 0.02 * np.arange(5) - 0.04)

    def test_fd_jets_match_analytic(self):
        bump, grid, field = self._field()
        jets = wv.fd_jet_field(field, 2)
        exact = wv.analytic_jet_field(bump, grid, field.time(2))
        m = jets.valid
        assert m.sum() == 20**3
        assert np.abs(jets.grad[m] - exact.grad[m]).max() < 1e-5
        assert np.abs(jets.hessian[m] - exact.hessian[m]).max() < 1e-5
        assert np.abs(jets.time_mixed[m] - exact.time_mixed[m]).max() < 1e-5

    def test_velocity_field_recovers_translation(self):
        c = np.array([0.5, -0.3, 0.2])
        bump, grid, field = self._field(tuple(c))
        jets = wv.fd_jet_field(field, 2)
        v1 = wv.velocity_field(jets, 1)
        good = v1.valid & (v1.hessian_condition < 100.0)
        assert good.sum() > 1000
        assert np.abs(v1.components[good] - c).max() < 5e-4
        v0 = wv.velocity_field(jets, 0)
        scalar, valid = wv.contraction_scalar_field(v0, v1)
        pt = np.abs(jets.dpsi_dt)
        sel = valid & good & (pt >= 0.05 * np.nanmax(pt))
        assert np.abs(scalar[sel] - 3.0).max() < 1e-2

    def test_peak_tracking(self):
        bump, grid, field = self._field()
        seed = np.unravel_index(np.argmax(field.values[0]), grid.shape)
        res = wv.track_attribute(
            field, wv.AttributeSpec.gradient_set((0.0, 0.0, 0.0)), seed
        )
        assert res.deviation < 2e-2
        assert res.empirical_velocity[2] == pytest.approx([0.5, -0.3, 0.2], abs=1e-2)

    def test_ring_jets_in_three_dimensions(self):
        ring = wv.ExpandingGaussianRing(0.3, 0.5, radius0=1.0, center=(0.0, 0.0, 0.0))
        rng = np.random.default_rng(14)
        pts = rng.uniform(0.4, 1.2, size=(50, 3))
        psi, dpsi_dt, grad, hess, tmix = ring.jet_arrays(pts, 0.1)
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
        # locally the shell translates along the radial ray at its speed
        for k in range(0, 50, 7):
            jet = ring.jet2(pts[k], 0.1)
            v1 = wv.first_order_velocity(jet)
            if not v1.valid:
                continue
            rhat = pts[k] / np.linalg.norm(pts[k])
            assert v1.components == pytest.approx(0.3 * rhat, abs=1e-12)

    def test_covariance_two_path(self):
        bump = wv.TranslatingGaussian(velocity=(0.5, -0.3, 0.2), sigma=2.0)
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(10):
            amap = wv.random_affine(rng, 3, max_condition=50.0)
            pts = amap.invert(rng.uniform(-0.8, 0.8, size=(8, 3)))
            r0 = wv.check_zero_order_covariance(bump, amap, pts, 0.2)
            r1 = wv.check_first_order_covariance(bump, amap, pts, 0.2)
            rc = wv.check_contraction_invariance(bump, amap, pts, 0.2)
            worst = max(worst, r0.max_deviation, r1.max_deviation,
                        rc.max_deviation / 3.0)
        assert worst <= 1e-11

    def test_csv_export_three_axes(self, tmp_path):
        grid = wv.make_grid(3, [5, 5, 5], 0.2, 0.0)
        wv.export_csv(tmp_path / "t.csv", grid, {"a": np.zeros(grid.shape)})
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,x3,a"
        assert len(lines) == 1 + 125
