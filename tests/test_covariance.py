"""Transformation-law tests: covector, contravariant vector, invariant scalar."""

import numpy as np
import pytest

import wavevel as wv


class TestAffineMap:
    def test_apply_invert_roundtrip(self):
        rng = np.random.default_rng(1)
        amap = wv.random_affine(rng, 3, max_condition=20.0)
        x = rng.standard_normal((10, 3))
        assert amap.invert(amap.apply(x)) == pytest.approx(x, rel=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            wv.AffineMap(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            wv.AffineMap(np.ones((2, 3)))
        with pytest.raises(ValueError):
            wv.AffineMap(np.eye(2), np.zeros(3))

    @pytest.mark.parametrize("matrix, offset", [
        ([[1.0, np.nan], [0.0, 1.0]], None),
        ([[np.inf, 0.0], [0.0, 1.0]], None),
        (np.eye(2), [0.0, np.nan]),
        (np.eye(2), [-np.inf, 0.0]),
    ])
    def test_nonfinite_entries_rejected(self, matrix, offset):
        with pytest.raises(ValueError, match="map entries must be finite"):
            wv.AffineMap(np.asarray(matrix), offset)

    def test_inverse_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            amap = wv.random_affine(rng, 2, max_condition=50.0)
            resid = np.abs(amap.matrix @ amap.inverse_matrix - np.eye(2)).max()
            assert resid <= 1e-12

    def test_random_affine_condition_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            amap = wv.random_affine(rng, 3, max_condition=50.0)
            assert np.linalg.cond(amap.matrix) <= 50.0 * (1 + 1e-9)

    def test_keeps_its_own_frozen_arrays(self):
        a, b = np.eye(2), np.array([0.5, -1.0])
        amap = wv.AffineMap(a, b)
        a[0, 0] = 5.0
        b[:] = 7.0
        assert np.array_equal(amap.matrix, np.eye(2)) and amap.det == 1.0
        assert np.array_equal(amap.offset, [0.5, -1.0])
        assert np.array_equal(amap.invert(amap.apply((1.0, 0.0))), [1.0, 0.0])
        for arr in (amap.matrix, amap.offset, amap.inverse_matrix):
            with pytest.raises(ValueError):
                arr[0] = 2.0


class TestTransforms:
    def test_identity(self):
        ident = wv.AffineMap.identity(2)
        w = np.array([1.2, -0.7])
        assert np.array_equal(wv.transform_covector(w, ident), w)
        assert np.array_equal(wv.transform_vector(w, ident), w)

    def test_diagonal_covector(self):
        amap = wv.AffineMap(np.diag([2.0, 3.0]))
        assert wv.transform_covector(np.array([1.0, 1.0]), amap) == pytest.approx([2.0, 3.0])

    def test_diagonal_vector(self):
        amap = wv.AffineMap(np.diag([2.0, 1.0]))
        assert wv.transform_vector(np.array([2.0, 0.0]), amap) == pytest.approx([1.0, 0.0])

    def test_duality_pairing_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            amap = wv.random_affine(rng, int(rng.integers(1, 5)), max_condition=30.0)
            w = rng.standard_normal(amap.dim)
            v = rng.standard_normal(amap.dim)
            before = w @ v
            after = wv.transform_covector(w, amap) @ wv.transform_vector(v, amap)
            assert after == pytest.approx(before, rel=1e-13, abs=1e-13)

    def test_vector_roundtrip_through_inverse_map(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            amap = wv.random_affine(rng, 3, max_condition=30.0)
            inverse_map = wv.AffineMap(amap.inverse_matrix)
            v = rng.standard_normal(3)
            back = wv.transform_vector(wv.transform_vector(v, amap), inverse_map)
            assert back == pytest.approx(v, rel=1e-12)

    def test_dim_mismatch(self):
        amap = wv.AffineMap.identity(2)
        with pytest.raises(ValueError):
            wv.transform_covector(np.ones(3), amap)
        with pytest.raises(ValueError):
            wv.transform_vector(np.ones((4, 3)), amap)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_equals_rows_bitwise(self, n):
        # the checks carry whole blocks; at N = 4 a BLAS matrix product of a
        # stack may round differently from its row products, so N <= 3 here
        rng = np.random.default_rng(40 + n)
        for _ in range(50):
            amap = wv.random_affine(rng, n, max_condition=30.0)
            stack = rng.standard_normal((int(rng.integers(2, 300)), n))
            for transform in (wv.transform_covector, wv.transform_vector):
                rows = np.array([transform(row, amap) for row in stack])
                assert np.array_equal(transform(stack, amap), rows)


class TestPullback:
    def test_identity_leaves_jet(self):
        jet = wv.TranslatingGaussian((0.7, 0.0), 1.0).jet2(np.array([0.1, 0.2]), 0.0)
        out = wv.pullback_jet2(jet, wv.AffineMap.identity(2))
        assert np.array_equal(out.grad, jet.grad)
        assert np.array_equal(out.hessian, jet.hessian)
        assert np.array_equal(out.time_mixed, jet.time_mixed)

    def test_diagonal_gradient(self):
        jet = wv.Jet2(
            wv.Jet1(0.0, 1.0, np.array([1.0, 1.0])), np.eye(2), np.zeros(2)
        )
        out = wv.pullback_jet2(jet, wv.AffineMap(np.diag([2.0, 1.0])))
        assert out.grad == pytest.approx([2.0, 1.0])

    def test_matches_composed_field_jets(self):
        # oracle: numerically differentiate the composed evaluation itself
        rng = np.random.default_rng(6)
        base = wv.TranslatingGaussian((0.7, 0.2), 1.3)
        amap = wv.random_affine(rng, 2, max_condition=8.0)
        composed = wv.AffineReparamField(base, amap)
        fd = wv.make_fd_jet2_fn(h=5e-3, dt=5e-3, spec=wv.StencilSpec(4, "shrink-to-valid"))
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, 2)
            exact = composed.jet2(x, 0.3)
            _, _, grad, hessian, time_mixed = fd(composed, x, 0.3)
            assert grad == pytest.approx(exact.grad, abs=2e-9)
            assert hessian == pytest.approx(exact.hessian, abs=2e-7)
            assert time_mixed == pytest.approx(exact.time_mixed, abs=2e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_composed_jets_are_pullbacks_bitwise(self, n):
        # one pullback serves both; Jet2 mirrors the upper triangle, so every
        # kind's exact Hessian must be symmetric to the bit
        rng = np.random.default_rng(60 + n)
        bases = (wv.PlaneWave(tuple(rng.standard_normal(n)), 1.7, amplitude=1.3),
                 wv.TranslatingGaussian(tuple(rng.standard_normal(n)), 0.9,
                                        center=tuple(0.1 * rng.standard_normal(n)), amplitude=1.4),
                 wv.StaticGaussian(1.3, center=tuple(0.1 * rng.standard_normal(n))),
                 wv.ExpandingGaussianRing(0.3, 0.4, center=tuple(0.05 * rng.standard_normal(n))),
                 wv.Polynomial(((0.4, (2,) * n, 0), (0.3, (1,) * n, 1), (2.0, (0,) * n, 1))))
        for base in bases:
            for _ in range(10):
                amap = wv.random_affine(rng, n, max_condition=20.0)
                x = rng.uniform(-1.0, 1.0, n)
                hess = base.jet_arrays(amap.apply(x), 0.3)[3]
                assert np.array_equal(hess, hess.T)
                jet = wv.pullback_jet2(base.jet2(amap.apply(x), 0.3), amap)
                got = wv.AffineReparamField(base, amap).jet_arrays(x, 0.3)
                want = (jet.psi, jet.dpsi_dt, jet.grad, jet.hessian, jet.time_mixed)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)

    def test_hessian_stays_symmetric(self):
        rng = np.random.default_rng(7)
        base = wv.TranslatingGaussian((0.7, 0.2), 1.0)
        for _ in range(20):
            amap = wv.random_affine(rng, 2, max_condition=40.0)
            jet = base.jet2(rng.uniform(-0.5, 0.5, 2), 0.1)
            out = wv.pullback_jet2(jet, amap)
            assert np.array_equal(out.hessian, out.hessian.T)


class TestTwoPathChecks:
    FIELD = wv.TranslatingGaussian((0.7, 0.2), 2.0)

    def _points(self, rng, amap, count=10):
        # sample in the new frame near the bump, pull back to the old frame
        X = rng.uniform(-1.0, 1.0, size=(count, 2)) + np.asarray(self.FIELD.velocity) * 0.3
        return amap.invert(X)

    def test_identity_map_is_exact(self):
        pts = np.array([[0.3, 0.1], [-0.2, 0.4]])
        ident = wv.AffineMap.identity(2)
        assert wv.check_zero_order_covariance(self.FIELD, ident, pts, 0.3).max_deviation == 0.0
        assert wv.check_first_order_covariance(self.FIELD, ident, pts, 0.3).max_deviation == 0.0
        assert wv.check_contraction_invariance(self.FIELD, ident, pts, 0.3).max_deviation == 0.0

    def test_random_affine_analytic_jets(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            amap = wv.random_affine(rng, 2, max_condition=50.0)
            pts = self._points(rng, amap)
            r0 = wv.check_zero_order_covariance(self.FIELD, amap, pts, 0.3)
            r1 = wv.check_first_order_covariance(self.FIELD, amap, pts, 0.3)
            rc = wv.check_contraction_invariance(self.FIELD, amap, pts, 0.3)
            assert r0.max_deviation <= 1e-12 and r0.checked == 10
            assert r1.max_deviation <= 1e-12
            assert rc.max_deviation <= 1e-12 * 2.0

    def test_fd_jets_zero_order(self):
        # measured budget for order-4 local sampling at h=0.02
        rng = np.random.default_rng(9)
        amap = wv.AffineMap(np.array([[2.0, 0.3], [0.1, 1.5]]), np.array([0.2, -0.1]))
        pts = self._points(rng, amap, count=15)
        fd = wv.make_fd_jet2_fn(h=0.02, dt=0.005)
        report = wv.check_zero_order_covariance(self.FIELD, amap, pts, 0.3, jet2_fn=fd)
        assert report.checked == 15
        assert report.max_deviation <= 1e-6

    def test_fd_jets_first_order_rotation(self):
        rng = np.random.default_rng(10)
        rot = wv.AffineMap.rotation_2d(np.pi / 6)
        pts = self._points(rng, rot, count=15)
        fd = wv.make_fd_jet2_fn(h=0.02, dt=0.005)
        report = wv.check_first_order_covariance(self.FIELD, rot, pts, 0.3, jet2_fn=fd)
        assert report.checked > 0
        assert report.max_deviation <= 1e-5

    def test_stationary_points_skipped(self):
        static = wv.StaticGaussian(1.0)
        amap = wv.AffineMap(np.diag([2.0, 0.5]))
        pts = np.array([[0.2, 0.1], [0.1, -0.3]])
        report = wv.check_zero_order_covariance(static, amap, pts, 0.0)
        assert report.checked == 0
        assert report.skipped == 2

    def test_singular_hessian_points_skipped(self):
        pw = wv.PlaneWave((2.0, 1.0), 3.0)
        amap = wv.AffineMap(np.diag([2.0, 0.5]))
        pts = np.array([[0.2, 0.1]])
        report = wv.check_first_order_covariance(pw, amap, pts, 0.0)
        assert report.checked == 0 and report.skipped == 1


    @pytest.mark.parametrize("h, dt", [(0.0, 1e-3), (-1e-3, 1e-3), (1e-3, 0.0),
                                       (1e-3, -1e-3), (np.nan, 1e-3)])
    def test_fd_steps_must_be_positive(self, h, dt):
        with pytest.raises(ValueError, match="h and dt must be positive"):
            wv.make_fd_jet2_fn(h=h, dt=dt)


class TestMirror:
    def test_mirror_flips_and_preserves(self):
        field = wv.TranslatingGaussian((0.7, 0.2), 1.0)
        mirror = wv.AffineMap.mirror(2)
        jet = field.jet2(np.array([0.4, -0.3]), 0.3)
        jet_m = wv.pullback_jet2(jet, mirror)
        v0 = wv.zero_order_velocity(jet.jet1)
        v0m = wv.zero_order_velocity(jet_m.jet1)
        v1 = wv.first_order_velocity(jet, pivoted=True)
        v1m = wv.first_order_velocity(jet_m, pivoted=True)
        # exact sign flips, bitwise
        assert np.array_equal(v0m.reciprocal, -v0.reciprocal)
        assert np.array_equal(v0m.components, -v0.components)
        assert np.array_equal(v1m.components, -v1.components)
        # transformation laws hold exactly for the mirror
        assert np.array_equal(wv.transform_covector(v0.reciprocal, mirror), v0m.reciprocal)
        assert np.array_equal(wv.transform_vector(v1.components, mirror), v1m.components)
        # contraction untouched
        assert wv.contraction_scalar(v0m, v1m) == wv.contraction_scalar(v0, v1)

    def test_mirror_check_reports_zero(self):
        field = wv.TranslatingGaussian((0.7, 0.2), 1.0)
        mirror = wv.AffineMap.mirror(2)
        pts = np.array([[0.4, -0.3], [0.1, 0.2]])
        assert wv.check_contraction_invariance(field, mirror, pts, 0.3).max_deviation == 0.0


class TestComponentsAreNotCovariant:
    def test_raw_components_fail_linear_law(self):
        # only the reciprocals transform linearly; the per-component
        # velocities do not follow any linear rule under a generic map
        field = wv.TranslatingGaussian((0.7, 0.2), 1.0)
        amap = wv.AffineMap(np.array([[1.0, 0.8], [0.0, 1.0]]))
        x = np.array([0.3, 0.15])
        jet_x = wv.AffineReparamField(field, amap).jet2(x, 0.3)
        jet_X = field.jet2(amap.apply(x), 0.3)
        v_direct = wv.zero_order_velocity(jet_x.jet1).components
        v_new = wv.zero_order_velocity(jet_X.jet1).components
        as_covector = wv.transform_covector(v_new, amap)
        as_vector = wv.transform_vector(v_new, amap)
        assert np.abs(v_direct - as_covector).max() > 1e-3
        assert np.abs(v_direct - as_vector).max() > 1e-3


EPS = np.finfo(float).eps


def _relative_deviation(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max())
    return 0.0 if scale == 0.0 else float(np.abs(a - b).max() / scale)


def _per_point_reference(field, amap, points, t):
    """The three laws point by point from the public pointwise functions.

    The jets are those of one stacked evaluation per frame, as the batched
    checks take them, so the two routes differ only in the summation order
    of the transforms and the contraction.  Returns ``(max deviation,
    checked, skipped, tolerance)`` per law; the tolerance bounds what that
    order can change.
    """
    composed = wv.AffineReparamField(field, amap)
    stacks = (composed.jet_arrays(points, t), field.jet_arrays(amap.apply(points), t))
    n = field.dim
    devs = ([], [], [])
    rel_tol = 8 * n * np.linalg.cond(amap.matrix) * EPS
    scalar_tol = 0.0
    for i in range(len(points)):
        jet_x, jet_X = (wv.Jet2(wv.Jet1(psi[i], pt[i], g[i]), h[i], tm[i])
                        for psi, pt, g, h, tm in stacks)
        moving = jet_x.dpsi_dt != 0.0 and jet_X.dpsi_dt != 0.0
        v_x, v_X = wv.first_order_velocity(jet_x, pivoted=True), wv.first_order_velocity(jet_X, pivoted=True)
        solved = v_x.valid and v_X.valid
        if moving:
            w_x = wv.zero_order_velocity(jet_x.jet1)
            w_X = wv.zero_order_velocity(jet_X.jet1)
            devs[0].append(_relative_deviation(
                w_x.reciprocal, wv.transform_covector(w_X.reciprocal, amap)))
        if solved:
            devs[1].append(_relative_deviation(
                v_x.components, wv.transform_vector(v_X.components, amap)))
        if moving and solved:
            devs[2].append(abs(wv.contraction_scalar(w_x, v_x) - wv.contraction_scalar(w_X, v_X)))
            terms = np.abs(w_x.reciprocal * v_x.components).sum() + np.abs(
                w_X.reciprocal * v_X.components).sum()
            scalar_tol = max(scalar_tol, 8 * n * EPS * terms)
    tols = (rel_tol, rel_tol, scalar_tol)
    return [(max(d, default=0.0), len(d), len(points) - len(d), tol)
            for d, tol in zip(devs, tols)]


def _pointwise_callers_reference(field, amap, points, t):
    """``(max deviation, checked, skipped)`` per law, with every velocity and
    contraction from the public pointwise functions at each point.

    The jets, the transforms and the deviations are taken as the checks take
    them (one stacked evaluation per frame, one stacked product per
    transform), so the reports must agree to the bit.
    """
    composed = wv.AffineReparamField(field, amap)
    frames = []
    for fld, pts in ((composed, points), (field, amap.apply(points))):
        psi, pt, g, h, tm = fld.jet_arrays(pts, t)
        w, v, c = np.full(g.shape, np.nan), np.full(g.shape, np.nan), np.full(len(pts), np.nan)
        for i in range(len(pts)):
            jet = wv.Jet2(wv.Jet1(psi[i], pt[i], g[i]), h[i], tm[i])
            v1 = wv.first_order_velocity(jet, pivoted=True)
            v[i] = v1.components  # NaN where the Hessian is singular
            try:
                v0 = wv.zero_order_velocity(jet.jet1)
            except wv.StationaryDegenerateError:
                continue
            if pt[i] != 0.0:
                w[i] = v0.reciprocal
            try:
                c[i] = wv.contraction_scalar(v0, v1)
            except wv.UndefinedContractionError:
                pass
        frames.append((w, v, c))
    (w_x, v_x, c_x), (w_X, v_X, c_X) = frames
    devs = (
        [_relative_deviation(a, b) for a, b in zip(w_x, w_X @ amap.matrix)],
        [_relative_deviation(a, b) for a, b in zip(v_x, v_X @ amap.inverse_matrix.T)],
        list(np.abs(c_x - c_X)),
    )
    reports = []
    for dev in devs:
        checked = [d for d in dev if not np.isnan(d)]
        reports.append((max(checked, default=0.0), len(checked), len(points) - len(checked)))
    return reports


def _diagonal_map(n):
    # powers of two: X = A x is exact, so chosen new-frame points are hit exactly
    return wv.AffineMap(np.diag([2.0, 0.5, 4.0, 0.25, 8.0][:n]))


class TestBatchedChecks:
    """The stacked checks against a per-point reference, at N = 2, 3 and 4."""

    @staticmethod
    def _mixed_points(n, rng):
        # random points, then new-frame points on x_1 = 0 (psi_t = 0 for a bump
        # moving along axis 1) and on the singular ring |X| = sigma / sqrt(2)
        amap = _diagonal_map(n)
        ring = np.zeros((2, n))
        ring[0, 0] = ring[1, 1] = 1.0 / np.sqrt(2.0)
        still = rng.uniform(-0.8, 0.8, size=(3, n))
        still[:, 0] = 0.0
        new_frame = np.vstack([rng.uniform(-0.8, 0.8, size=(6, n)), still, ring])
        return amap, amap.invert(new_frame)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["translating", "static", "plane-wave"])
    def test_matches_per_point_reference(self, n, kind):
        rng = np.random.default_rng(20 + n)
        fields = {
            "translating": wv.TranslatingGaussian((1.0,) + (0.0,) * (n - 1), 1.0),
            "static": wv.StaticGaussian(1.0, (0.0,) * n),
            "plane-wave": wv.PlaneWave((2.0, 1.0, -0.5, 0.7)[:n], 3.0),
        }
        field = fields[kind]
        amap, pts = self._mixed_points(n, rng)
        cases = [(amap, pts)]
        general = wv.random_affine(rng, n, max_condition=20.0)
        cases.append((general, general.invert(rng.uniform(-0.8, 0.8, size=(12, n)))))
        for m, points in cases:
            reports = wv.check_transformation_laws(field, m, points, 0.0)
            for report, (dev, checked, skipped, tol) in zip(
                reports, _per_point_reference(field, m, points, 0.0)
            ):
                assert (report.checked, report.skipped) == (checked, skipped)
                assert abs(report.max_deviation - dev) <= tol

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["translating", "static", "plane-wave"])
    def test_equals_pointwise_callers(self, n, kind):
        # the checks and the pointwise functions share one kernel per formula
        rng = np.random.default_rng(40 + n)
        field = {
            "translating": wv.TranslatingGaussian((1.0,) + (0.0,) * (n - 1), 1.0),
            "static": wv.StaticGaussian(1.0, (0.0,) * n),
            "plane-wave": wv.PlaneWave((2.0, 1.0, -0.5, 0.7, 0.3)[:n], 3.0),
        }[kind]
        amap = _diagonal_map(n)
        # new-frame points on X_1 = 0 (psi_t = 0 for the translating bump) and
        # the origin (stationary degenerate for both bumps)
        still = rng.uniform(-0.8, 0.8, size=(3, n))
        still[:, 0] = 0.0
        new_frame = np.vstack([rng.uniform(-0.8, 0.8, size=(8, n)), still, np.zeros((1, n))])
        general = wv.random_affine(rng, n, max_condition=20.0)
        cases = [(amap, amap.invert(new_frame)),
                 (general, general.invert(rng.uniform(-0.8, 0.8, size=(12, n))))]
        for m, points in cases:
            reports = wv.check_transformation_laws(field, m, points, 0.0)
            assert [(r.max_deviation, r.checked, r.skipped) for r in reports] == \
                _pointwise_callers_reference(field, m, points, 0.0)

    def test_skip_rules_are_exercised(self):
        # the mixed point set of the test above: 3 still points, 2 ring points
        # (one of them also still), the rest regular
        field = wv.TranslatingGaussian((1.0, 0.0, 0.0), 1.0)
        amap, pts = self._mixed_points(3, np.random.default_rng(23))
        covector, vector, contraction = wv.check_transformation_laws(field, amap, pts, 0.0)
        assert (covector.checked, covector.skipped) == (7, 4)
        assert (vector.checked, vector.skipped) == (9, 2)
        assert (contraction.checked, contraction.skipped) == (6, 5)
        static = wv.check_transformation_laws(wv.StaticGaussian(1.0, (0.0,) * 3), amap, pts, 0.0)
        assert static[0].checked == 0 and static[2].checked == 0
        wave = wv.check_transformation_laws(wv.PlaneWave((2.0, 1.0, -0.5), 3.0), amap, pts, 0.0)
        assert wave[1].checked == 0 and wave[2].checked == 0

        def still_new_frame(fld, points, t):  # psi_t = 0 in the new frame only
            psi, pt, grad, hess, tmix = fld.jet_arrays(points, t)
            moving = isinstance(fld, wv.AffineReparamField)
            return psi, pt if moving else 0.0 * pt, grad, hess, tmix

        covector, _, contraction = wv.check_transformation_laws(field, amap, pts, 0.0,
                                                                 still_new_frame)
        assert covector.checked == 0 and contraction.checked == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_and_mirror_report_zero(self, n):
        field = wv.TranslatingGaussian((0.7, 0.2, -0.4, 0.1)[:n], 2.0)
        pts = np.random.default_rng(n).uniform(-0.8, 0.8, size=(20, n))
        for amap in (wv.AffineMap.identity(n), wv.AffineMap.mirror(n)):
            for report in wv.check_transformation_laws(field, amap, pts, 0.3):
                assert report.max_deviation == 0.0 and report.checked == 20

    @pytest.mark.parametrize("fd", [False, True])
    def test_reports_do_not_depend_on_block_size(self, fd, monkeypatch):
        rng = np.random.default_rng(31)
        field = wv.TranslatingGaussian((0.5, -0.3, 0.2), 2.0)
        amap = wv.random_affine(rng, 3, max_condition=50.0)
        _, pts = self._mixed_points(3, rng)
        source = wv.make_fd_jet2_fn(0.02, 0.005) if fd else None
        whole = wv.check_transformation_laws(field, amap, pts, 0.2, source)
        monkeypatch.setattr(wv.covariance, "BLOCK_POINTS", 3)
        assert wv.check_transformation_laws(field, amap, pts, 0.2, source) == whole

    def test_selectors_return_their_law(self):
        field = wv.TranslatingGaussian((0.7, 0.2), 2.0)
        amap = wv.AffineMap(np.array([[2.0, 0.3], [0.1, 1.5]]), np.array([0.2, -0.1]))
        pts = np.random.default_rng(4).uniform(-0.5, 0.5, size=(10, 2))
        reports = wv.check_transformation_laws(field, amap, pts, 0.3)
        checks = (wv.check_zero_order_covariance, wv.check_first_order_covariance,
                  wv.check_contraction_invariance)
        assert tuple(check(field, amap, pts, 0.3) for check in checks) == reports

    @pytest.mark.parametrize("check", ["check_zero_order_covariance",
                                       "check_first_order_covariance",
                                       "check_contraction_invariance"])
    def test_nonfinite_point_rejected(self, check):
        field = wv.TranslatingGaussian((0.7, 0.2), 2.0)
        pts = np.array([[0.1, 0.2], [np.nan, 0.3]])
        with pytest.raises(ValueError, match="jet entries must be finite"):
            getattr(wv, check)(field, wv.AffineMap.identity(2), pts, 0.3)

    def test_nonfinite_time_rejected(self):
        field = wv.TranslatingGaussian((0.7, 0.2), 2.0)
        with pytest.raises(ValueError, match="jet entries must be finite"):
            wv.check_transformation_laws(field, wv.AffineMap.identity(2), np.zeros((3, 2)), np.nan)

    def test_hessian_upper_triangle_is_the_source_of_truth(self):
        # as for Jet2, the lower triangle a source returns is ignored
        def scrambled(field, points, t):
            psi, pt, grad, hess, tmix = field.jet_arrays(points, t)
            return psi, pt, grad, hess + np.tril(np.full(hess.shape, 7.0), -1), tmix

        field = wv.TranslatingGaussian((0.7, 0.2, 0.1), 2.0)
        amap = wv.random_affine(np.random.default_rng(5), 3, max_condition=10.0)
        pts = np.random.default_rng(6).uniform(-0.5, 0.5, size=(10, 3))
        assert (wv.check_transformation_laws(field, amap, pts, 0.3, scrambled)
                == wv.check_transformation_laws(field, amap, pts, 0.3))

    @pytest.mark.parametrize("off, ratio", [(0.0, 0.0), (1e-12, np.inf)])
    def test_contraction_without_a_finite_bound_is_judged(self, off, ratio):
        # psi_t = 1e-306: the contraction (1.01e308) is finite, |w| |v| kappa_2(H)
        # (1.4e310) is not; a deviation there has no bound to pass, so it fails
        def tiny_psi_t(field, points, t):
            n = len(points)
            tmix = np.ones((n, 2)) * (1.0 + off if isinstance(field, wv.AffineReparamField) else 1.0)
            return (np.ones(n), np.full(n, 1e-306), np.full((n, 2), 0.5),
                    np.broadcast_to(np.diag([1.0, 0.01]), (n, 2, 2)), tmix)

        reports = wv.check_transformation_laws(wv.TranslatingGaussian((0.7, 0.2), 2.0),
                                               wv.AffineMap.identity(2), np.zeros((3, 2)), 0.0,
                                               tiny_psi_t)
        assert reports[2].checked == 3 and np.isfinite(reports[2].max_deviation)
        assert reports[2].max_bound_ratio == ratio


class TestFdJetSource:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("boundary", ["one-sided", "shrink-to-valid"])
    def test_centres_equal_pointwise_fd_jets_bitwise(self, n, order, boundary):
        # a one-sided order-4 pass over whole 5-point patches used to raise
        # ("axis too short"); the centres take the central stencils
        rng = np.random.default_rng(10 * n + order)
        spec = wv.StencilSpec(order, boundary)
        h, dt, t = 0.02, 0.005, 0.3
        base = wv.TranslatingGaussian(tuple(rng.uniform(-1.0, 1.0, n)), 1.3)
        composed = wv.AffineReparamField(base, wv.random_affine(rng, n, max_condition=8.0))
        source = wv.make_fd_jet2_fn(h, dt, spec)
        extent = max(5, 2 * spec.half_width + 1)
        centre = extent // 2
        mid = spec.min_frames // 2
        times = t + dt * (np.arange(spec.min_frames) - mid)
        pts = rng.uniform(-0.5, 0.5, size=(7, n))
        for field in (base, composed):
            stacked = source(field, pts, t)
            for p, x in enumerate(pts):
                # the point's own patch grid, as a one-point fd route samples it
                grid = wv.Grid((extent,) * n, (h,) * n, tuple(x - centre * h))
                jet = wv.fd_jet2_at(wv.sample(field, grid, times), mid, (centre,) * n, spec)
                want = (jet.psi, jet.dpsi_dt, jet.grad, jet.hessian, jet.time_mixed)
                for got, ref in zip(stacked, want):
                    assert np.array_equal(got[p], ref)

    def test_leading_shape_follows_points(self):
        field = wv.TranslatingGaussian((0.7, 0.2), 1.3)
        source = wv.make_fd_jet2_fn(0.02, 0.005)
        pts = np.random.default_rng(2).uniform(-0.5, 0.5, size=(2, 3, 2))
        psi, dpsi_dt, grad, hess, tmix = source(field, pts, 0.1)
        assert psi.shape == dpsi_dt.shape == (2, 3)
        assert grad.shape == tmix.shape == (2, 3, 2) and hess.shape == (2, 3, 2, 2)
        flat = source(field, pts.reshape(6, 2), 0.1)
        for a, b in zip((psi, dpsi_dt, grad, hess, tmix), flat):
            assert np.array_equal(a.reshape(b.shape), b)
