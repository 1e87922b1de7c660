"""Grid, sampled-field, and analytic-catalog tests.

The catalog's closed-form jets are cross-checked against plain central
finite differences of the evaluation itself, at two step sizes, so the
exact derivatives are validated by an independent route before anything
else relies on them.
"""

import math
import tracemalloc

import numpy as np
import pytest

import wavevel as wv
from wavevel.fields import canonical_time_axis

ALL_KINDS = [
    wv.PlaneWave((2.0, 1.0), 3.0),
    wv.TranslatingGaussian((0.7, 0.0), 1.0),
    wv.StaticGaussian(1.0),
    wv.ExpandingGaussianRing(0.3, 0.4, radius0=1.0),
    wv.Polynomial(((0.4, (4, 0), 0), (0.3, (1, 3), 1), (2.0, (0, 0), 1), (1.0, (2, 1), 0))),
]


class TestGrid:
    def test_valid_construction(self):
        g = wv.make_grid(2, [64, 64], [0.1, 0.1], [0.0, 0.0])
        assert g.dim == 2
        assert g.shape == (64, 64)
        assert g.point((3, 5)) == pytest.approx([0.3, 0.5])

    def test_minimal_extent(self):
        g = wv.make_grid(1, [5], [1.0], [0.0])
        assert g.shape == (5,)

    def test_extent_too_small(self):
        with pytest.raises(ValueError):
            wv.make_grid(2, [4, 64], [0.1, 0.1], [0.0, 0.0])

    def test_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            wv.make_grid(1, [8], [0.0], [0.0])
        with pytest.raises(ValueError):
            wv.make_grid(1, [8], [-0.1], [0.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            wv.make_grid(3, [8, 8], [0.1, 0.1], [0.0, 0.0])
        with pytest.raises(ValueError):
            wv.make_grid(0, [], [], [])

    def test_axis_lengths_must_match(self):
        with pytest.raises(ValueError, match="must have equal length"):
            wv.Grid((8, 8), (0.1,), (0.0, 0.0))
        with pytest.raises(ValueError, match="must have equal length"):
            wv.Grid((8, 8), (0.1, 0.1), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("origin", [np.nan, np.inf, -np.inf])
    def test_nonfinite_origin(self, origin):
        with pytest.raises(ValueError, match="origin must be finite"):
            wv.make_grid(2, [8, 8], 0.1, [0.0, origin])

    def test_npoints_does_not_wrap(self):
        # 2^21 * 2^21 * 2^22 = 2^64 points: 0 in int64 arithmetic
        g = wv.Grid((2**21, 2**21, 2**22), (1.0,) * 3, (0.0,) * 3)
        assert g.npoints == 2**64

    def test_points_and_index_roundtrip(self):
        g = wv.make_grid(2, [6, 7], [0.5, 0.25], [-1.0, 2.0])
        pts = g.points()
        assert pts.shape == (6, 7, 2)
        assert np.allclose(g.index_of(pts[3, 4]), [3, 4])


class TestSampledField:
    def test_times_canonicalized(self):
        g = wv.make_grid(1, [5], [1.0], [0.0])
        f = wv.SampledField.from_times(g, np.linspace(0.0, 0.4, 5), np.zeros((5, 5)))
        assert f.dt == pytest.approx(0.1)
        assert np.array_equal(f.times, f.t0 + f.dt * np.arange(5))

    def test_nonuniform_times_rejected(self):
        g = wv.make_grid(1, [5], [1.0], [0.0])
        with pytest.raises(ValueError):
            wv.SampledField.from_times(g, [0.0, 0.1, 0.25], np.zeros((3, 5)))
        with pytest.raises(ValueError):
            wv.SampledField.from_times(g, [0.0, 0.1, 0.1], np.zeros((3, 5)))

    @pytest.mark.parametrize("t0, dt", [(np.nan, 0.1), (np.inf, 0.1), (0.0, np.nan),
                                        (0.0, -np.inf)])
    def test_nonfinite_time_axis_rejected(self, t0, dt):
        grid = wv.make_grid(1, [8], [0.1], [0.0])
        with pytest.raises(ValueError, match="t0 and dt must be finite"):
            wv.SampledField(grid, t0, dt, np.zeros((3, 8)))

    @pytest.mark.parametrize("frames, dt, message", [
        (3, 0.0, "dt must be positive for multi-frame fields"),
        (3, -0.1, "dt must be positive for multi-frame fields"),
        (1, -0.1, "dt must be non-negative"),
    ])
    def test_time_step_sign(self, frames, dt, message):
        grid = wv.make_grid(1, [8], [0.1], [0.0])
        with pytest.raises(ValueError, match=message):
            wv.SampledField(grid, 0.0, dt, np.zeros((frames, 8)))
        assert wv.SampledField(grid, 0.0, 0.0, np.zeros((1, 8))).frames == 1

    @pytest.mark.parametrize("times, message", [
        ([], "times must be a non-empty 1-d sequence"),
        ([0.0, np.nan, 0.2], "times must be finite"),
        ([np.inf], "times must be finite"),
    ])
    def test_time_stamps_rejected(self, times, message):
        with pytest.raises(ValueError, match=message):
            canonical_time_axis(times)

    def test_shape_mismatch_rejected(self):
        g = wv.make_grid(1, [5], [1.0], [0.0])
        with pytest.raises(ValueError):
            wv.SampledField(g, 0.0, 0.1, np.zeros((3, 4)))

    def test_nonfinite_rejected(self):
        g = wv.make_grid(1, [5], [1.0], [0.0])
        vals = np.zeros((1, 5))
        vals[0, 2] = np.inf
        with pytest.raises(ValueError):
            wv.SampledField(g, 0.0, 0.0, vals)

    def test_nonfinite_in_last_frame_rejected(self):
        g = wv.make_grid(2, [5, 6], [1.0, 1.0], [0.0, 0.0])
        vals = np.zeros((6, 5, 6))
        vals[-1, 4, 5] = np.nan
        with pytest.raises(ValueError, match="field values must be finite"):
            wv.SampledField(g, 0.0, 0.1, vals)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("frame", (0, 3, 6))  # first, middle, last
    def test_nonfinite_sample_in_any_frame_rejected(self, frame, bad):
        g = wv.make_grid(2, [5, 6], [1.0, 1.0], [0.0, 0.0])
        vals = np.random.default_rng(frame).standard_normal((7, 5, 6))
        vals[frame, 2, 3] = bad
        with pytest.raises(ValueError, match="field values must be finite"):
            wv.SampledField(g, 0.0, 0.1, vals)

    def test_finiteness_check_allocates_no_mask(self):
        # the values are contiguous float64, so construction copies nothing; a
        # per-frame isfinite mask would be 1/8 of a frame, 1.6% of this payload
        g = wv.make_grid(2, [256, 256], [0.05, 0.05], [-6.4, -6.4])
        vals = np.random.default_rng(3).standard_normal((8, 256, 256))
        tracemalloc.start()
        try:
            field = wv.SampledField(g, 0.0, 0.01, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.values is vals
        assert peak < 0.01 * vals.nbytes


class TestSample:
    def test_translating_gaussian_value(self):
        # direct evaluation oracle: exp(-(0.01 + 0.04)) at (0.1, 0.2), t=0
        f = wv.TranslatingGaussian((0.7, 0.0), 1.0)
        g = wv.make_grid(2, [5, 5], [0.1, 0.1], [0.1, 0.0])
        sf = wv.sample(f, g, [0.0])
        assert sf.values[0, 0, 2] == pytest.approx(math.exp(-0.05), rel=1e-15)

    def test_plane_wave_zero_phase(self):
        f = wv.PlaneWave((2.0, 1.0), 3.0)
        g = wv.make_grid(2, [5, 5], [0.5, 0.5], [-1.0, -1.0])
        sf = wv.sample(f, g, [0.0])
        assert sf.values[0, 2, 2] == 0.0  # sin(0) at the origin

    def test_static_gaussian_reflection_symmetry(self):
        f = wv.StaticGaussian(0.8)
        g = wv.make_grid(2, [9, 9], [0.25, 0.25], [-1.0, -1.0])
        sf = wv.sample(f, g, [0.0])
        v = sf.values[0]
        assert np.array_equal(v, v[::-1, :])
        assert np.array_equal(v, v[:, ::-1])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown field kind"):
            wv.make_field("spiral-wave")

    @pytest.mark.parametrize("kind, params, message", [
        ("translating-gaussian", {"velocity": (0.7, 0.0)}, "needs parameter 'sigma'"),
        ("translating-gaussian", {"velocity": (0.7, 0.0), "sigma": 1.0, "bogus": 2.0},
         "has no parameter 'bogus'"),
        ("plane-wave", {"wave_vector": (2.0, 1.0), "angular_frequency": 3.0,
                        "amplitude": (1.0, 2.0)}, "parameter 'amplitude' of field kind"),
        # text for a vector raised "could not convert string to float"
        ("plane-wave", {"wave_vector": "2,x", "angular_frequency": 3.0},
         "parameter 'wave_vector' of field kind 'plane-wave' takes numbers, not the text '2,x'"),
        # these raised a TypeError or said only "gaussian parameters must be finite"
        ("plane-wave", {"wave_vector": (1.0, None), "angular_frequency": 3.0},
         "parameter 'wave_vector' of field kind 'plane-wave' must be finite"),
        ("translating-gaussian", {"velocity": ((0.7, 0.0), (0.1, 0.2)), "sigma": 1.0},
         "parameter 'velocity' of field kind 'translating-gaussian' must be a vector of numbers"),
        ("translating-gaussian", {"velocity": (np.nan, 0.0), "sigma": 1.0},
         "parameter 'velocity' of field kind 'translating-gaussian' must be finite"),
        ("static-gaussian", {"sigma": np.inf},
         "parameter 'sigma' of field kind 'static-gaussian' must be finite"),
        ("expanding-gaussian-ring", {"speed": 0.3, "width": 0.4, "radius0": -np.inf},
         "parameter 'radius0' of field kind 'expanding-gaussian-ring' must be finite"),
        ("plane-wave", {"wave_vector": (0.0, 0.0), "angular_frequency": 3.0},
         "parameter 'wave_vector' of field kind 'plane-wave' must be nonzero"),
        ("static-gaussian", {"sigma": 0.0},
         "parameter 'sigma' of field kind 'static-gaussian' must be positive"),
        ("expanding-gaussian-ring", {"speed": 0.3, "width": -0.4},
         "parameter 'width' of field kind 'expanding-gaussian-ring' must be positive"),
    ], ids=("missing", "unknown", "vector-for-number", "text-for-vector", "none-entry",
            "nested-vector", "nan-vector", "infinite-number", "infinite-ring-number",
            "zero-wave-vector", "zero-sigma", "negative-width"))
    def test_bad_parameter_names_kind_and_parameter(self, kind, params, message):
        # the first three raised a TypeError from the catalog constructor
        with pytest.raises(ValueError, match=message) as info:
            wv.make_field(kind, **params)
        assert repr(kind) in str(info.value)
        if message.startswith("parameter "):  # a bad value: the constructor says the same
            with pytest.raises(ValueError, match=message):
                wv.fields.FIELD_KINDS[kind](**params)

    @pytest.mark.parametrize("terms", [(1.0,), 5.0, ((1.0, 2, 0),)],
                             ids=("bare-float", "number", "int-exponents"))
    def test_malformed_polynomial_terms(self, terms):
        # each raised a TypeError from unpacking inside the constructor
        with pytest.raises(ValueError, match="parameter 'terms' of field kind 'polynomial'") as info:
            wv.make_field("polynomial", terms=terms)
        assert "(coefficient, spatial_exponents, time_exponent) triples" in str(info.value)

    @pytest.mark.parametrize("terms, message", [
        (((1.0, (1, 0), 0), (1.0, (1,), 0)), "all terms must share the spatial dimension"),
        (((1.0, (1, -1), 0),), "exponents must be non-negative"),
        (((1.0, (1, 1), -1),), "exponents must be non-negative"),
        (((np.nan, (1, 1), 0),), "coefficients must be finite"),
        (((np.inf, (1, 1), 0),), "coefficients must be finite"),
        ((), "polynomial needs at least one term"),
    ])
    def test_polynomial_term_rules(self, terms, message):
        with pytest.raises(ValueError, match=message):
            wv.Polynomial(terms)

    def test_nonfinite_parameter(self):
        with pytest.raises(ValueError):
            wv.make_field("translating-gaussian", velocity=(np.nan, 0.0), sigma=1.0)
        with pytest.raises(ValueError):
            wv.make_field("plane-wave", wave_vector=(0.0, 0.0), angular_frequency=1.0)

    def test_dim_mismatch(self):
        f = wv.PlaneWave((2.0, 1.0, 0.5), 3.0)
        g = wv.make_grid(2, [5, 5], [0.1, 0.1], [0.0, 0.0])
        with pytest.raises(ValueError):
            wv.sample(f, g, [0.0])


def _fd_jet_of_value(field, pts, t, h):
    """Independent oracle: 2nd-order central differences of the evaluation."""
    n = field.dim
    m = pts.shape[0]
    eye = np.eye(n)
    grad = np.empty((m, n))
    hess = np.empty((m, n, n))
    tmix = np.empty((m, n))
    dpsi_dt = (field.value(pts, t + h) - field.value(pts, t - h)) / (2 * h)
    for a in range(n):
        ea = h * eye[a]
        grad[:, a] = (field.value(pts + ea, t) - field.value(pts - ea, t)) / (2 * h)
        hess[:, a, a] = (
            field.value(pts + ea, t) - 2 * field.value(pts, t) + field.value(pts - ea, t)
        ) / h**2
        tmix[:, a] = (
            field.value(pts + ea, t + h)
            - field.value(pts + ea, t - h)
            - field.value(pts - ea, t + h)
            + field.value(pts - ea, t - h)
        ) / (4 * h * h)
        for b in range(a + 1, n):
            eb = h * eye[b]
            mixed = (
                field.value(pts + ea + eb, t)
                - field.value(pts + ea - eb, t)
                - field.value(pts - ea + eb, t)
                + field.value(pts - ea - eb, t)
            ) / (4 * h * h)
            hess[:, a, b] = mixed
            hess[:, b, a] = mixed
    return dpsi_dt, grad, hess, tmix


class TestAnalyticJets:
    @pytest.mark.parametrize("field", ALL_KINDS, ids=lambda f: f.kind)
    def test_jets_match_value_differences_with_order_2(self, field):
        rng = np.random.default_rng(101)
        pts = rng.uniform(0.35, 1.2, size=(100, 2))  # annulus-safe for the ring
        t = 0.37
        psi, dpsi_dt, grad, hess, tmix = field.jet_arrays(pts, t)
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
        errs = {}
        for h in (2e-3, 1e-3):
            fd_dt, fd_g, fd_h, fd_tm = _fd_jet_of_value(field, pts, t, h)
            errs[h] = dict(
                dt=np.abs(fd_dt - dpsi_dt).max(),
                grad=np.abs(fd_g - grad).max(),
                hess=np.abs(fd_h - hess).max(),
                tmix=np.abs(fd_tm - tmix).max(),
            )
        for comp in ("dt", "grad", "hess", "tmix"):
            e1, e2 = errs[2e-3][comp], errs[1e-3][comp]
            if e1 < 1e-11 and e2 < 1e-11:
                continue  # exact (e.g. static time derivatives); nothing to refine
            order = np.log2(e1 / e2)
            assert order >= 1.9, (field.kind, comp, e1, e2, order)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_jet_value_is_value_bitwise(self, n):
        # value and jet_arrays share one expression per kind
        rng = np.random.default_rng(90 + n)
        kinds = (wv.PlaneWave(tuple(rng.standard_normal(n)), 1.7, amplitude=1.3, phase=0.2),
                 wv.TranslatingGaussian(tuple(rng.standard_normal(n)), 0.9,
                                        center=tuple(0.1 * rng.standard_normal(n))),
                 wv.StaticGaussian(0.8, center=tuple(0.1 * rng.standard_normal(n))),
                 wv.ExpandingGaussianRing(0.3, 0.4, radius0=0.6, center=(0.05,) * n),
                 wv.Polynomial(((0.4, (2,) * n, 0), (-1.1, tuple(range(n)), 2),
                                (2.0, (0,) * n, 1))))
        pts = rng.uniform(-1.2, 1.2, size=(40, n))
        pts[3, 0] = -0.0
        for field in kinds:
            for t in (-0.37, 0.0, 0.51):
                assert np.array_equal(field.jet_arrays(pts, t)[0], field.value(pts, t))

    def test_plane_wave_closed_form(self):
        # hand differentiation: grad = (2 cos, 1 cos), psi_t = -3 cos at theta
        f = wv.PlaneWave((2.0, 1.0), 3.0)
        pt = np.array([0.3, 0.7])
        t = 0.11
        theta = 2.0 * 0.3 + 1.0 * 0.7 - 3.0 * t
        j = f.jet2(pt, t)
        assert j.grad == pytest.approx([2 * np.cos(theta), np.cos(theta)], rel=1e-14)
        assert j.dpsi_dt == pytest.approx(-3 * np.cos(theta), rel=1e-14)
        assert j.hessian == pytest.approx(
            -np.sin(theta) * np.array([[4.0, 2.0], [2.0, 1.0]]), rel=1e-14
        )

    def test_translating_gaussian_hessian_closed_form(self):
        # hand differentiation at u=0.1, y=0.2: psi * [[4u^2-2, 4uy], [4uy, 4y^2-2]]
        f = wv.TranslatingGaussian((0.7, 0.0), 1.0)
        j = f.jet2(np.array([0.1, 0.2]), 0.0)
        u, y = 0.1, 0.2
        psi = math.exp(-0.05)
        expected = psi * np.array([[4 * u * u - 2, 4 * u * y], [4 * u * y, 4 * y * y - 2]])
        assert j.hessian == pytest.approx(expected, rel=1e-14)

    def test_static_field_time_derivatives_vanish(self):
        f = wv.StaticGaussian(1.3, center=(0.2, -0.4))
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(50, 2))
        _, dpsi_dt, _, _, tmix = f.jet_arrays(pts, 0.8)
        assert np.all(dpsi_dt == 0.0)
        assert np.all(tmix == 0.0)

    @pytest.mark.parametrize("c", [(0.7, 0.0), (0.4, -0.9)])
    def test_advection_identities(self, c):
        # rigid translation: psi_t = -c . grad and tmix = -H c, to 1e-12 relative
        f = wv.TranslatingGaussian(c, 1.2)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(200, 2))
        _, dpsi_dt, grad, hess, tmix = f.jet_arrays(pts, 0.3)
        cv = np.asarray(c)
        lhs = dpsi_dt
        rhs = -grad @ cv
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()
        rhs_tm = -hess @ cv
        assert np.abs(tmix - rhs_tm).max() <= 1e-12 * np.abs(tmix).max()

    def test_ring_center_rejected(self):
        f = wv.ExpandingGaussianRing(0.3, 0.4, radius0=1.0)
        with pytest.raises(ValueError, match="center"):
            f.jet2(np.array([0.0, 0.0]), 0.0)

    def test_polynomial_exact_jets(self):
        f = wv.Polynomial(((1.0, (2, 0), 0), (3.0, (1, 1), 0), (2.0, (0, 0), 1)))
        j = f.jet2(np.array([0.5, -1.5]), 0.7)
        assert j.psi == pytest.approx(0.25 + 3 * 0.5 * -1.5 + 1.4, rel=1e-15)
        assert j.grad == pytest.approx([2 * 0.5 + 3 * -1.5, 3 * 0.5], rel=1e-15)
        assert j.dpsi_dt == 2.0
        assert np.array_equal(j.hessian, [[2.0, 3.0], [3.0, 0.0]])
        assert np.array_equal(j.time_mixed, [0.0, 0.0])

    def test_analytic_jet_field_matches_pointwise(self):
        f = wv.TranslatingGaussian((0.7, 0.0), 1.0)
        g = wv.make_grid(2, [6, 5], [0.3, 0.4], [-0.7, -0.9])
        jf = wv.analytic_jet_field(f, g, 0.2)
        assert jf.valid.all()
        j = jf.jet2_at((3, 2))
        ref = f.jet2(g.point((3, 2)), 0.2)
        assert j.grad == pytest.approx(ref.grad, rel=1e-15)
        assert j.hessian == pytest.approx(ref.hessian, rel=1e-15)


class TestJetTypes:
    def test_jet2_mirrors_upper_triangle(self):
        j1 = wv.Jet1(0.0, 1.0, np.array([1.0, 2.0]))
        j2 = wv.Jet2(j1, np.array([[1.0, 5.0], [99.0, 2.0]]), np.array([0.0, 0.0]))
        assert j2.hessian[1, 0] == 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            wv.Jet1(np.nan, 0.0, np.array([1.0]))
        j1 = wv.Jet1(0.0, 1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            wv.Jet2(j1, np.array([[np.inf]]), np.array([0.0]))
