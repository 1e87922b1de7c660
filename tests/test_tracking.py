"""Tracking-oracle tests: critical points, peak tracks, level crossings."""

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from functools import reduce

import numpy as np
import pytest

import wavevel as wv
from wavevel import tracking
from wavevel.fields import canonical_time_axis
from wavevel.tracking import AttributeLostError, _WindowRun
from wavevel.velocities import _order_zero, _solve_order_one

PEAK = wv.AttributeSpec.gradient_set((0.0, 0.0))
BOUNDARIES = ("shrink-to-valid", "one-sided")
PARTS = ("dpsi_dt", "grad", "hessian", "time_mixed")  # a run that holds every jet part


def _whole(jets):
    """The frame source of one jet field on its whole grid: its frame is 0."""
    return _WindowRun.whole(jets)


def _level_speed(grad, psi_t, axis) -> float:
    """A level track's computed speed: N times the order-zero kernel's axis
    component, NaN where that is not finite."""
    speed = len(grad) * float(_order_zero(np.asarray(grad, dtype=float), psi_t)[1][axis])
    return speed if math.isfinite(speed) else math.nan


def _sampled_gaussian(sigma=3.0, c=(0.7, 0.0), h=0.05, dt=0.02, npts=64, frames=9):
    field = wv.TranslatingGaussian(c, sigma)
    grid = wv.make_grid(2, (npts, npts), h, -(npts - 1) * h / 2)
    times = dt * np.arange(frames) - dt * (frames // 2)
    return field, grid, wv.sample(field, grid, times)


class TestFindCriticalPoint:
    def test_static_gaussian_center(self):
        field = wv.StaticGaussian(2.0, center=(0.1, -0.05))
        grid = wv.make_grid(2, (64, 64), 0.05, -1.575)
        sf = wv.sample(field, grid, 0.01 * np.arange(5))
        jets = wv.fd_jet_field(sf, 2)
        x = wv.find_critical_point(jets, (33, 30), PEAK)
        # quadratic-interp bias measured at 2.1e-3 h^2 worst case; allow 2x
        assert np.abs(x - [0.1, -0.05]).max() <= 4e-3 * 0.05**2 + 1e-5

    def test_translating_peak_position(self):
        field, grid, sf = _sampled_gaussian()
        jets = wv.fd_jet_field(sf, 4)
        seed = np.unravel_index(np.argmax(sf.values[4]), grid.shape)
        x = wv.find_critical_point(jets, seed, PEAK)
        true_peak = np.array([0.7 * sf.time(4), 0.0])
        assert np.abs(x - true_peak).max() <= 4e-3 * 0.05**2

    def test_plain_target_vector_accepted(self):
        field, grid, sf = _sampled_gaussian()
        jets = wv.fd_jet_field(sf, 4)
        seed = np.unravel_index(np.argmax(sf.values[4]), grid.shape)
        x = wv.find_critical_point(jets, seed, (0.0, 0.0))
        assert np.isfinite(x).all()

    def test_nonzero_gradient_target(self):
        # grad psi = (0.2, 0.1) on a known gaussian: solvable in closed form
        field = wv.StaticGaussian(1.0)
        grid = wv.make_grid(2, (64, 64), 0.05, -1.575)
        sf = wv.sample(field, grid, 0.01 * np.arange(5))
        jets = wv.fd_jet_field(sf, 2, wv.StencilSpec(4, "shrink-to-valid"))
        target = wv.AttributeSpec.gradient_set((0.2, 0.1))
        x = wv.find_critical_point(jets, (29, 30), target)
        exact = field.jet2(x, 0.0)
        # interpolation bias bounds how well the exact gradient is matched
        assert exact.grad == pytest.approx([0.2, 0.1], abs=5e-4)

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_end_frame_jets_locate_the_tracked_peak(self, boundary):
        # frame 0 has no time window under shrink-to-valid, but its jets
        # keep the gradient and the Hessian, so the critical point is found
        # where the tracker finds it
        field, grid, sf = _sampled_gaussian()
        spec = wv.StencilSpec(4, boundary)
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        x = wv.find_critical_point(wv.fd_jet_field(sf, 0, spec), seed, PEAK)
        track = wv.track_attribute(sf, PEAK, seed, spec=spec)
        assert np.array_equal(x.view(np.uint64), track.positions[0].view(np.uint64))

    def test_flat_region_no_convergence(self):
        # far tail: Newton drifts outward slowly and exhausts its budget
        grid = wv.make_grid(2, (65, 65), 0.075, -2.4)
        jets = wv.analytic_jet_field(wv.StaticGaussian(0.15), grid, 0.0)
        with pytest.raises(wv.NoConvergenceError):
            wv.find_critical_point(jets, (7, 7), PEAK)

    def test_flat_region_no_convergence_analytic_route(self):
        with pytest.raises(wv.NoConvergenceError):
            wv.track_attribute(
                wv.StaticGaussian(0.5), PEAK, np.array([5.0, 5.0]), times=[0.0, 0.1, 0.2]
            )

    def test_level_set_target_rejected(self):
        field, grid, sf = _sampled_gaussian()
        jets = wv.fd_jet_field(sf, 4)
        with pytest.raises(ValueError):
            wv.find_critical_point(jets, (32, 32), wv.AttributeSpec.level_set(0.5))


class TestGradientTracking:
    def test_translating_peak_matches_first_order_velocity(self):
        field, grid, sf = _sampled_gaussian()
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        res = wv.track_attribute(sf, PEAK, seed)
        assert res.deviation <= 1e-3
        # empirical central differences land on the true velocity
        assert res.empirical_velocity[4] == pytest.approx([0.7, 0.0], abs=2e-3)

    def test_deviation_refines_at_second_order(self):
        _, g1, sf1 = _sampled_gaussian(h=0.05, dt=0.02, npts=64)
        _, g2, sf2 = _sampled_gaussian(h=0.025, dt=0.01, npts=128)
        r1 = wv.track_attribute(sf1, PEAK, np.unravel_index(np.argmax(sf1.values[0]), g1.shape))
        r2 = wv.track_attribute(sf2, PEAK, np.unravel_index(np.argmax(sf2.values[0]), g2.shape))
        assert np.log2(r1.deviation / r2.deviation) >= 1.9

    def test_static_track_is_stationary(self):
        field = wv.StaticGaussian(2.0)
        grid = wv.make_grid(2, (64, 64), 0.05, -1.575)
        sf = wv.sample(field, grid, 0.01 * np.arange(5))
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        res = wv.track_attribute(sf, PEAK, seed)
        assert np.abs(res.empirical_velocity).max() <= 1e-12
        assert np.nanmax(np.abs(res.computed_velocity)) <= 1e-12

    def test_track_is_straight_line(self):
        field, grid, sf = _sampled_gaussian()
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        res = wv.track_attribute(sf, PEAK, seed)
        p = res.positions
        direction = p[-1] - p[0]
        direction /= np.linalg.norm(direction)
        rel = p - p[0]
        perp = rel - np.outer(rel @ direction, direction)
        assert np.abs(perp).max() <= 2 * 0.05**2

    def test_endpoint_frames_use_one_sided_differences(self):
        field, grid, sf = _sampled_gaussian()
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        res = wv.track_attribute(sf, PEAK, seed)
        m = res.positions.shape[0]
        dt = sf.dt
        assert res.empirical_velocity[0] == pytest.approx(
            (res.positions[1] - res.positions[0]) / dt
        )
        assert res.empirical_velocity[-1] == pytest.approx(
            (res.positions[-1] - res.positions[-2]) / dt
        )
        # end frames have no time window under shrink-to-valid
        assert np.isnan(res.computed_velocity[0]).all()
        assert np.isnan(res.computed_velocity[m - 1]).all()

    def test_analytic_track_machine_accurate(self):
        field = wv.TranslatingGaussian((0.7, 0.0), 1.0)
        res = wv.track_attribute(field, PEAK, np.array([0.04, -0.03]),
                                 times=0.01 * np.arange(9))
        assert res.deviation <= 1e-8
        assert res.positions[-1] == pytest.approx([0.7 * 0.08, 0.0], abs=1e-9)

    def test_attribute_leaving_grid_raises(self):
        field = wv.TranslatingGaussian((40.0, 0.0), 1.0)  # exits after one frame
        grid = wv.make_grid(2, (32, 32), 0.05, -0.775)
        sf = wv.sample(field, grid, 0.02 * np.arange(5))
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        with pytest.raises(wv.TrackingError):
            wv.track_attribute(sf, PEAK, seed)

    def test_too_few_frames(self):
        field = wv.StaticGaussian(1.0)
        grid = wv.make_grid(2, (16, 16), 0.1, -0.75)
        sf = wv.sample(field, grid, [0.0, 0.1])
        with pytest.raises(ValueError):
            wv.track_attribute(sf, PEAK, (8, 8))


class TestLevelSetTracking:
    def test_plane_wave_crossing_speed_is_dimension_times_component(self):
        # closed form: the sin(k.x - w t) = c crossing along axis i moves at
        # omega / k_i, which is exactly N times the order-zero component
        pw = wv.PlaneWave((2.0, 1.0), 3.0)
        attr = wv.AttributeSpec.level_set(0.3)
        res = wv.track_attribute(pw, attr, np.array([0.2, 0.1]),
                                 times=0.01 * np.arange(9), search_radius=0.6)
        assert res.deviation <= 1e-10
        assert res.empirical_velocity[4] == pytest.approx([1.5, 3.0], rel=1e-10)

    def test_plane_wave_crossings_meet_the_root_tolerance(self):
        # every analytic crossing lies within brentq's 1e-14 + 8.9e-16 |x| of the
        # exact root of sin(k.x - w t) = c, also where the coordinates are near 1e6
        # (the seeds there sit half a radian past the level's phase, as (0.2, 0.1) does)
        k, w, level = (2.0, 1.0), 3.0, 0.3
        pw = wv.PlaneWave(k, w)
        seeds = [(0.2, 0.1)]
        for x1 in (1e6, -1e6, 1012345.678, 4e6):
            n = round(3.0 * x1 / (2.0 * math.pi))
            seeds.append(((0.5 + 2.0 * math.pi * n - x1) / 2.0, x1))
        for seed in seeds:
            res = wv.track_attribute(pw, wv.AttributeSpec.level_set(level), np.array(seed),
                                     times=0.01 * np.arange(9), search_radius=0.6)
            for t, row in zip(res.times.tolist(), res.positions.tolist()):
                for axis, x in enumerate(row):
                    gap = _plane_wave_root_gap(k, w, level, seed, axis, t, x)
                    assert gap <= 1e-14 + 8.9e-16 * abs(x), (seed, t, axis, gap)

    def test_huge_amplitude_crossings_equal_unit_amplitude_bitwise(self):
        # the linear crossing forms its fraction before the product with the step:
        # (coords[k+1] - coords[k]) * f[k] overflowed at h = 1e10 and amplitude 2**996
        grid = wv.make_grid(1, (41,), 1e10, 0.0)

        def track(amplitude):
            sf = wv.sample(wv.PlaneWave((1e-11,), 0.05, amplitude), grid, np.arange(9.0))
            return wv.track_attribute(sf, wv.AttributeSpec.level_set(0.0), (31,))

        huge, unit = track(2.0**996), track(1.0)
        assert np.array_equal(huge.positions.view(np.uint64), unit.positions.view(np.uint64))
        assert huge.deviation <= 1e-2

    def test_sampled_plane_wave(self):
        pw = wv.PlaneWave((2.0, 1.0), 3.0)
        grid = wv.make_grid(2, (64, 64), 0.05, -1.575)
        sf = wv.sample(pw, grid, 0.01 * np.arange(9))
        res = wv.track_attribute(sf, wv.AttributeSpec.level_set(0.3), (40, 40))
        # linear interpolation of the crossing: measured ~2e-3 at this h
        assert res.deviation <= 1e-2

    def test_no_crossing_raises(self):
        pw = wv.PlaneWave((2.0, 1.0), 3.0)
        attr = wv.AttributeSpec.level_set(2.0)  # outside the amplitude range
        with pytest.raises(wv.AttributeLostError):
            wv.track_attribute(pw, attr, np.array([0.2, 0.1]), times=0.01 * np.arange(5))

    def test_analytic_needs_times(self):
        pw = wv.PlaneWave((2.0, 1.0), 3.0)
        with pytest.raises(ValueError):
            wv.track_attribute(pw, wv.AttributeSpec.level_set(0.3), np.array([0.2, 0.1]))


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _plane_wave_root_gap(k, w, level, seed, axis, t, x) -> float:
    """Distance from ``x`` to the nearest exact root of sin(k.y - w t) = level on the
    axis-``axis`` line through ``seed``, in 60-digit decimals (asin to one rounding)."""
    with localcontext() as ctx:
        ctx.prec = 60
        rest = sum(Decimal(kj) * Decimal(sj) for j, (kj, sj) in enumerate(zip(k, seed))
                   if j != axis) - Decimal(w) * Decimal(t)
        ki, x = Decimal(k[axis]), Decimal(x)
        gaps = []
        for branch in (Decimal(math.asin(level)), _PI - Decimal(math.asin(level))):
            n = ((ki * x + rest - branch) / (2 * _PI)).to_integral_value()
            gaps += [abs((branch + 2 * _PI * m - rest) / ki - x) for m in (n - 1, n, n + 1)]
        return float(min(gaps))


class TestInputChecks:
    @pytest.mark.parametrize("kind", ("gradient", "level"))
    @pytest.mark.parametrize("seed", [
        (32,),  # one index of a 2-d grid: used to broadcast to (32, 32)
        (32, 32, 3),
        (32, 64),  # one past the last index
        (64, 32),
        (-1, 32),  # used to wrap to the far side of the grid
        (32, -3),
        (32.0, 32.0),
        (),
    ])
    def test_sampled_seed_must_be_indices_inside_the_grid(self, kind, seed):
        _, _, sf = _sampled_gaussian()  # 64 x 64
        target = PEAK if kind == "gradient" else wv.AttributeSpec.level_set(0.9)
        with pytest.raises(ValueError, match="seed must be 2 integer indices"):
            wv.track_attribute(sf, target, seed)

    def test_numpy_integer_seeds_accepted(self):
        _, grid, sf = _sampled_gaussian()
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        res = wv.track_attribute(sf, PEAK, np.asarray(seed, dtype=np.uint16))
        assert np.array_equal(res.positions, wv.track_attribute(sf, PEAK, seed).positions)

    def test_critical_point_seed_checked(self):
        _, _, sf = _sampled_gaussian()
        with pytest.raises(ValueError, match="seed must be 2 integer indices"):
            wv.find_critical_point(wv.fd_jet_field(sf, 4), (32, 70), PEAK)

    @pytest.mark.parametrize("targets", [(0.0,), (0.0, 0.0, 0.0)])
    def test_gradient_targets_must_match_the_dimension(self, targets):
        _, _, sf = _sampled_gaussian()
        with pytest.raises(ValueError, match=r"targets must have shape \(2,\)"):
            wv.track_attribute(sf, wv.AttributeSpec.gradient_set(targets), (32, 32))

    @pytest.mark.parametrize("targets", [(np.nan, 0.0), (0.0, np.inf)])
    def test_plain_gradient_targets_must_be_finite(self, targets):
        # a NaN target used to fail as "Newton iterate became non-finite"
        _, _, sf = _sampled_gaussian()
        with pytest.raises(ValueError, match="targets must be finite"):
            wv.find_critical_point(wv.fd_jet_field(sf, 4), (32, 32), targets)

    @pytest.mark.parametrize("seed", [[0.2], [0.2, 0.1, 0.0], [np.nan, 0.1]])
    def test_analytic_seed_must_be_a_finite_point(self, seed):
        pw = wv.PlaneWave((2.0, 1.0), 3.0)
        with pytest.raises(ValueError, match="seed must be a finite point of dimension 2"):
            wv.track_attribute(pw, wv.AttributeSpec.level_set(0.3), np.array(seed),
                               times=0.01 * np.arange(5))

    @pytest.mark.parametrize("kind", ("gradient", "level"))
    def test_sampled_field_rejects_times(self, kind):
        # a sampled field's frames carry their times: times=[5, 6, 7] on this
        # 9-frame field used to be ignored, and the field's own times returned
        _, grid, sf = _sampled_gaussian()
        target = PEAK if kind == "gradient" else wv.AttributeSpec.level_set(0.9)
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        for times in ([5.0, 6.0, 7.0], sf.times):
            with pytest.raises(ValueError, match="times must be None for a SampledField"):
                wv.track_attribute(sf, target, seed, times=times)


    @pytest.mark.parametrize("radius", [-5.0, 0.0, np.nan, np.inf])
    def test_analytic_search_radius_must_be_finite_and_positive(self, radius):
        # -5 tracked like +5, and NaN failed inside brentq
        pw = wv.PlaneWave((2.0, 1.0), 3.0)
        with pytest.raises(ValueError, match="search_radius must be finite and > 0"):
            wv.track_attribute(pw, wv.AttributeSpec.level_set(0.3), np.array([0.2, 0.1]),
                               times=0.01 * np.arange(5), search_radius=radius)

    def test_default_search_radius_is_one_half(self):
        pw = wv.PlaneWave((2.0, 1.0), 3.0)
        args = (pw, wv.AttributeSpec.level_set(0.3), np.array([0.2, 0.1]))
        default = wv.track_attribute(*args, times=0.01 * np.arange(9))
        half = wv.track_attribute(*args, times=0.01 * np.arange(9), search_radius=0.5)
        assert np.array_equal(default.positions, half.positions)
        assert np.array_equal(default.computed_velocity, half.computed_velocity)

    @pytest.mark.parametrize("radius", [0.5, -5.0])
    def test_sampled_field_rejects_search_radius(self, radius):
        # a sampled level track searches whole grid lines: the radius was ignored
        _, grid, sf = _sampled_gaussian()
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        with pytest.raises(ValueError, match="search_radius must be None for a SampledField"):
            wv.track_attribute(sf, wv.AttributeSpec.level_set(0.9), seed, search_radius=radius)

    def test_target_must_be_an_attribute_spec(self):
        _, _, sf = _sampled_gaussian()
        with pytest.raises(TypeError, match="target must be an AttributeSpec"):
            wv.track_attribute(sf, (0.0, 0.0), (32, 32))

    def test_unsupported_field_type(self):
        _, _, sf = _sampled_gaussian()
        with pytest.raises(TypeError, match="cannot track on a JetField"):
            wv.track_attribute(wv.fd_jet_field(sf, 4), PEAK, (32, 32))

    def test_analytic_track_needs_three_times(self):
        with pytest.raises(ValueError, match="tracking needs at least 3 frames"):
            wv.track_attribute(wv.StaticGaussian(1.0), PEAK, np.array([0.1, 0.0]),
                               times=[0.0, 0.1])

    def test_rank_one_hessian_is_singular(self):
        # a plane wave's Hessian -A sin(theta) k k^T has rank 1 everywhere
        with pytest.raises(wv.SingularHessianError, match="singular Hessian"):
            wv.track_attribute(wv.PlaneWave((2.0, 1.0), 3.0), PEAK, np.array([0.3, 0.1]),
                               times=0.01 * np.arange(5))


class TestLostCrossingSpeed:
    def test_crossing_outside_the_valid_jets_leaves_a_nan_speed(self):
        # psi = x + y - 2 t: the crossing of 0.7 on the y ray through x = 0.2
        # reaches y = 0.7 .. 0.9 at frames 2-4, next to the NaN border band of
        # the order-4 jets; those speeds stay NaN while the x ray's are exact
        field = wv.Polynomial(((1.0, (1, 0), 0), (1.0, (0, 1), 0), (-2.0, (0, 0), 1)))
        sf = wv.sample(field, wv.make_grid(2, (12, 12), 0.1, 0.0), 0.05 * np.arange(7))
        res = wv.track_attribute(sf, wv.AttributeSpec.level_set(0.7), (2, 6))
        assert res.positions[:, 1] == pytest.approx(0.5 + 0.1 * np.arange(7))
        assert res.computed_velocity[2:5, 0] == pytest.approx([2.0] * 3)
        assert np.isnan(res.computed_velocity[:, 1]).all()
        run = _WindowRun(sf, wv.StencilSpec(), PARTS)
        with pytest.raises(AttributeLostError, match="valid interior"):
            run.jets(3, np.array([0.2, res.positions[3, 1]]), ("grad", "dpsi_dt"))


class TestCrossingSpeed:
    def test_zero_axis_gradient_is_nan_on_both_sources(self):
        # psi = t + x/2: psi_x = 1/2 and psi_y = 0 everywhere, so the axis-1 speed is undefined
        poly = wv.Polynomial(((1.0, (0, 0), 1), (0.5, (1, 0), 0)))
        grid = wv.make_grid(2, (8, 8), 0.1, 0.0)
        x = grid.point((3.3, 4.6))
        sources = (_whole(wv.analytic_jet_field(poly, grid, 0.0)),
                   tracking._ExactJets(poly, np.array([0.0]), 0.5))
        for source in sources:
            source.crossings = lambda point, axis, level, near: [x[axis]]  # every ray crosses at x
            positions, computed = np.empty((1, 2)), np.empty((1, 2))
            tracking._track_level(source, x, 0.0, positions, computed)
            assert np.array_equal(positions[0], x)
            assert np.isnan(computed[0, 1])
            want = _level_speed(*source.jets(0, x, ("grad", "dpsi_dt")), 0)
            assert computed[0, 0] == want == pytest.approx(-2.0, rel=1e-14)


class TestLevelOracleKernel:
    """A level track's computed speed is N times the component of the public
    order-zero velocity at the frame source's jets, bit for bit."""

    @staticmethod
    def _assert_kernel_speeds(res, seed, source):
        n = len(seed)
        for frame in range(len(res.times)):
            for axis in range(n):
                point = np.array(seed, dtype=float)
                point[axis] = res.positions[frame, axis]
                want = math.nan
                if source.timed[frame]:
                    try:
                        grad, psi_t = source.jets(frame, point, ("grad", "dpsi_dt"))
                        jet = wv.Jet1(0.0, psi_t, grad)
                        want = n * float(wv.zero_order_velocity(jet).components[axis])
                    except (AttributeLostError, ValueError):  # no jets, or no velocity
                        pass
                want = want if math.isfinite(want) else math.nan
                got = res.computed_velocity[frame, axis]
                assert np.array_equal(np.float64(got).view(np.uint64),
                                      np.float64(want).view(np.uint64)), (frame, axis, got, want)

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("dim", (2, 3))
    def test_sampled_level_tracks(self, dim, boundary):
        field, target, seed = _moving_bump_track(dim, "level")
        spec = wv.StencilSpec(4, boundary)
        res = wv.track_attribute(field, target, seed, spec=spec)
        assert res.deviation <= 0.1  # a real track
        self._assert_kernel_speeds(res, field.grid.point(seed), _WindowRun(field, spec, PARTS))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_analytic_level_tracks(self, dim):
        velocity = (0.7, 0.3) if dim == 2 else (0.3, 0.2, -0.25)
        bump = wv.TranslatingGaussian(velocity, 0.4)
        direction = np.array((1.0, 1.25, 0.9)[:dim])
        seed = 0.4 * np.sqrt(np.log(2.0)) * direction / np.linalg.norm(direction)
        res = wv.track_attribute(bump, wv.AttributeSpec.level_set(0.5), seed,
                                 times=0.02 * np.arange(9) - 0.08, search_radius=0.3)
        assert res.deviation <= 0.1
        self._assert_kernel_speeds(res, seed, tracking._ExactJets(bump, res.times, 0.3))


class TestNoRuntimeWarning:
    """Overflowing fields fail as tracking errors, never as a RuntimeWarning."""

    @staticmethod
    def _huge_noise(dim, scale, h, dt):
        values = scale * np.random.default_rng(0).standard_normal((7,) + (9,) * dim)
        return wv.SampledField(wv.make_grid(dim, (9,) * dim, h, 0.0), 0.0, dt, values)

    def _tracks(self):
        # time rows of +-inf where |psi| / dt overflows, interpolated at a crossing
        yield (self._huge_noise(2, 6.4e223, 690.0, 7.3e-151),
               wv.AttributeSpec.level_set(0.0), (4, 4))
        # ||H||_F ** N overflows at a Newton iterate
        yield (self._huge_noise(3, 6.4e138, 1.5e7, 1.4e217),
               wv.AttributeSpec.gradient_set((0.0,) * 3), (4, 4, 4))
        # crossings 1e150 apart over dt = 1e-160: the empirical speeds overflow
        grid = wv.make_grid(2, (15, 15), 1.0, -7.0)
        values = wv.sample(wv.TranslatingGaussian((0.3, 0.2), 3.0), grid, np.arange(7.0)).values
        h = 1e150
        yield (wv.SampledField(wv.make_grid(2, (15, 15), h, -7 * h), 0.0, 1e-160, values),
               wv.AttributeSpec.level_set(0.5), (9, 9))

    def test_overflowing_tracks_raise_no_runtime_warning(self):
        for field, target, seed in self._tracks():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    wv.track_attribute(field, target, seed)
                except wv.TrackingError:
                    pass


class TestAttributeSpec:
    def test_exactly_one_kind(self):
        with pytest.raises(ValueError):
            wv.AttributeSpec("level-set")
        with pytest.raises(ValueError):
            wv.AttributeSpec("gradient-set", level=0.5, gradient_targets=(0, 0))
        with pytest.raises(ValueError):
            wv.AttributeSpec("ridge")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_level_and_targets(self, value):
        # a NaN level used to fail as a tracking error on every frame
        with pytest.raises(ValueError, match="level must be finite"):
            wv.AttributeSpec.level_set(value)
        with pytest.raises(ValueError, match="gradient targets must be finite"):
            wv.AttributeSpec.gradient_set((value, 0.0))

    def test_constructors(self):
        a = wv.AttributeSpec.level_set(0.25)
        assert a.kind == "level-set" and a.level == 0.25
        b = wv.AttributeSpec.gradient_set((0.1, 0.2))
        assert b.kind == "gradient-set" and b.gradient_targets == (0.1, 0.2)


# --------------------------------------------------------------------------
# windowed jets: tracking on a SampledField reads fd jets through small
# windows of the grid; they must equal the full-grid jets bit for bit


def _interpolated(source, frame, x):
    """Interpolated gradient, Hessian, time_mixed and dpsi_dt of ``frame`` at
    ``x``, or the AttributeLostError message when the point has no valid block."""
    try:
        return source.jets(frame, x, ("grad", "hessian", "time_mixed", "dpsi_dt"))
    except AttributeLostError as exc:
        return str(exc)


def _assert_same(windowed, full):
    if isinstance(full, str):
        assert windowed == full
        return
    assert not isinstance(windowed, str), windowed
    for w, f in zip(windowed, full):  # bits: the time parts of an untimed frame are NaN
        assert np.array_equal(np.asarray(w).view(np.uint64), np.asarray(f).view(np.uint64))


def _random_field(dim, frames=9, seed=5):
    rng = np.random.default_rng(seed)
    n = 40 if dim == 2 else 28  # wider than every window, so windows are cut
    grid = wv.make_grid(dim, (n,) * dim, 0.05, -0.3)
    return wv.SampledField(grid, 0.1, 0.02, rng.standard_normal((frames,) + grid.shape))


class TestWindowedJets:
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("dim", (2, 3))
    def test_windows_equal_full_grid_jets(self, dim, order, boundary):
        field = _random_field(dim)
        spec = wv.StencilSpec(order, boundary)
        top = np.asarray(field.grid.shape) - 1.0
        mid = top / 2
        fids = [
            mid + 0.3,  # interior
            np.where(np.arange(dim) == 0, 0.3, mid),  # at a grid face
            np.where(np.arange(dim) == 0, top, mid - 0.4),  # on a grid face
            top - 0.2,  # at a grid corner
            np.zeros(dim),  # on a grid corner
        ]
        # end frames: no time window under shrink-to-valid, so NaN time parts
        for frame in (field.frames // 2, 0, field.frames - 1):
            full = _whole(wv.fd_jet_field(field, frame, spec))
            for fid in fids:
                x = field.grid.point(fid)
                # a fresh run opens its first window at this point
                run = _WindowRun(field, spec, PARTS)
                expected = _interpolated(full, 0, x)
                _assert_same(_interpolated(run, frame, x), expected)
                if not isinstance(expected, str):
                    assert run.stacks["psi"][0].size < field.grid.npoints

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("dim", (2, 3))
    def test_point_walking_out_of_its_window(self, dim, boundary):
        field = _random_field(dim)
        spec = wv.StencilSpec(4, boundary)
        frame = field.frames // 2
        full = _whole(wv.fd_jet_field(field, frame, spec))
        run = _WindowRun(field, spec, PARTS)
        top = np.asarray(field.grid.shape) - 1.0
        offsets = []
        for s in np.linspace(0.0, 1.0, 41):
            x = field.grid.point(s * top + 0.13)
            _assert_same(_interpolated(run, frame, x), _interpolated(full, 0, x))
            offsets.append(run.lo)
        assert len(set(offsets)) >= 2  # the diagonal walk left its first window

    def test_whole_jet_field_is_one_window(self):
        field, grid, sf = _sampled_gaussian()
        jets = wv.fd_jet_field(sf, 4)
        run = _whole(jets)
        seed = np.unravel_index(np.argmax(sf.values[4]), grid.shape)
        x = tracking._newton_iterations(run, 0, grid.point(seed), np.zeros(2))[0]
        assert np.array_equal(x, wv.find_critical_point(jets, seed, PEAK))
        for fid in ([1.2, 1.0], [62.0, 61.7], [30.4, 2.2], [4.4, 5.6]):
            _interpolated(run, 0, grid.point(fid))
        assert all(np.shares_memory(stack, getattr(jets, name))
                   for name, stack in run.stacks.items()) and not any(run.lo)


class TestWindowRuns:
    @pytest.mark.parametrize("run_points", (1, 3000, 10**6))  # one frame, a few, all
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("dim", (2, 3))
    def test_shared_run_serves_every_frame(self, dim, order, boundary, run_points, monkeypatch):
        monkeypatch.setattr(tracking, "_RUN_POINTS", run_points)
        field = _random_field(dim)
        spec = wv.StencilSpec(order, boundary)
        run = _WindowRun(field, spec, PARTS)
        full = [_whole(wv.fd_jet_field(field, f, spec)) for f in range(field.frames)]
        top = np.asarray(field.grid.shape) - 1.0
        # frames forward and back, at a point moving half a cell a frame
        visits = [(f, top / 2 + 0.5 * f - 2.1) for f in range(field.frames)]
        visits += [(f, top / 3 + 0.2) for f in (7, 3, 4, 0)]
        for frame, fid in visits:
            x = field.grid.point(fid)
            _assert_same(_interpolated(run, frame, x), _interpolated(full[frame], 0, x))
        assert run.passes >= 3  # runs opened by frame and by window

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_too_few_frames_for_the_time_stencil(self, boundary):
        # the run decides each frame's time window when it is made
        _, grid, sf = _sampled_gaussian(frames=4)
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        with pytest.raises(wv.InsufficientFramesError, match="at least 5 frames, got 4"):
            wv.track_attribute(sf, PEAK, seed, spec=wv.StencilSpec(4, boundary))
        res = wv.track_attribute(sf, PEAK, seed, spec=wv.StencilSpec(2, boundary))
        assert np.isfinite(res.deviation)

    def test_track_reports_its_work(self, monkeypatch):
        _, grid, sf = _sampled_gaussian(frames=21)
        seed = np.unravel_index(np.argmax(sf.values[0]), grid.shape)
        runs = []
        fd_jet_stacks = tracking.fd_jet_stacks
        monkeypatch.setattr(tracking, "fd_jet_stacks",
                            lambda *args: runs.append(args[1]) or fd_jet_stacks(*args))
        res = wv.track_attribute(sf, PEAK, seed)
        # runs go on through the end frames: the run opened at frame 0 and
        # the one opened after the point leaves its window
        assert res.jet_passes == len(runs) <= 2
        assert runs  # the patched pass is the one the track ran
        assert res.newton_iterations.shape == (21,)
        assert np.all(res.newton_iterations >= 1)
        assert np.all(res.newton_iterations <= tracking.NEWTON_MAX_ITER)
        runs.clear()
        wv.find_critical_point(wv.fd_jet_field(sf, 10), seed, PEAK)
        assert runs == []  # a whole jet field needs no pass
        reads = []
        fd_jets_at = tracking.fd_jets_at
        monkeypatch.setattr(tracking, "fd_jets_at",
                            lambda *args: reads.append(args[2]) or fd_jets_at(*args))
        on_level = wv.AttributeSpec.level_set(float(sf.values[0][44, 40]))
        level = wv.track_attribute(sf, on_level, (44, 40))
        # a level track's one pass is its stacked read of the crossings' blocks
        assert not level.newton_iterations.any() and level.jet_passes == len(reads) == 1
        assert runs == [] and level.jet_points == len(reads[0]) == 9 * 2 * 17
        analytic = wv.track_attribute(wv.TranslatingGaussian((0.7, 0.0), 3.0), PEAK,
                                      (0.0, 0.0), times=sf.times)
        assert analytic.jet_passes == 0 and np.all(analytic.newton_iterations >= 1)

    def test_level_track_computes_only_its_blocks(self, monkeypatch):
        # a 2-D level crossing moving about 0.7 cells a frame: the 34 timed
        # crossings' 3^2 blocks, 306 points, are all the track computes; the
        # planned window runs around them computed 6069 box points in one
        # pass, and runs sized by the frames the last run served 9559 in 9
        grid = wv.make_grid(2, (64, 64), 0.02, -0.63)
        bump = wv.TranslatingGaussian((0.5, 0.4), 0.4)
        field = wv.sample(bump, grid, 0.02 * np.arange(21))
        direction = np.array((1.0, 1.25)) / np.linalg.norm((1.0, 1.25))
        seed = tuple(np.rint(grid.index_of(0.4 * np.sqrt(np.log(2.0)) * direction)).astype(int))
        runs, reads = _recording(monkeypatch)
        target = wv.AttributeSpec.level_set(0.5)
        res = wv.track_attribute(field, target, seed)
        assert res.deviation <= 0.01  # a real track
        moves = np.abs(np.diff(res.positions, axis=0)) / 0.02
        assert 0.5 <= moves.mean() <= 0.9
        (frames, indices), = reads
        assert runs == [] and len(frames) == len(indices) == 34 * 9
        assert (res.jet_passes, res.jet_points) == (1, 306)
        positions, computed, deviation = _reference_track(field, target, seed, wv.StencilSpec())
        assert np.array_equal(res.positions, positions)
        assert np.array_equal(res.computed_velocity, computed, equal_nan=True)
        assert res.deviation == deviation

    def test_run_memory_does_not_grow_with_frames(self, monkeypatch):
        # 3-D 40^3 tracks: a run holds at most _RUN_POINTS box points, and a
        # level track's stacked read at most _RUN_POINTS block points a pass, so
        # the traced peak stays below the cap's jets at any frame count.  A peak
        # track: 2.3, 2.4 and 2.4 MB at 21, 41 and 81 frames, of 2.8 MB; one
        # window per frame peaked at 29.1 MB at 21 frames and 63.3 MB at 41.  A
        # level track reads 1377, 2997 and 6237 block points in one pass: 0.9,
        # 1.3 and 2.0 MB.  At 2**11 points a pass the cap binds at 41 and 81
        # frames (2 and 4 passes) and the level track's peak stays 1.06 and 1.08 MB
        n = 3
        jet_bytes = 8 * (2 + 2 * n + n * n) + 1  # one point's jets and validity
        peaks, level_peaks, capped_peaks = [], [], []
        for frames in (21, 41, 81):
            field, target, seed = _memory_track(frames)
            top = np.unravel_index(np.argmax(field.values[0]), field.grid.shape)
            for attr, at, out, cap in ((wv.AttributeSpec.gradient_set((0.0,) * n), top, peaks,
                                        tracking._RUN_POINTS),
                                       (target, seed, level_peaks, tracking._RUN_POINTS),
                                       (target, seed, capped_peaks, 2**11)):
                with monkeypatch.context() as patch:
                    patch.setattr(tracking, "_RUN_POINTS", cap)
                    tracemalloc.start()
                    try:
                        result = wv.track_attribute(field, attr, at)
                        out.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
            assert result.jet_passes == {21: 1, 41: 2, 81: 4}[frames]  # of 75 crossings' blocks
            del field
        for track in (peaks, capped_peaks):
            assert track[2] <= 1.05 * track[1]
        assert max(peaks + level_peaks) <= 1.25 * tracking._RUN_POINTS * jet_bytes


def _memory_track(frames):
    """A 3-D 40^3 level track over ``frames`` frames whose axis crossings lie a
    few cells apart: field, target and seed."""
    n = 3
    grid = wv.make_grid(n, (40,) * n, 0.04, -0.78)
    bump = wv.TranslatingGaussian((0.4, 0.3, -0.2), 0.5)
    direction = np.array((1.0, 1.2, 0.9)) / np.linalg.norm((1.0, 1.2, 0.9))
    seed = tuple(np.rint(grid.index_of(0.5 * np.sqrt(np.log(2.0)) * direction)).astype(int))
    field = wv.sample(bump, grid, 0.01 * np.arange(frames))
    return field, wv.AttributeSpec.level_set(0.5), seed


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_contraction_equals_tensordot_bitwise(n):
    rng = np.random.default_rng(n)
    anchor = (2, 4, 1, 3)[:n]
    block = tuple(slice(a - 1, a + 2) for a in anchor)
    fid = [a + float(rng.uniform(-0.5, 0.5)) for a in anchor]
    weights = reduce(np.multiply.outer, [np.array(tracking._quad_weights(f - a))
                                         for f, a in zip(fid, anchor)])
    row = np.array([tracking._tensor_weights(fid, anchor)])
    assert row.shape == (1, 3**n)
    assert np.array_equal(row.view(np.uint64), weights.reshape(1, -1).view(np.uint64))
    for tail in ((), (n,), (n, n)):
        arr = rng.standard_normal((6,) * n + tail)
        got = tracking._contract(row, *tracking._gather(arr[None], (0, *block)))
        want = np.tensordot(weights, arr[block], axes=n)
        assert got.shape == want.shape == tail
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _predicted_seed(positions, frame, previous):
    """The Newton start of ``frame`` of a gradient track: ``previous`` (the seed,
    or frame 0's root) at frames 0 and 1, then the linear extrapolation of the
    last two roots, in the tracker's floating-point order."""
    if frame < 2:
        return previous
    return positions[frame - 1] + (positions[frame - 1] - positions[frame - 2])


def _linear_crossing(coords, values, level, near) -> float:
    """The crossing rule on one sampled profile, one frame at a time: the linear
    zero of ``values - level`` in the cell whose midpoint is nearest to ``near``
    among the cells where it changes sign (or starts at zero), the first on ties,
    its fraction formed first."""
    f = values - level
    lo, hi = f[:-1], f[1:]
    cells = np.nonzero((lo == 0.0) | (np.sign(lo) != np.sign(hi)))[0]
    if cells.size == 0:
        raise AttributeLostError(f"no crossing of level {level} on the ray")
    mid = 0.5 * (coords[cells] + coords[cells + 1])
    k = int(cells[np.argmin(np.abs(mid - near))])
    if f[k] == 0.0:
        return float(coords[k])
    return float(coords[k] + (coords[k + 1] - coords[k]) * (f[k] / (f[k] - f[k + 1])))


def _reference_track(field, target, seed, spec):
    """The sampled trackers on full-grid fd jets of every frame (the result
    windowed tracking must reproduce bit for bit)."""
    grid = field.grid
    n, m = grid.dim, field.frames
    seed = tuple(int(i) for i in seed)
    positions = np.empty((m, n))
    computed = np.full((m, n), np.nan)
    jet_fields = [wv.fd_jet_field(field, frame, spec) for frame in range(m)]
    if target.kind == wv.AttributeSpec.GRADIENT_SET:
        targets = np.asarray(target.gradient_targets, dtype=float)
        x = grid.point(seed)
        for frame, jets in enumerate(jet_fields):
            x = tracking._newton_iterations(_whole(jets), 0, _predicted_seed(positions, frame, x),
                                            targets)[0]
            positions[frame] = x
            if np.any(jets.valid):
                computed[frame] = _solve_order_one(
                    *_whole(jets).jets(0, x, ("hessian", "time_mixed")))[0]
    else:
        for axis in range(n):
            coords = grid.axis_coordinates(axis)
            ray = seed[:axis] + (slice(None),) + seed[axis + 1:]
            near = coords[seed[axis]]
            for frame, jets in enumerate(jet_fields):
                s = _linear_crossing(coords, field.values[frame][ray], target.level, near)
                positions[frame, axis] = near = s
                if np.any(jets.valid):
                    point = grid.point(seed)
                    point[axis] = s
                    try:
                        computed[frame, axis] = _level_speed(
                            *_whole(jets).jets(0, point, ("grad", "dpsi_dt")), axis)
                    except AttributeLostError:
                        pass
    empirical = np.gradient(positions, field.dt, axis=0)
    return positions, computed, tracking._deviation(empirical, computed)


def _reference_newton(probe, x0, targets):
    """The Newton loop the analytic trackers ran on exact jets (unit length scale,
    no anchor)."""
    x = np.array(x0, dtype=float)
    for _ in range(tracking.NEWTON_MAX_ITER):
        grad, hess = probe(x)
        residual = grad - targets
        frob = float(np.sqrt(reduce(np.add, (hess * hess).ravel(), 0.0)))
        if np.max(np.abs(residual)) <= tracking.NEWTON_TOL * frob * 1.0:
            return x
        step, valid, _ = _solve_order_one(hess, residual)
        if not valid:
            raise wv.SingularHessianError("singular Hessian at a Newton iterate")
        x = x + step
        if not np.all(np.isfinite(x)):
            raise wv.NoConvergenceError("Newton iterate became non-finite")
    raise wv.NoConvergenceError("no convergence")


def _reference_analytic_track(field, target, seed, times, search_radius):
    """The analytic gradient and level trackers as separate loops on exact jets
    (the result the shared frame loops must reproduce bit for bit)."""
    t0, dt, m = canonical_time_axis(times)
    frame_times = t0 + dt * np.arange(m)
    n = field.dim
    seed = np.asarray(seed, dtype=float)
    positions = np.empty((m, n))
    computed = np.full((m, n), np.nan)
    if target.kind == wv.AttributeSpec.GRADIENT_SET:
        targets = np.asarray(target.gradient_targets, dtype=float)
        x = seed
        for frame, t in enumerate(frame_times):
            def probe(p, t=t):
                jet = field.jet2(p, t)
                return jet.grad, jet.hessian
            x = _reference_newton(probe, _predicted_seed(positions, frame, x), targets)
            positions[frame] = x
            jet = field.jet2(x, t)
            computed[frame] = _solve_order_one(jet.hessian, jet.time_mixed)[0]
    else:
        for axis in range(n):
            near = float(seed[axis])
            for frame, t in enumerate(frame_times):
                def profile(s, axis=axis, t=t):  # vectorised over the samples s
                    p = np.tile(seed, (s.size, 1))
                    p[:, axis] = s
                    return field.value(p, t) - target.level
                s = tracking._bracketed_root(profile, near, search_radius)
                positions[frame, axis] = near = s
                point = seed.copy()
                point[axis] = s
                jet = field.jet2(point, t)
                computed[frame, axis] = _level_speed(jet.grad, jet.dpsi_dt, axis)
    empirical = np.gradient(positions, dt, axis=0)
    return positions, computed, tracking._deviation(empirical, computed)


def _moving_bump_track(dim, kind):
    """A 9-frame moving bump on a 48^N grid (N <= 2), 30^3 or 16^4, a gradient
    (peak) or level target and its seed index.  The 4-D bump is wider on a
    coarser grid: at 14^4, h 0.1 and sigma 0.4 the peak track deviates 0.36."""
    npts, h, sigma = {1: (48, 0.05, 0.4), 2: (48, 0.05, 0.4), 3: (30, 0.05, 0.4),
                      4: (16, 0.08, 0.6)}[dim]
    grid = wv.make_grid(dim, (npts,) * dim, h, -(npts - 1) * h / 2)
    # level rays keep crossing
    velocity = (0.7, 0.3)[:dim] if dim <= 2 else (0.3, 0.2, -0.25, 0.15)[:dim]
    bump = wv.TranslatingGaussian(velocity, sigma)
    field = wv.sample(bump, grid, 0.02 * np.arange(9) - 0.08)
    if kind == "gradient":
        target = wv.AttributeSpec.gradient_set((0.0,) * dim)
        seed = np.unravel_index(np.argmax(field.values[0]), grid.shape)
    else:
        target = wv.AttributeSpec.level_set(0.5)
        direction = np.array((1.0, 1.25, 0.9, 1.1)[:dim])
        point = sigma * np.sqrt(np.log(2.0)) * direction / np.linalg.norm(direction)
        seed = tuple(int(i) for i in np.rint(grid.index_of(point)))
    return field, target, seed


def _centre_seeded_track(dim):
    """A moving bump seeded at its centre with a level-0.5 target: the axis rays
    cross the level 33 (2-D, 21 frames) or 14 cells (3-D, 9 frames) from the
    seed, so the crossings of one frame lie far apart.  The grid starts 5
    cells below the centre, so each ray crosses once."""
    h = 0.05
    if dim == 2:
        npts, sigma, frames, velocity = 56, 2.0, 21, (0.7, 0.3)
    else:
        npts, sigma, frames, velocity = 30, 0.85, 9, (0.3, 0.2, -0.25)
    grid = wv.make_grid(dim, (npts,) * dim, h, -5 * h)
    field = wv.sample(wv.TranslatingGaussian(velocity, sigma), grid, 0.02 * np.arange(frames))
    return field, wv.AttributeSpec.level_set(0.5), (5,) * dim


def _recording(monkeypatch):
    """Record the ``(sub-field, frames)`` of every window pass and the
    ``(frames, indices)`` of every stacked read's kernel call."""
    runs, reads = [], []
    fd_jet_stacks, fd_jets_at = tracking.fd_jet_stacks, tracking.fd_jets_at
    monkeypatch.setattr(tracking, "fd_jet_stacks",
                        lambda *args: runs.append(args[:2]) or fd_jet_stacks(*args))
    monkeypatch.setattr(tracking, "fd_jets_at",
                        lambda *args: reads.append(args[1:3]) or fd_jets_at(*args))
    return runs, reads


def _assert_same_track(got, want):
    for name in ("positions", "empirical_velocity", "computed_velocity"):
        _same_result(getattr(got, name), getattr(want, name))
    assert got.deviation == want.deviation


class TestWindowedTracksUnchanged:
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("kind", ("gradient", "level"))
    @pytest.mark.parametrize("dim", (1, 2, 3, 4))  # Cramer at N <= 3, pivoted Newton at 4
    def test_tracks_equal_full_grid_reference(self, dim, kind, boundary):
        field, target, seed = _moving_bump_track(dim, kind)
        spec = wv.StencilSpec(4, boundary)
        res = wv.track_attribute(field, target, seed, spec=spec)
        positions, computed, deviation = _reference_track(field, target, seed, spec)
        assert np.array_equal(res.positions, positions)
        assert np.array_equal(res.computed_velocity, computed, equal_nan=True)
        assert res.deviation == deviation
        assert res.deviation <= 0.1  # a real track, not a lost one
        if kind == "level":
            assert res.jet_passes <= dim  # at most one pass per ray

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("dim", (2, 3))
    def test_far_crossings_keep_every_bit(self, dim, order, boundary, monkeypatch):
        # crossings far apart: one stacked read serves every ray, its blocks
        # stacked ray by ray, and no window opens
        field, target, seed = _centre_seeded_track(dim)
        spec = wv.StencilSpec(order, boundary)
        runs, reads = _recording(monkeypatch)
        res = wv.track_attribute(field, target, seed, spec=spec)
        positions, computed, deviation = _reference_track(field, target, seed, spec)
        assert np.array_equal(res.positions, positions)
        assert np.array_equal(res.computed_velocity, computed, equal_nan=True)
        assert res.deviation == deviation <= 0.1
        (frames, indices), = reads
        assert any(b < a for a, b in zip(frames, frames[1:]))  # frames restart at each ray
        assert runs == [] and res.jet_passes == 1 and res.jet_points == len(indices)

    def test_close_crossings_read_in_one_call(self, monkeypatch):
        # 3-D, 41 frames, crossings a few cells apart: one stacked read, no window
        field, target, seed = _memory_track(41)
        runs, reads = _recording(monkeypatch)
        res = wv.track_attribute(field, target, seed)
        assert runs == [] and len(reads) == res.jet_passes == 1
        assert res.jet_points == 3 * 37 * 27  # three rays, frames 2..38, 3^3 blocks
        positions, computed, deviation = _reference_track(field, target, seed, wv.StencilSpec())
        assert np.array_equal(res.positions, positions)
        assert np.array_equal(res.computed_velocity, computed, equal_nan=True)
        assert res.deviation == deviation

    def test_one_sided_blocks_at_a_grid_face(self, monkeypatch):
        # the seed's row is one cell from a grid face, so every block of the
        # axis-1 ray sits at that face and its points take one-sided taps there
        field, target, _ = _centre_seeded_track(2)
        seed, spec = (1, 5), wv.StencilSpec(4, "one-sided")
        runs, reads = _recording(monkeypatch)
        res = wv.track_attribute(field, target, seed, spec=spec)
        (_, indices), = reads
        assert runs == [] and indices[:, 0].min() == 0  # the face row itself
        positions, computed, deviation = _reference_track(field, target, seed, spec)
        assert np.array_equal(res.positions, positions)
        assert np.array_equal(res.computed_velocity, computed, equal_nan=True)
        assert res.deviation == deviation <= 0.1

    def test_lost_crossing_raises_before_any_pass(self, monkeypatch):
        # every crossing is found before the jets are read: the second ray
        # losing its crossing at a later frame raises the same message, and no
        # pass ran
        field, target, seed = _moving_bump_track(2, "level")
        values = field.values.copy()
        values[6, seed[0], :] = 1.0  # frame 6 of the axis-1 ray stays above the level
        lost = wv.SampledField(field.grid, field.t0, field.dt, values)
        runs, reads = _recording(monkeypatch)
        with pytest.raises(AttributeLostError, match=r"^no crossing of level 0.5 on the ray$"):
            wv.track_attribute(lost, target, seed)
        assert runs == reads == []

    @pytest.mark.parametrize("kind", ("gradient", "level"))
    @pytest.mark.parametrize("dim", (2, 3))
    def test_runs_compute_only_their_tracks_parts(self, dim, kind, monkeypatch):
        # a level track's stacked read computes no mixed time rows and a gradient
        # track's passes no time derivative; either track equals one whose passes
        # compute every part, bit for bit
        field, target, seed = _moving_bump_track(dim, kind)
        requested, passes = [], {"gradient": "fd_jet_stacks", "level": "fd_jets_at"}[kind]
        fd_pass, names_at = getattr(tracking, passes), {"gradient": 3, "level": 4}[kind]
        monkeypatch.setattr(tracking, passes,
                            lambda *args: requested.append(args[names_at]) or fd_pass(*args))
        res = wv.track_attribute(field, target, seed)
        skipped = "time_mixed" if kind == "level" else "dpsi_dt"
        assert len(requested) == res.jet_passes >= 1
        assert all(skipped not in names and {"grad", "hessian"} <= set(names)
                   for names in requested)
        monkeypatch.setattr(tracking, passes, lambda *args: fd_pass(*args[:names_at]))
        every = wv.track_attribute(field, target, seed)
        for name in ("times", "positions", "empirical_velocity", "computed_velocity",
                     "newton_iterations"):
            got, want = getattr(res, name), getattr(every, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ((res.deviation, res.jet_passes, res.jet_points)
                == (every.deviation, every.jet_passes, every.jet_points))

    def test_a_run_serves_only_the_parts_it_holds(self):
        field, _, seed = _moving_bump_track(2, "gradient")
        names = ("grad", "hessian", "time_mixed")
        run = _WindowRun(field, wv.StencilSpec(), names)
        x = field.grid.point(seed)
        run.jets(4, x, names)
        assert set(run._rows) == set(names)  # the block cache gathers the held parts only
        with pytest.raises(ValueError, match=r"holds the jet parts .* not all of \('dpsi_dt',\)"):
            run.jets(4, x, ("dpsi_dt",))
        with pytest.raises(ValueError, match="holds the jet parts"):
            run.jets_stack(np.array([4]), x[None], ("grad", "dpsi_dt"))

    @pytest.mark.parametrize("kind", ("gradient", "level"))
    @pytest.mark.parametrize("dim", (2, 3))
    def test_analytic_tracks_equal_separate_loop_reference(self, dim, kind):
        velocity = (0.7, 0.3) if dim == 2 else (0.3, 0.2, -0.25)
        bump = wv.TranslatingGaussian(velocity, 0.4)
        times = 0.02 * np.arange(9) - 0.08  # times[1] - times[0] differs from dt in the last bit
        if kind == "gradient":
            target = wv.AttributeSpec.gradient_set((0.0,) * dim)
            seed = np.full(dim, 0.01)
        else:
            target = wv.AttributeSpec.level_set(0.5)
            direction = np.array((1.0, 1.25, 0.9)[:dim])
            seed = 0.4 * np.sqrt(np.log(2.0)) * direction / np.linalg.norm(direction)
        res = wv.track_attribute(bump, target, seed, times=times, search_radius=0.3)
        positions, computed, deviation = _reference_analytic_track(bump, target, seed, times, 0.3)
        assert np.array_equal(res.positions, positions)
        assert np.array_equal(res.computed_velocity, computed, equal_nan=True)
        assert res.deviation == deviation
        assert res.deviation <= 0.1  # a real track, not a lost one

    def test_analytic_order_one_is_the_map_kernel(self):
        # the analytic oracle checks the solve the velocity maps and the
        # sampled oracle run (Cramer at N = 3), bit for bit
        bump = wv.TranslatingGaussian((0.3, 0.2, -0.25), 0.9)
        times = 0.02 * np.arange(9) - 0.08
        res = wv.track_attribute(bump, wv.AttributeSpec.gradient_set((0.0,) * 3),
                                 np.array((0.02, 0.01, -0.01)), times=times)
        for x, t, got in zip(res.positions, res.times, res.computed_velocity):
            jet = bump.jet2(x, t)
            want = _solve_order_one(jet.hessian, jet.time_mixed)[0]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind", ("gradient", "level"))
    def test_analytic_tracks_difference_over_the_canonical_step(self, kind):
        bump = wv.TranslatingGaussian((0.7, 0.3), 0.4)
        times = 0.02 * np.arange(9) - 0.08  # times[1] - times[0] is one ulp off the step
        step = canonical_time_axis(times)[1]
        if kind == "gradient":
            target, seed = wv.AttributeSpec.gradient_set((0.0, 0.0)), np.full(2, 0.01)
        else:
            target, seed = wv.AttributeSpec.level_set(0.5), np.array((0.21, 0.26))
        res = wv.track_attribute(bump, target, seed, times=times, search_radius=0.3)
        want = np.gradient(res.positions, step, axis=0)
        assert np.array_equal(res.empirical_velocity.view(np.uint64), want.view(np.uint64))
        assert res.jet_points == 0


def _same_result(got, want):
    """Bit equality of two frame-source results: an array, a float, a list of
    them, or the AttributeLostError message of a lost point."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_result(g, w)
        return
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _outcome(call, source):
    try:
        return call(source)
    except AttributeLostError as exc:
        return str(exc)


def _counting_reads(monkeypatch, run):
    """Record every ``_holds`` call of ``run``: the serve step of a block read
    from its jets, which a cached request skips."""
    reads = []
    holds = run._holds
    monkeypatch.setattr(run, "_holds", lambda *args: reads.append(args) or holds(*args))
    return reads


class TestBlockCache:
    """The run's block cache: a frame source reading cached rows gives the bits
    of one whose run is rebuilt for every call."""

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("kind", ("gradient", "level"))
    @pytest.mark.parametrize("dim", (2, 3))
    def test_cached_source_matches_one_rebuilt_per_call(self, dim, kind, boundary, monkeypatch):
        field, target, seed = _moving_bump_track(dim, kind)
        grid = field.grid
        spec = wv.StencilSpec(4, boundary)
        res = wv.track_attribute(field, target, seed, spec=spec)
        run = _WindowRun(field, spec, PARTS)
        reads = _counting_reads(monkeypatch, run)
        for frame in range(field.frames):
            if kind == "gradient":
                x = res.positions[frame]
                # the nearest anchor, and neighbours as a locked anchor may be
                nearest = np.rint(grid.index_of(x)).astype(int)
                calls = [lambda src, a=tuple(int(i) for i in nearest + d):
                         src.jets(frame, x, ("grad", "hessian"), a) for d in (0, -1, 1)]
                calls.append(lambda src: _solve_order_one(
                    *src.jets(frame, x, ("hessian", "time_mixed")))[0])
            else:
                calls = []
                jets = wv.fd_jet_field(field, frame, spec)
                for axis in range(dim):
                    point = grid.point(seed)
                    point[axis] = res.positions[frame, axis]
                    calls.append(lambda src, p=point, a=axis:
                                 _level_speed(*src.jets(frame, p, ("grad", "dpsi_dt")), a))
                    if run.timed[frame]:  # and against np.tensordot on the whole grid
                        try:
                            parts = _reference_interpolation(jets, point, (jets.grad, jets.dpsi_dt))
                        except AttributeLostError:
                            continue
                        speed = _level_speed(*run.jets(frame, point, ("grad", "dpsi_dt")), axis)
                        _same_result(speed, _level_speed(*parts, axis))
            for call in calls:
                want = _outcome(call, _WindowRun(field, spec, PARTS))
                first = _outcome(call, run)
                read = len(reads)
                again = _outcome(call, run)
                _same_result(first, want)
                _same_result(again, want)
                if not isinstance(want, str) and run.timed[frame]:
                    assert len(reads) == read  # the repeat was served from the cache
        assert run.passes >= 1

    @pytest.mark.parametrize("dim", (2, 3))
    def test_non_finite_block_raises_on_every_request(self, dim, monkeypatch):
        field = _random_field(dim)
        spec = wv.StencilSpec(4, "shrink-to-valid")
        run = _WindowRun(field, spec, PARTS)
        reads = _counting_reads(monkeypatch, run)
        mid = (np.asarray(field.grid.shape) - 1.0) / 2
        inside = field.grid.point(mid + 0.3)
        border = field.grid.point(np.where(np.arange(dim) == 0, 0.4, mid))  # NaN band
        want = _interpolated(_whole(wv.fd_jet_field(field, 4, spec)), 0, inside)
        for _ in range(2):
            _assert_same(_interpolated(run, 4, inside), want)
            for _ in range(3):
                read = len(reads)
                with pytest.raises(AttributeLostError, match="valid interior"):
                    run.jets(4, border, ("grad", "hessian"))
                assert len(reads) == read + 1  # a failure is gathered and checked again
                assert run._key is None
                with pytest.raises(AttributeLostError, match="valid interior"):
                    run.jets(4, border, ("hessian", "time_mixed"))
                with pytest.raises(AttributeLostError, match="valid interior"):
                    run.jets(4, border, ("grad", "dpsi_dt"))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_reopened_run_never_serves_the_old_rows(self, dim, monkeypatch):
        monkeypatch.setattr(tracking, "_RUN_POINTS", 1)  # one frame a run
        field = _random_field(dim)
        spec = wv.StencilSpec(4, "one-sided")
        run = _WindowRun(field, spec, PARTS)
        x = field.grid.point((np.asarray(field.grid.shape) - 1.0) / 2 + 0.3)
        far = field.grid.point(np.full(dim, 3.2))
        for frame in (3, 4):
            want = _interpolated(_whole(wv.fd_jet_field(field, frame, spec)), 0, x)
            anchor = run.anchor(run.index(x))

            def poison():
                for rows, _ in run._rows.values():
                    rows[...] = 1e300

            _assert_same(_interpolated(run, frame, x), want)
            passes = run.passes
            poison()
            run._open(frame, anchor)  # the same frame and block in a new pass
            _assert_same(_interpolated(run, frame, x), want)
            assert run.passes == passes + 1
            poison()
            run._open(frame + 1, anchor)  # another frame: a new run
            _assert_same(_interpolated(run, frame, x), want)  # and one more, gathered anew
            assert run.passes == passes + 3
            poison()
            # the same frame, out of the exact zone: a new run
            run.jets(frame, far, ("grad", "hessian"))
            assert run.passes == passes + 4
            _assert_same(_interpolated(run, frame, x), want)


class TestStackedReads:
    """A level track reads its jets with one ``jets_stack`` call: one kernel
    call at its blocks' points, one finite test and one matmul for each
    ``_RUN_POINTS`` block points, bit for bit the per-point ``_WindowRun.jets``
    reads of its points."""

    NAMES = ("grad", "dpsi_dt")

    @staticmethod
    def _recorded_track(field, target, seed, spec, monkeypatch):
        """The track and the frames, points, names, parts and mask of its one
        jets_stack call."""
        calls = []
        stack = _WindowRun.jets_stack

        def recording_stack(run, frames, points, names):
            parts, ok = stack(run, frames, points, names)
            calls.append((frames, points, names, parts, ok))
            return parts, ok

        monkeypatch.setattr(_WindowRun, "jets_stack", recording_stack)
        res = wv.track_attribute(field, target, seed, spec=spec)
        monkeypatch.undo()
        (frames, points, names, parts, ok), = calls
        return res, frames, points, names, parts, ok

    @staticmethod
    def _per_point(source, frames, points, names):
        """The :meth:`jets` read of every point, or the message of its loss."""
        return [_outcome(lambda src: src.jets(int(frame), point, names), source)
                for frame, point in zip(frames, points)]

    @staticmethod
    def _assert_stack_is_per_point(parts, ok, reads):
        for r, read in enumerate(reads):
            if isinstance(read, str):  # no valid block, or off the grid: NaN
                assert not ok[r]
                assert all(np.isnan(part[r]).all() for part in parts)
                continue
            assert ok[r]
            for part, want in zip(parts, read):
                _same_result(part[r], want)

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("dim", (1, 2, 3, 4))
    def test_stack_equals_per_point_reads(self, dim, order, boundary, monkeypatch):
        field, target, seed = _moving_bump_track(dim, "level")
        spec = wv.StencilSpec(order, boundary)
        res, frames, points, names, parts, ok = self._recorded_track(field, target, seed, spec,
                                                                     monkeypatch)
        assert ok.any()
        assert (res.jet_passes, res.jet_points) == (1, 3**dim * len(frames))
        # the same points read one by one through window runs
        reads = self._per_point(_WindowRun(field, spec, PARTS), frames, points, names)
        self._assert_stack_is_per_point(parts, ok, reads)
        again = _WindowRun(field, spec, PARTS)  # and again, stacked on a fresh run
        _same_result(again.jets_stack(frames, points, names)[0], parts)
        assert (again.passes, again.points) == (res.jet_passes, res.jet_points)
        monkeypatch.setattr(tracking, "_RUN_POINTS", 3**dim)  # and in slices of one point
        sliced = _WindowRun(field, spec, PARTS)
        sliced_parts, sliced_ok = sliced.jets_stack(frames, points, names)
        _same_result(sliced_parts, parts)
        assert np.array_equal(sliced_ok, ok)
        assert (sliced.passes, sliced.points) == (len(frames), res.jet_points)

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("dim", (2, 3))
    def test_lost_requests_read_nan(self, dim, boundary, monkeypatch):
        # a request inside, one whose block reaches the border band (NaN under
        # shrink-to-valid), one off the grid (its clipped block is finite under
        # one-sided; it opens no run) and one inside again, on one frame
        field = _random_field(dim)
        spec = wv.StencilSpec(4, boundary)
        mid = (np.asarray(field.grid.shape) - 1.0) / 2
        first = np.arange(dim) == 0
        fids = (mid + 0.3, np.where(first, 0.4, mid), np.where(first, -0.5, mid), mid - 0.2)
        run, frames = _WindowRun(field, spec, PARTS), np.full(4, 4)
        points = np.array([field.grid.point(fid) for fid in fids])
        parts, ok = run.jets_stack(frames, points, self.NAMES)
        assert ok.tolist() == [True, boundary == "one-sided", False, True]
        reads = self._per_point(_WindowRun(field, spec, PARTS), frames, points, self.NAMES)
        assert "left the grid" in reads[2]
        self._assert_stack_is_per_point(parts, ok, reads)
        assert (run.passes, run.points) == (1, 3 * 3**dim)  # the one off the grid reads none

    def test_non_finite_hessian_entry_is_lost(self):
        # a whole run (its frame as a one-frame stack): a NaN Hessian entry in a
        # block loses the request even though its gradient block is finite
        field = _random_field(2)
        jets = wv.fd_jet_field(field, 4, wv.StencilSpec())
        hessian = np.array(jets.hessian)
        hessian[20, 21, 0, 1] = np.nan
        broken = wv.JetField(jets.grid, jets.t, jets.frame, jets.psi, jets.dpsi_dt, jets.grad,
                             hessian, jets.time_mixed, jets.valid)
        run, frames = _whole(broken), np.zeros(3, dtype=int)
        points = np.array([field.grid.point(fid) for fid in ((20.2, 20.6), (20.2, 24.6),
                                                               (19.7, 22.3))])
        parts, ok = run.jets_stack(frames, points, self.NAMES)
        assert ok.tolist() == [False, True, False]
        assert np.isfinite(broken.grad[19:22, 20:23]).all()
        self._assert_stack_is_per_point(parts, ok,
                                        self._per_point(run, frames, points, self.NAMES))

    def test_exact_jets_stack_their_points(self):
        bump = wv.TranslatingGaussian((0.3, 0.2, -0.25), 0.4)
        source = tracking._ExactJets(bump, 0.02 * np.arange(5), 0.3)
        rng = np.random.default_rng(3)
        frames, points = rng.integers(0, 5, 12), rng.uniform(-0.5, 0.5, (12, 3))
        parts, ok = source.jets_stack(frames, points, self.NAMES)
        assert ok.all() and parts[0].shape == (12, 3) and parts[1].shape == (12,)
        self._assert_stack_is_per_point(parts, ok,
                                        self._per_point(source, frames, points, self.NAMES))


def _reference_anchor(grid, x, locked=None):
    """The interpolation anchor of ``x`` on numpy arrays: ``locked`` while ``x``
    stays within 1.5 cells of it, else the nearest index with a full block."""
    fid = grid.index_of(x)
    if locked is not None and not np.any(np.abs(fid - np.asarray(locked)) > 1.5):
        return locked
    return tuple(int(a) for a in np.clip(np.rint(fid), 1, np.asarray(grid.shape) - 2))


def _reference_interpolation(jets, x, arrays, anchor=None):
    """``arrays`` (of ``jets``) at ``x`` by np.tensordot of the 3^N block around
    ``anchor`` with weights multiplied by np.multiply.outer."""
    grid = jets.grid
    n = grid.dim
    fid = grid.index_of(x)
    if not np.all((fid >= 0.0) & (fid <= np.asarray(grid.shape) - 1)):
        raise AttributeLostError("left the grid")
    if anchor is None:
        anchor = _reference_anchor(grid, x)
    block = tuple(slice(a - 1, a + 2) for a in anchor)
    if not (np.isfinite(jets.grad[block]).all() and np.isfinite(jets.hessian[block]).all()):
        raise AttributeLostError("left the valid interior")
    s = fid - np.asarray(anchor)
    weights = reduce(np.multiply.outer, [
        np.array([0.5 * s[a] * (s[a] - 1.0), 1.0 - s[a] * s[a], 0.5 * s[a] * (s[a] + 1.0)])
        for a in range(n)])
    return [np.tensordot(weights, arr[block], axes=n) for arr in arrays]


def _reference_sampled_newton(jets, x0, targets):
    """The Newton loop of the sampled trackers on numpy arrays: anchor locking
    and re-polishing, and np.tensordot interpolation on a whole-grid jet field
    (the loop tracking._newton_iterations must reproduce bit for bit, with its
    iteration count)."""
    spacing = np.asarray(jets.grid.spacing)

    def anchor_of(x, locked=None):
        return _reference_anchor(jets.grid, x, locked)

    def interpolate(x, anchor):
        return _reference_interpolation(jets, x, (jets.grad, jets.hessian), anchor)

    x = np.array(x0, dtype=float)
    locked = None
    polished = set()
    for iteration in range(1, tracking.NEWTON_MAX_ITER + 1):
        anchor = anchor_of(x, locked)
        if anchor is not locked:
            locked = None
        grad, hess = interpolate(x, anchor)
        residual = grad - targets
        frob = float(np.sqrt(reduce(np.add, (hess * hess).ravel(), 0.0)))
        if np.max(np.abs(residual)) <= tracking.NEWTON_TOL * frob * float(np.max(spacing)):
            canonical = anchor_of(x)
            if locked is None or canonical == locked or canonical in polished:
                return x, iteration
            polished.add(locked)
            locked = canonical
            continue
        step, valid, _ = _solve_order_one(hess, residual)
        if not valid:
            raise wv.SingularHessianError("singular Hessian at a Newton iterate")
        x = x + step
        if not np.all(np.isfinite(x)):
            raise wv.NoConvergenceError("Newton iterate became non-finite")
        if locked is None and np.max(np.abs(step) / spacing) <= 0.5:
            locked = anchor
    raise wv.NoConvergenceError("no convergence")


class TestSampledNewton:
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("dim", (2, 3))
    def test_tracks_equal_numpy_newton_reference(self, dim, order, boundary):
        field, target, seed = _moving_bump_track(dim, "gradient")
        spec = wv.StencilSpec(order, boundary)
        res = wv.track_attribute(field, target, seed, spec=spec)
        targets = np.zeros(dim)
        x = field.grid.point(seed)
        positions = np.empty_like(res.positions)
        iterations = np.zeros(field.frames, dtype=int)
        for frame in range(field.frames):
            jets = wv.fd_jet_field(field, frame, spec)
            x, iterations[frame] = _reference_sampled_newton(
                jets, _predicted_seed(positions, frame, x), targets)
            positions[frame] = x
        assert np.array_equal(res.positions.view(np.uint64), positions.view(np.uint64))
        assert np.array_equal(res.newton_iterations, iterations)
        assert iterations.sum() > field.frames  # more than one step a frame


def _previous_root_track(field, spec, seed):
    """Newton on every frame of a window run, each seeded at the previous root
    (the seed rule before predicted seeds): the roots and the iterations of the
    frames reached, and the frame whose Newton iteration raised with its
    TrackingError (None, None when every frame converged)."""
    source = _WindowRun(field, spec, PARTS)
    x = field.grid.point(seed)
    positions, iterations = [], []
    for frame in range(field.frames):
        try:
            x, count = tracking._newton_iterations(source, frame, x, np.zeros(field.grid.dim))
        except wv.TrackingError as exc:
            return np.array(positions), iterations, frame, exc
        positions.append(x)
        iterations.append(count)
    return np.array(positions), iterations, None, None


def _assert_same_roots(got, want, grid):
    """Roots of each frame's Newton iteration on an isotropic peak, from two
    starts, agree to the Newton tolerance where they have one canonical anchor:
    a root's residual r has max-norm at most NEWTON_TOL ||H||_F h, so it lies
    within |r|_2 / sigma_min(H) <= N NEWTON_TOL h of the interpolant's root
    (||H||_F / sigma_min(H) = sqrt(N) on an isotropic peak).  Within the interpolant's O(h^3) jump of a cell
    midplane, the anchors on both sides hold a root of their own and the start
    picks one: there each root lies within 0.02 cells of the midplane between
    their anchors, and the roots within 0.04 cells of each other."""
    tol = 2.0 * grid.dim * tracking.NEWTON_TOL * max(grid.spacing)
    for g, w in zip(got, want):
        gi, wi = grid.index_of(g), grid.index_of(w)
        if np.array_equal(np.rint(gi), np.rint(wi)):
            assert np.max(np.abs(g - w)) <= tol
            continue
        assert np.max(np.abs(gi - wi)) <= 0.04
        split = np.rint(gi) != np.rint(wi)
        assert np.all(np.abs(gi[split] - 0.5 * (np.rint(gi) + np.rint(wi))[split]) <= 0.02)


def _true_loss_frame(field, bump, spec):
    """The first frame whose exact peak has no valid jet block (None: none)."""
    source = _WindowRun(field, spec, PARTS)
    for frame, t in enumerate(field.times):
        try:
            source.jets(frame, np.asarray(bump.center) + t * np.asarray(bump.velocity),
                        ("grad", "hessian"))
        except AttributeLostError:
            return frame
    return None


class TestPredictedSeeds:
    """Frames from 2 on start Newton at the linear extrapolation of the last two
    roots, which reads no velocity."""

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("dim", (1, 2, 3, 4))
    def test_fewer_iterations_than_previous_root_seeds(self, dim, order, boundary):
        field, target, seed = _moving_bump_track(dim, "gradient")
        spec = wv.StencilSpec(order, boundary)
        res = wv.track_attribute(field, target, seed, spec=spec)
        positions, iterations, lost, _ = _previous_root_track(field, spec, seed)
        assert lost is None
        assert res.newton_iterations[:2].tolist() == iterations[:2]  # the same seeds
        assert np.array_equal(res.positions[:2], positions[:2])
        assert res.newton_iterations[2:].sum() < sum(iterations[2:])
        _assert_same_roots(res.positions, positions, field.grid)

    def test_grid_edge_loses_the_peak_where_it_leaves(self, monkeypatch):
        # 2-D peaks running toward the grid edge in 8 directions at 3 speeds:
        # predicted seeds lose a peak at the first frame whose exact peak has no
        # valid block, and complete the track when there is none; previous-root
        # seeds lose it there too, or earlier where their first Newton step
        # overshoots the peak into the border band, never later
        grid = wv.make_grid(2, (32, 32), 0.05, -0.775)
        frames = []
        newton = tracking._newton_iterations
        monkeypatch.setattr(tracking, "_newton_iterations",
                            lambda source, frame, *args: frames.append(frame)
                            or newton(source, frame, *args))
        outcomes = []
        for speed in (1.0, 2.0, 3.0):
            for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                bump = wv.TranslatingGaussian((speed * np.cos(angle), speed * np.sin(angle)), 0.3)
                field = wv.sample(bump, grid, 0.04 * np.arange(9))
                seed = np.unravel_index(np.argmax(field.values[0]), grid.shape)
                for boundary in BOUNDARIES:
                    spec = wv.StencilSpec(4, boundary)
                    true = _true_loss_frame(field, bump, spec)
                    positions, _, old, old_exc = _previous_root_track(field, spec, seed)
                    frames.clear()
                    try:
                        res = wv.track_attribute(field, PEAK, seed, spec=spec)
                    except wv.TrackingError as exc:
                        assert isinstance(exc, AttributeLostError), exc
                        assert frames[-1] == true
                        assert isinstance(old_exc, AttributeLostError), old_exc
                        assert old <= true
                        outcomes.append("lost")
                    else:
                        assert true is None
                        assert old is None or isinstance(old_exc, AttributeLostError)
                        _assert_same_roots(res.positions[:len(positions)], positions, grid)
                        outcomes.append("kept")
        assert outcomes.count("lost") >= 8 and outcomes.count("kept") >= 8


class TestRayScan:
    """One sign scan per level ray gives the crossings a chain of per-frame
    crossings gives, bit for bit."""

    @staticmethod
    def _chain(field, index, axis, level, near):
        coords = field.grid.axis_coordinates(axis)
        ray = tuple(index[:axis]) + (slice(None),) + tuple(index[axis + 1:])
        found = []
        for frame in range(field.frames):
            near = _linear_crossing(coords, field.values[frame][ray], level, near)
            found.append(near)
        return found

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_random_rays_equal_per_frame_crossings(self, dim):
        # white noise: many crossings per ray, the nearest one moving from frame to frame
        rng = np.random.default_rng(dim)
        n = {1: 64, 2: 24, 3: 12}[dim]
        grid = wv.make_grid(dim, (n,) * dim, 0.05, -0.3)
        field = wv.SampledField(grid, 0.0, 0.02, rng.standard_normal((7,) + grid.shape))
        run = _WindowRun(field, wv.StencilSpec(), PARTS)
        for _ in range(12):
            index = tuple(int(i) for i in rng.integers(0, n, dim))
            for axis in range(dim):
                level = float(rng.uniform(-0.5, 0.5))
                near = float(rng.uniform(-0.3, -0.3 + 0.05 * (n - 1)))
                got = run.crossings(grid.point(index), axis, level, near)
                _same_result(got, self._chain(field, index, axis, level, near))

    def test_adversarial_rays(self):
        level = 0.25
        frames = [
            [1, -1, -1, -1, -1, 1, 1, 1],  # cells 0 and 4 equidistant from near 2.5: cell 0
            [0, -1, -1, -1, -1, 1, 1, 1],  # the nearest cell starts exactly at the level
            [1, -1, 1, -1, 1, -1, 1, -1],  # a crossing in every cell
            [-1, -1, 1, 1, -1, 1, -1, -1],
            [-1, -1, -1, -1, -1, -1, -1, -1],  # the crossing is lost
        ]
        values = level + np.array(frames, dtype=float)
        grid = wv.make_grid(1, (8,), 1.0, 0.0)
        spec = wv.StencilSpec(2)
        kept = wv.SampledField(grid, 0.0, 0.1, values[[0, 1, 2, 3, 3]])
        got = _WindowRun(kept, spec, PARTS).crossings(np.zeros(1), 0, level, 2.5)
        want = self._chain(kept, (), 0, level, 2.5)
        _same_result(got, want)
        assert got[:2] == [0.5, 0.0]
        lost = wv.SampledField(grid, 0.0, 0.1, values)
        message = r"^no crossing of level 0.25 on the ray$"
        with pytest.raises(AttributeLostError, match=message):
            self._chain(lost, (), 0, level, 2.5)
        with pytest.raises(AttributeLostError, match=message):
            _WindowRun(lost, spec, PARTS).crossings(np.zeros(1), 0, level, 2.5)

    def test_no_per_frame_crossing_method(self):
        assert not hasattr(_WindowRun, "crossing")
        assert not hasattr(tracking._ExactJets, "crossing")

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_whole_run_scans_its_frame(self, dim):
        # a whole run scans its frame's psi by the sampled run's rule
        rng = np.random.default_rng(10 + dim)
        n = {1: 64, 2: 24, 3: 12}[dim]
        grid = wv.make_grid(dim, (n,) * dim, 0.05, -0.3)
        field = wv.SampledField(grid, 0.0, 0.02, rng.standard_normal((5,) + grid.shape))
        spec = wv.StencilSpec()
        run, whole = _WindowRun(field, spec, PARTS), _whole(wv.fd_jet_field(field, 0, spec))
        for _ in range(12):
            point = grid.point(tuple(int(i) for i in rng.integers(0, n, dim)))
            for axis in range(dim):
                level = float(rng.uniform(-0.5, 0.5))
                near = float(rng.uniform(-0.3, -0.3 + 0.05 * (n - 1)))
                got = whole.crossings(point, axis, level, near)
                assert len(got) == 1
                _same_result(got, run.crossings(point, axis, level, near)[:1])

    def test_whole_run_reads_its_held_stacks(self, monkeypatch):
        # a whole run serves a stacked read from its one frame's jets: no kernel
        # call, and the per-point reads' bits
        whole = _whole(wv.fd_jet_field(_moving_bump_track(2, "level")[0], 2, wv.StencilSpec()))
        frames = np.zeros(3, dtype=int)
        points = np.array([whole.grid.point(fid) for fid in ((2.0, 5.0), (3.2, 9.4), (23.7, 24.1))])
        runs, reads = _recording(monkeypatch)
        parts, ok = whole.jets_stack(frames, points, ("grad",))
        assert runs == reads == [] and whole.passes == whole.points == 0
        TestStackedReads._assert_stack_is_per_point(
            parts, ok, TestStackedReads._per_point(whole, frames, points, ("grad",)))
        assert ok.tolist() == [False, True, True]  # (2, 5)'s block reaches the border band


# --------------------------------------------------------------------------
# the exact zone of a window: the box less half a stencil at each cut face


JET_ARRAYS = ("psi", "dpsi_dt", "grad", "hessian", "time_mixed", "valid")


def _window_and_full(field, spec, frame, anchor):
    """A window run opened at ``anchor``, its jets of ``frame`` and the full-grid
    jets of ``frame``."""
    run = _WindowRun(field, spec, PARTS)
    run._open(frame, anchor)
    arrays = [run.stacks[name][frame - run.frames.start] for name in JET_ARRAYS]
    grid = wv.Grid(arrays[0].shape, field.grid.spacing, tuple(field.grid.point(run.lo)))
    window = wv.JetField(grid, field.time(frame), frame, *arrays)
    return run, window, wv.fd_jet_field(field, frame, spec)


def _same_bits(window, full, region, lo):
    """Whether every jet array of ``window`` equals ``full`` bit for bit on the
    grid index box ``region`` (slices), ``lo`` being the window's offset."""
    local = tuple(slice(r.start - o, r.stop - o) for r, o in zip(region, lo))
    return all(np.ascontiguousarray(getattr(window, name)[local]).tobytes()
               == np.ascontiguousarray(getattr(full, name)[region]).tobytes()
               for name in JET_ARRAYS)


class TestExactZone:
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("order", (2, 4))
    @pytest.mark.parametrize("dim", (1, 2, 3, 4))
    def test_window_jets_equal_full_grid_jets_on_the_whole_zone(self, dim, order, boundary):
        rng = np.random.default_rng(dim)
        n = 14  # wider than every box, so boxes are cut
        grid = wv.make_grid(dim, (n,) * dim, 0.05, -0.3)
        field = wv.SampledField(grid, 0.1, 0.02, rng.standard_normal((9,) + grid.shape))
        spec = wv.StencilSpec(order, boundary)
        hw = spec.half_width
        half = 1 + hw + tracking._WINDOW_SLACK
        # per axis, a box cut on both sides, one cut on one side that just
        # reaches the low grid face, and one clipped by it (the narrowest box)
        cases = (n // 2, half, 1)
        anchors = [tuple(cases[(k + a) % 3] for a in range(dim)) for k in range(3)]
        for anchor in anchors:
            for frame in (4, 1, 0):  # end frames: one-sided or no time taps
                run, window, full = _window_and_full(field, spec, frame, anchor)
                lo, (zlo, zhi) = run.lo, run._exact
                hi = tuple(o + s for o, s in zip(lo, window.grid.shape))
                for a, c in enumerate(anchor):
                    low_cut, high_cut = lo[a] > 0, hi[a] < n
                    assert (low_cut, high_cut) == {n // 2: (True, True), half: (False, True),
                                                   1: (False, True)}[c]
                    assert hi[a] - lo[a] == (2 * half + 1 if c != 1 else half + 2)
                    assert zlo[a] == (lo[a] + hw if low_cut else 0)
                    assert zhi[a] == (hi[a] - 1 - hw if high_cut else n - 1)
                zone = tuple(slice(l, h + 1) for l, h in zip(zlo, zhi))
                assert _same_bits(window, full, zone, lo)
                # tight: one cell outside the zone at any cut face, some entry differs
                for a in range(dim):
                    for cut, index in ((lo[a] > 0, zlo[a] - 1), (hi[a] < n, zhi[a] + 1)):
                        if cut:
                            slab = zone[:a] + (slice(index, index + 1),) + zone[a + 1:]
                            assert not _same_bits(window, full, slab, lo)
