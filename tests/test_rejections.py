"""Rejection paths: every documented input error raises where it is checked.

Each test feeds one malformed input to the public call that validates it and
checks the exception type and, where the message is the user's only clue,
its text.  Nothing here measures accuracy; the other test files do that.
"""

import numpy as np
import pytest

import wavevel as wv
from wavevel.cli import cli
from wavevel.tracking import _deviation

GAUSS2 = wv.StaticGaussian(0.8, (0.1, -0.2))


def _jet2():
    return wv.Jet2(wv.Jet1(0.5, 0.1, np.ones(2)), np.eye(2), np.zeros(2))


def _sampled():
    return wv.sample(GAUSS2, wv.make_grid(2, (9, 9), 0.25, -1.0), 0.1 * np.arange(5))


# --------------------------------------------------------------------------
# affine maps and the transformation checks


def test_ill_conditioned_map_is_rejected_by_its_inverse_residual():
    # |det| = 0.01 passes MIN_DET; A @ inv(A) misses the identity by ~1e-8
    matrix = [[1e3, 1e3], [1e3, 1e3 + 1e-5]]
    with pytest.raises(ValueError, match="inverse residual exceeds 1e-12"):
        wv.AffineMap(matrix)


def test_covcheck_reports_an_ill_conditioned_map(capsys):
    argv = ["covcheck", "--kind", "static-gaussian", "--param", "sigma=0.8",
            "--matrix", "1000,1000,1000,1000.00001"]
    assert cli(argv) == 2
    assert "inverse residual exceeds 1e-12" in capsys.readouterr().err


def test_random_affine_needs_a_condition_bound_of_at_least_one():
    with pytest.raises(ValueError, match="max_condition must be >= 1"):
        wv.random_affine(np.random.default_rng(0), 2, max_condition=0.5)


def test_dimension_mismatches_of_the_transformation_laws():
    amap3 = wv.AffineMap.identity(3)
    with pytest.raises(ValueError, match="dimension mismatch: jet 2, map 3"):
        wv.pullback_jet2(_jet2(), amap3)
    with pytest.raises(ValueError, match="dimension mismatch: field 2, map 3"):
        wv.AffineReparamField(GAUSS2, amap3)
    with pytest.raises(ValueError, match="dimension mismatch: field 2, map 3"):
        wv.check_transformation_laws(GAUSS2, amap3, np.zeros((4, 2)), 0.0)


def test_points_with_the_wrong_trailing_dimension():
    with pytest.raises(ValueError, match="points must have trailing dimension 2"):
        wv.check_transformation_laws(GAUSS2, wv.AffineMap.identity(2), np.zeros((4, 3)), 0.0)
    with pytest.raises(ValueError, match="points must have trailing dimension 2"):
        GAUSS2.value(np.zeros((4, 3)), 0.0)
    with pytest.raises(ValueError, match="points must have trailing dimension 2"):
        wv.AffineReparamField(GAUSS2, wv.AffineMap.identity(2)).jet_arrays(np.zeros(3), 0.0)


# --------------------------------------------------------------------------
# grids, sampled fields and the analytic catalog


def test_grid_needs_an_axis():
    with pytest.raises(ValueError, match="at least one axis"):
        wv.Grid((), (), ())


def test_sampled_field_needs_a_frame():
    grid = wv.make_grid(2, (5, 5), 0.1, 0.0)
    with pytest.raises(ValueError, match="at least one time frame"):
        wv.SampledField(grid, 0.0, 0.1, np.empty((0, 5, 5)))


@pytest.mark.parametrize("frame", [-1, 5])
def test_sampled_field_time_out_of_range(frame):
    with pytest.raises(IndexError, match=rf"frame {frame} out of range \[0, 5\)"):
        _sampled().time(frame)


def test_ragged_vector_parameter_names_the_parameter():
    with pytest.raises(ValueError, match="parameter 'center' of field kind 'static-gaussian'"):
        wv.make_field("static-gaussian", sigma=1.0, center=((1, 2), (3,)))


@pytest.mark.parametrize("point, message", [
    (np.zeros(3), r"point must have shape \(2,\)"),
    (np.zeros((1, 2)), r"point must have shape \(2,\)"),
    (np.array([0.0, np.nan]), "point must be finite"),
    (np.array([np.inf, 0.0]), "point must be finite"),
])
def test_jet2_rejects_a_malformed_point(point, message):
    with pytest.raises(ValueError, match=message):
        GAUSS2.jet2(point, 0.0)


def test_translating_gaussian_center_and_velocity_lengths():
    with pytest.raises(ValueError, match="center and velocity must have equal length"):
        wv.TranslatingGaussian((0.7, 0.0), 1.0, center=(0.0, 0.0, 0.0))


def test_analytic_jet_field_dimension_mismatch():
    with pytest.raises(ValueError, match="field dim 2 != grid dim 3"):
        wv.analytic_jet_field(GAUSS2, wv.make_grid(3, (5, 5, 5), 0.1, 0.0), 0.0)


# --------------------------------------------------------------------------
# finite differences


def test_diff_along_axis_needs_a_whole_stencil():
    with pytest.raises(ValueError, match="axis needs at least 5 points for order 4"):
        wv.diff_along_axis(np.zeros((4, 9)), 0, 0.1, 1, wv.StencilSpec(4))


@pytest.mark.parametrize("index", [(4,), (4, 4, 4)])
def test_fd_jet2_at_index_length(index):
    with pytest.raises(ValueError, match=f"index must have 2 entries, got {len(index)}"):
        wv.fd_jet2_at(_sampled(), 2, index)


# --------------------------------------------------------------------------
# jets


def test_jet_shape_errors():
    with pytest.raises(ValueError, match="grad must be a 1-d vector"):
        wv.Jet1(0.0, 0.0, np.ones((2, 2)))
    jet1 = wv.Jet1(0.0, 0.0, np.ones(2))
    with pytest.raises(ValueError, match=r"hessian must have shape \(2, 2\)"):
        wv.Jet2(jet1, np.eye(3), np.zeros(2))
    with pytest.raises(ValueError, match=r"time_mixed must have shape \(2,\)"):
        wv.Jet2(jet1, np.eye(2), np.zeros(3))
    with pytest.raises(ValueError, match="time_mixed must be a 1-d vector"):
        wv.Jet2(jet1, np.eye(2), np.zeros((2, 1)))


@pytest.mark.parametrize("name", ["psi", "dpsi_dt", "grad", "hessian", "time_mixed", "valid"])
def test_jet_field_shape_errors(name):
    jets = wv.fd_jet_field(_sampled(), 2)
    parts = {k: getattr(jets, k) for k in
             ("psi", "dpsi_dt", "grad", "hessian", "time_mixed", "valid")}
    parts[name] = parts[name][:-1]
    with pytest.raises(ValueError, match=f"{name} must have shape"):
        wv.JetField(jets.grid, jets.t, jets.frame, **parts)


def test_jet_field_gives_no_jet_at_an_invalid_index():
    jets = wv.fd_jet_field(_sampled(), 2)  # shrink-to-valid: the border band is invalid
    assert not jets.valid[0, 4]
    assert jets.jet2_at((0, 4)) is None
    assert isinstance(jets.jet2_at((4, 4)), wv.Jet2)


# --------------------------------------------------------------------------
# velocities and tracking


def test_velocity_shape_errors():
    with pytest.raises(ValueError, match="equal-length vectors"):
        wv.ZeroOrderVelocity(np.ones(2), np.ones(3))
    with pytest.raises(ValueError, match="equal-length vectors"):
        wv.ZeroOrderVelocity(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="components must be a vector"):
        wv.FirstOrderVelocity(np.ones((2, 2)), True, 1.0)


def test_first_order_velocity_3d_needs_a_3d_jet():
    with pytest.raises(ValueError, match="expected a 3-d jet, got dimension 2"):
        wv.first_order_velocity_3d(_jet2())


def test_deviation_needs_an_interior_computed_velocity():
    empirical = np.ones((5, 2))
    computed = np.full((5, 2), np.nan)
    computed[[0, -1]] = 1.0  # end frames do not count
    with pytest.raises(wv.TrackingError, match="no interior frames"):
        _deviation(empirical, computed)
