"""End-to-end command-line tests; every command is also a library call."""

import numpy as np
import pytest

import wavevel as wv
import wavevel.cli
from wavevel.cli import cli


def _generate(tmp_path, kind_args, name="field.wvf", frames=5, shape="48,48",
              spacing="0.05", origin="-1.175", dt=0.01):
    out = tmp_path / name
    code = cli(
        ["generate", *kind_args, "--shape", shape, "--spacing", spacing,
         "--origin", origin, "--frames", str(frames), "--dt", str(dt),
         "--out", str(out)]
    )
    assert code == 0
    return out


GAUSS = ["--kind", "translating-gaussian", "--param", "velocity=0.7,0",
         "--param", "sigma=2.0"]
WAVE = ["--kind", "plane-wave", "--param", "wave_vector=2,1",
        "--param", "angular_frequency=3"]


def _reference_track_csv(path, result):
    """The row-by-row track CSV writer the CLI used before: the byte reference."""
    n = result.positions.shape[1]
    names = (["t"] + [f"pos_{a + 1}" for a in range(n)]
             + [f"emp_{a + 1}" for a in range(n)] + [f"comp_{a + 1}" for a in range(n)])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for m in range(result.times.size):
            row = [result.times[m], *result.positions[m],
                   *result.empirical_velocity[m], *result.computed_velocity[m]]
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


class TestGenerateInfo:
    def test_generate_and_info(self, tmp_path, capsys):
        path = _generate(tmp_path, GAUSS)
        field = wv.read_field(path)
        assert field.frames == 5
        assert field.grid.shape == (48, 48)
        assert cli(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shape:   (48, 48)" in out
        assert "frames:  5" in out

    def test_generate_matches_library(self, tmp_path):
        path = _generate(tmp_path, GAUSS)
        field = wv.read_field(path)
        ref = wv.sample(
            wv.make_field("translating-gaussian", velocity=(0.7, 0.0), sigma=2.0),
            wv.make_grid(2, [48, 48], 0.05, -1.175),
            0.01 * np.arange(5),
        )
        assert np.array_equal(field.values, ref.values)

    def test_unknown_kind_is_usage_error(self, tmp_path):
        code = cli(["generate", "--kind", "vortex", "--shape", "8,8", "--spacing",
                    "0.1", "--origin", "0", "--out", str(tmp_path / "x.wvf")])
        assert code == 2

    @pytest.mark.parametrize("kind_args, message", [
        (["--kind", "translating-gaussian", "--param", "velocity=0.7,0"],
         "field kind 'translating-gaussian' needs parameter 'sigma'"),
        (GAUSS + ["--param", "bogus=2"],
         "field kind 'translating-gaussian' has no parameter 'bogus'"),
        (WAVE + ["--param", "amplitude=1,2"],
         "parameter 'amplitude' of field kind 'plane-wave' must be one number"),
        # these printed only "could not convert string to float: 'abc'"
        (["--kind", "translating-gaussian", "--param", "velocity=0.7,0", "--param", "sigma=abc"],
         "parameter 'sigma' of field kind 'translating-gaussian' must be one number, got 'abc'"),
        (["--kind", "translating-gaussian", "--param", "velocity=0.7,abc", "--param", "sigma=2"],
         "parameter 'velocity' of field kind 'translating-gaussian' takes numbers, "
         "not the text '0.7,abc'"),
        # this one said only "gaussian parameters must be finite"
        (["--kind", "translating-gaussian", "--param", "velocity=nan,0", "--param", "sigma=1.0"],
         "parameter 'velocity' of field kind 'translating-gaussian' must be finite"),
        # this one reported the polynomial triple form
        (GAUSS + ["--param", "terms=3:1,1:0"],
         "field kind 'translating-gaussian' has no parameter 'terms'"),
    ], ids=("missing", "unknown", "vector-for-number", "text-for-number", "text-for-vector",
            "nan-vector", "terms-on-another-kind"))
    def test_bad_param_is_usage_error(self, tmp_path, capsys, kind_args, message):
        # the first three raised an uncaught TypeError from the catalog constructor
        code = cli(["generate", *kind_args, "--shape", "8,8", "--spacing", "0.1",
                    "--origin", "0", "--out", str(tmp_path / "x.wvf")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.wvf").exists()

    @pytest.mark.parametrize("terms", ["1", "1:2,0", "x:2,0:0"])
    def test_malformed_polynomial_terms_are_usage_errors(self, tmp_path, capsys, terms):
        # "terms=1" printed only "not enough values to unpack (expected 3, got 1)"
        code = cli(["generate", "--kind", "polynomial", "--param", f"terms={terms}",
                    "--shape", "8,8", "--spacing", "0.1", "--origin", "0",
                    "--out", str(tmp_path / "x.wvf")])
        assert code == 2
        err = capsys.readouterr().err
        assert "parameter 'terms' of field kind 'polynomial'" in err
        assert "COEFF:E1,...,EN:ET" in err
        assert not (tmp_path / "x.wvf").exists()

    def test_polynomial_terms_syntax(self, tmp_path):
        path = _generate(
            tmp_path,
            ["--kind", "polynomial", "--param", "terms=1:2,0:0;3:1,1:0;2:0,0:1"],
        )
        field = wv.read_field(path)
        # psi = x^2 + 3xy + 2t at the origin node
        assert field.values[0, 0, 0] == pytest.approx(
            (-1.175) ** 2 + 3 * (-1.175) * (-1.175), rel=1e-15
        )


class TestVelocityScalar:
    def test_order1_gaussian_csv(self, tmp_path, capsys):
        path = _generate(tmp_path, GAUSS)
        csv = tmp_path / "v1.csv"
        assert cli(["velocity", str(path), "--order", "1", "--csv", str(csv)]) == 0
        header = csv.read_text().splitlines()[0]
        assert header == "x1,x2,v1_1,v1_2,cond,valid"

    def test_order0_csv_columns(self, tmp_path):
        path = _generate(tmp_path, GAUSS)
        csv = tmp_path / "v0.csv"
        assert cli(["velocity", str(path), "--order", "0", "--csv", str(csv)]) == 0
        assert csv.read_text().splitlines()[0] == "x1,x2,v0_1,v0_2,w_1,w_2,valid"

    def test_field_output_round_trips(self, tmp_path):
        path = _generate(tmp_path, GAUSS)
        prefix = str(tmp_path / "out")
        assert cli(["velocity", str(path), "--order", "1",
                    "--field-out", prefix]) == 0
        comp = wv.read_field(f"{prefix}_v1_1.wvf")
        valid = wv.read_field(f"{prefix}_valid.wvf")
        assert comp.frames == 1 and comp.grid.shape == (48, 48)
        mask = valid.values[0] == 1.0
        assert mask.any()
        assert np.abs(comp.values[0][mask] - 0.7).max() < 1e-4
        assert np.all(comp.values[0][~mask] == 0.0)

    def test_plane_wave_all_invalid_warns_but_succeeds(self, tmp_path, capsys):
        path = _generate(tmp_path, WAVE)
        # rank-one Hessian: with the threshold at the jet-error scale nothing
        # is valid, which is reported as a warning but is not a failure
        code = cli(["velocity", str(path), "--order", "1", "--eps-singular", "1e-5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "0/2304 valid" in captured.out
        assert "warning" in captured.err

    def test_scalar_median_near_dimension(self, tmp_path, capsys):
        path = _generate(tmp_path, GAUSS)
        assert cli(["scalar", str(path), "--csv", str(tmp_path / "s.csv")]) == 0
        out = capsys.readouterr().out
        median = float(out.splitlines()[-2].split(":")[1])
        assert median == pytest.approx(2.0, abs=1e-2)


    def test_one_sided_boundary_keeps_the_border(self, tmp_path, capsys):
        # shrink-to-valid leaves the order-4 border band invalid; one-sided fills it
        path = _generate(tmp_path, GAUSS, shape="32,32", origin="-0.775")
        assert cli(["velocity", str(path), "--order", "0"]) == 0
        assert "784/1024 valid points" in capsys.readouterr().out
        assert cli(["velocity", str(path), "--order", "0", "--boundary", "one-sided"]) == 0
        assert "1024/1024 valid points" in capsys.readouterr().out

    @pytest.mark.parametrize("spacing, dt, message", [
        (1e-200, 0.1, "step 1e-200 is out of range for a derivative-2 stencil"),
        (0.1, 5e-324, "step 5e-324 is out of range for a derivative-1 stencil"),
    ])
    @pytest.mark.parametrize("command", [
        ["velocity", "--order", "0"],
        ["track", "--attribute", "gradient-set", "--seed", "8,8"],
    ])
    def test_out_of_range_step_is_usage_error(self, tmp_path, capsys, spacing, dt, message,
                                              command):
        # a spacing of 1e-200 raised ZeroDivisionError; a dt of 5e-324 gave NaN rows as valid
        values = np.random.default_rng(0).standard_normal((5, 16, 16))
        path = tmp_path / "tiny.wvf"
        wv.write_field(wv.SampledField(wv.make_grid(2, (16, 16), spacing, 0.0), 0.0, dt, values),
                       path)
        assert cli([command[0], str(path), *command[1:]]) == 2
        assert message in capsys.readouterr().err

    def test_overflowing_jets_are_not_valid(self, tmp_path, capsys):
        # 144 of 256 points were reported valid, every one of them NaN
        path = _generate(tmp_path, [*WAVE, "--param", "amplitude=1e308"], shape="16,16",
                         origin="0")
        assert cli(["velocity", str(path), "--order", "0"]) == 0
        assert "0/256 valid points" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["velocity", "--order", "1"], ["scalar"]])
    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    def test_bad_singularity_threshold_is_usage_error(self, tmp_path, capsys, command, eps):
        # -1 passed singular Hessians; nan printed "0/2304 valid points" and exited 0
        path = _generate(tmp_path, GAUSS)
        assert cli([command[0], str(path), *command[1:], f"--eps-singular={eps}"]) == 2
        assert "eps_singular must be finite and non-negative" in capsys.readouterr().err


    @pytest.mark.parametrize("command, frame", [
        (["velocity", "--order", "1"], "9"), (["velocity", "--order", "0"], "5"),
        (["scalar"], "-1"),
    ])
    def test_frame_out_of_range_is_usage_error(self, tmp_path, capsys, command, frame):
        # used to raise an uncaught IndexError from fd_jet_stacks
        path = _generate(tmp_path, GAUSS)
        assert cli([command[0], str(path), *command[1:], f"--frame={frame}"]) == 2
        assert f"error: frame {frame} out of range [0, 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["velocity", "--order", "1"], ["scalar"]])
    def test_too_few_frames_for_the_order(self, tmp_path, capsys, command):
        # four frames carry an order-2 time stencil, not an order-4 one
        path = _generate(tmp_path, GAUSS, frames=4)
        assert cli([command[0], str(path), *command[1:]]) == 2
        assert ("error: order-4 time derivatives need at least 5 frames, got 4"
                in capsys.readouterr().err)
        assert cli([command[0], str(path), *command[1:], "--fd-order", "2"]) == 0
        assert " 0/" not in capsys.readouterr().out


class TestTrack:
    def test_peak_track_within_tolerance(self, tmp_path, capsys):
        path = _generate(tmp_path, GAUSS, frames=9, dt=0.02)
        code = cli(["track", str(path), "--attribute", "gradient-set",
                    "--targets", "0,0", "--seed", "23,23", "--tol", "5e-3",
                    "--csv", str(tmp_path / "track.csv")])
        assert code == 0
        assert "deviation" in capsys.readouterr().out
        lines = (tmp_path / "track.csv").read_text().splitlines()
        assert lines[0] == "t,pos_1,pos_2,emp_1,emp_2,comp_1,comp_2"
        assert len(lines) == 10

    @pytest.mark.parametrize("attribute, seed", [
        (["gradient-set"], "23,23"),
        (["level-set", "--level", "0.8"], "30,23"),
    ])
    def test_track_reports_its_work(self, tmp_path, monkeypatch, capsys, attribute, seed):
        path = _generate(tmp_path, GAUSS, frames=9, dt=0.02)
        results = []
        track = wv.track_attribute
        monkeypatch.setattr(wavevel.cli, "track_attribute",
                            lambda *args, **kwargs: results.append(track(*args, **kwargs))
                            or results[-1])
        assert cli(["track", str(path), "--attribute", *attribute, "--seed", seed]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("deviation (empirical vs computed):")
        result = results[0]
        iterations = result.newton_iterations
        assert lines[-1] == (
            f"newton iterations: {iterations.sum()} total, at most {iterations.max()} on one "
            f"frame; jet passes: {result.jet_passes}, jet points: {result.jet_points}")
        assert result.jet_passes >= 1 and result.jet_points > 0
        if attribute[0] == "level-set":
            assert lines[-1].startswith("newton iterations: 0 total, at most 0 on one frame;")
        else:
            assert iterations.sum() > iterations.size

    def test_track_csv_bytes_match_row_writer(self, tmp_path, monkeypatch):
        path = _generate(tmp_path, GAUSS, frames=5, dt=0.02)
        results = []

        def recording_track(*args, **kwargs):
            results.append(wv.track_attribute(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(wavevel.cli, "track_attribute", recording_track)
        got = tmp_path / "track.csv"
        assert cli(["track", str(path), "--attribute", "gradient-set",
                    "--targets", "0,0", "--seed", "23,23", "--csv", str(got)]) == 0
        want = tmp_path / "want.csv"
        _reference_track_csv(want, results[0])
        assert got.read_bytes() == want.read_bytes()

    def test_track_csv_special_values(self, tmp_path):
        result = wv.TrackResult(
            "gradient-set",
            np.array([0.0, 0.1, 0.2]),
            np.array([[-0.0, 1.0 / 3.0], [5e-324, 1e300], [2.5, -7.0]]),
            np.array([[np.nan, np.inf], [-np.inf, 0.1], [np.nan, np.nan]]),
            np.array([[0.7, -0.0], [np.nan, 1e-300], [0.7, 0.0]]),
            0.0,
        )
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        wavevel.cli._write_track_csv(got, result)
        _reference_track_csv(want, result)
        assert got.read_bytes() == want.read_bytes()

    def test_track_tolerance_failure_exits_1(self, tmp_path):
        path = _generate(tmp_path, GAUSS, frames=9, dt=0.02)
        code = cli(["track", str(path), "--attribute", "gradient-set",
                    "--targets", "0,0", "--seed", "23,23", "--tol", "1e-9"])
        assert code == 1

    def test_level_set_track(self, tmp_path):
        path = _generate(tmp_path, GAUSS, frames=9, dt=0.02)
        code = cli(["track", str(path), "--attribute", "level-set",
                    "--level", "0.8", "--seed", "30,23"])
        assert code == 0

    def test_lost_attribute_exits_1(self, tmp_path):
        path = _generate(tmp_path, GAUSS)
        code = cli(["track", str(path), "--attribute", "level-set",
                    "--level", "7.5", "--seed", "23,23"])
        assert code == 1

    @pytest.mark.parametrize("attribute, seed", [
        (["gradient-set"], "20"),  # used to broadcast to (20, 20)
        (["gradient-set"], "20,20,3"),
        (["level-set", "--level", "0.8"], "20,48"),  # one past the last index
        (["gradient-set"], "-1,20"),  # used to wrap to the far side of the grid
    ])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, attribute, seed):
        path = _generate(tmp_path, GAUSS)
        assert cli(["track", str(path), "--attribute", *attribute, f"--seed={seed}"]) == 2
        assert "seed must be 2 integer indices" in capsys.readouterr().err

    def test_too_few_frames_for_the_time_stencil(self, tmp_path, capsys):
        # order-4 time derivatives need 5 frames; order 2 needs 3
        path = _generate(tmp_path, GAUSS, frames=4, dt=0.02)
        args = ["track", str(path), "--attribute", "gradient-set", "--seed", "23,23"]
        assert cli(args) == 2
        assert "need at least 5 frames, got 4" in capsys.readouterr().err
        assert cli(args + ["--fd-order", "2"]) == 0
        assert "tracked gradient-set attribute over 4 frames" in capsys.readouterr().out

    @pytest.mark.parametrize("attribute, message", [
        (["level-set", "--level", "nan"], "level must be finite"),
        (["level-set", "--level=-inf"], "level must be finite"),
        (["gradient-set", "--targets", "nan,0"], "gradient targets must be finite"),
    ])
    def test_nonfinite_attribute_is_usage_error(self, tmp_path, capsys, attribute, message):
        # these exited 1 as tracking failures ("no interior frames with a defined
        # computed velocity", "Newton iterate became non-finite")
        path = _generate(tmp_path, GAUSS, frames=9, dt=0.02)
        assert cli(["track", str(path), "--attribute", *attribute, "--seed", "16,16"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1e-3", "-inf"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, tol):
        # NaN passed every check (no deviation exceeds it) and exited 0; a
        # negative tolerance failed every check and exited 1
        path = _generate(tmp_path, GAUSS, frames=9, dt=0.02)
        assert cli(["track", str(path), "--attribute", "gradient-set", "--seed", "23,23",
                    f"--tol={tol}"]) == 2
        assert f"--tol must be >= 0, got {float(tol)}" in capsys.readouterr().err

    def test_missing_level_is_usage_error(self, tmp_path):
        path = _generate(tmp_path, GAUSS)
        assert cli(["track", str(path), "--attribute", "level-set",
                    "--seed", "23,23"]) == 2


class TestCovcheck:
    def test_identity_map_passes(self, capsys):
        code = cli(["covcheck", *GAUSS, "--matrix", "1,0,0,1", "--samples", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max deviation 0.000e+00" in out

    def test_random_map_passes_default_tolerance(self):
        code = cli(["covcheck", *GAUSS, "--matrix", "2,0.3,0.1,1.5",
                    "--offset", "0.2,-0.1", "--samples", "50", "--t", "0.3"])
        assert code == 0

    def test_unattainable_tolerance_fails(self):
        code = cli(["covcheck", *GAUSS, "--matrix", "2,0.3,0.1,1.5",
                    "--samples", "50", "--tol", "1e-18"])
        assert code == 1

    # the benchmark's cli covcheck at seed 23: a well-conditioned map and Hessian, but
    # psi_t near 0 makes the reciprocals large, and the contraction's rounding with
    # them (4.1e-11 where the rounding bound is 6.3e-11; 3016 x it with v off by 1e-12)
    SEED_23 = ["covcheck", "--kind", "translating-gaussian",
               "--param", "velocity=0.42,0.5599999999999999", "--param", "sigma=1.0",
               "--param", "center=0.0026000000000000003,0.0062",
               "--matrix=0.2834139691753482,-0.545672654832703,0.8489577079935345,"
               "-0.2397134373173192", "--offset=0.5014543853610188,-0.6450139061015544",
               "--samples", "250", "--box=-0.5,0.5", "--rng-seed", "23"]

    def test_contraction_within_its_rounding_bound_passes(self, capsys):
        assert cli(self.SEED_23) == 0
        out = capsys.readouterr().out
        assert "contraction scalar: max deviation 4.106e-11 (at most 1.78 x" in out
        assert out.splitlines()[-1].startswith("OK: all deviations within 1.0e-11")

    @pytest.mark.parametrize("argv", [
        SEED_23,
        ["covcheck", *GAUSS, "--matrix", "2,0.3,0.1,1.5", "--offset", "0.2,-0.1",
         "--samples", "50", "--t", "0.3"],
        # 3-D, singular values (1, 0.1, 0.1): the composed Hessian's kappa is 100,
        # ||H||_F^3 / |det H| 1e4, and that reading would pass the error below
        ["covcheck", "--kind", "translating-gaussian", "--param", "velocity=0.3,0.2,-0.25",
         "--param", "sigma=0.9", "--matrix", "0.6,0.08,0,-0.8,0.06,0,0,0,0.1",
         "--offset", "0.1,-0.05,0.02", "--samples", "50", "--box=-0.3,0.3", "--t", "0.3"],
    ])
    def test_order_one_error_of_1e12_fails_the_bound(self, argv, monkeypatch, capsys):
        # a relative error of 1e-12 in the composed field's mixed time rows, and so
        # in its order-one velocity: within the vector law's 1e-11, but the
        # contraction's rounding bound catches it
        def jets_off_by_1e12(field, points, t):
            psi, dpsi_dt, grad, hess, tmix = field.jet_arrays(points, t)
            if isinstance(field, wv.AffineReparamField):
                tmix = tmix * (1.0 + 1e-12)
            return psi, dpsi_dt, grad, hess, tmix

        check = wavevel.cli.check_transformation_laws
        monkeypatch.setattr(wavevel.cli, "check_transformation_laws",
                            lambda *args: check(*args, jet2_fn=jets_off_by_1e12))
        assert cli(argv) == 1
        assert "FAIL: contraction deviation" in capsys.readouterr().err
        monkeypatch.setattr(wavevel.cli, "check_transformation_laws", check)
        assert cli(argv) == 0

    @pytest.mark.parametrize("tol", ["nan", "-1e-3", "-inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        # NaN printed "OK: all deviations within nan" and exited 0 whatever the
        # deviation; a negative tolerance failed the check and exited 1
        assert cli(["covcheck", *GAUSS, "--matrix", "1,0,0,1", "--samples", "20",
                    f"--tol={tol}"]) == 2
        assert f"--tol must be >= 0, got {float(tol)}" in capsys.readouterr().err

    def test_wrong_matrix_size_is_usage_error(self):
        assert cli(["covcheck", *GAUSS, "--matrix", "1,0,0"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_nonpositive_samples_is_usage_error(self, samples, capsys):
        assert cli(["covcheck", *GAUSS, "--matrix", "1,0,0,1", "--samples", samples]) == 2
        assert "--samples must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("box", ["--box=nan,1", "--box=0,inf", "--box=-1e308,1e308"])
    def test_nonfinite_box_is_usage_error(self, box, capsys):
        assert cli(["covcheck", *GAUSS, "--matrix", "1,0,0,1", box]) == 2
        assert "--box expects LO,HI" in capsys.readouterr().err

    def test_nan_time_is_usage_error(self, capsys):
        assert cli(["covcheck", *GAUSS, "--matrix", "2,0.3,0.1,1.5", "--t", "nan"]) == 2
        assert "jet entries must be finite" in capsys.readouterr().err


class TestConfigAndUsage:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            "kind=translating-gaussian\n"
            "param=velocity=0.7,0\n"
            "# width of the bump\n"
            "param=sigma=2.0\n"
            "shape=48,48\n"
            "spacing=0.05\n"
            "origin=-1.175\n"
        )
        out = tmp_path / "cfg.wvf"
        assert cli(["--config", str(cfg), "generate", "--out", str(out)]) == 0
        assert wv.read_field(out).grid.shape == (48, 48)

    def test_cli_flags_override_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("frames=3\n")
        out = tmp_path / "o.wvf"
        assert cli(["--config", str(cfg), "generate", *GAUSS, "--shape", "48,48",
                    "--spacing", "0.05", "--origin", "-1.175", "--frames", "7",
                    "--out", str(out)]) == 0
        assert wv.read_field(out).frames == 7

    @pytest.mark.parametrize("spelling", [["--config", "{cfg}"], ["--config={cfg}"]])
    def test_config_spellings_take_effect(self, tmp_path, capsys, spelling):
        # --config=PATH used to be swallowed by an option nothing read: order 4 ran
        path = _generate(tmp_path, GAUSS)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fd-order=3\n")
        flag = [arg.format(cfg=cfg) for arg in spelling]
        assert cli([*flag, "velocity", str(path), "--order", "0"]) == 2
        assert "invalid choice: 3" in capsys.readouterr().err
        cfg.write_text("order=1\n")
        assert cli([*flag, "velocity", str(path)]) == 0
        assert "order-1 velocities" in capsys.readouterr().out

    @pytest.mark.parametrize("line, argv", [
        ("origin=-1.175,-1.175", ["generate", *GAUSS, "--shape", "48,48", "--spacing", "0.05"]),
        ("box=-0.5,0.5", ["covcheck", *GAUSS, "--matrix", "2,0.3,0.1,1.5"]),
        ("matrix=-2,0.3,0.1,-1.5", ["covcheck", *GAUSS]),
    ])
    def test_config_values_may_start_with_a_minus(self, tmp_path, capsys, line, argv):
        # "--origin", "-1.175,-1.175" read the value as an option: exit 2
        cfg = tmp_path / "minus.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o.wvf"
        argv = [*argv, "--out", str(out)] if argv[0] == "generate" else argv
        assert cli(["--config", str(cfg), *argv]) == 0, capsys.readouterr().err
        if argv[0] == "generate":
            assert wv.read_field(out).grid.origin == (-1.175, -1.175)

    @pytest.mark.parametrize("flag", ["--conf", "--con", "--configs"])
    def test_other_config_spellings_are_unrecognised(self, tmp_path, capsys, flag):
        path = _generate(tmp_path, GAUSS)
        cfg = tmp_path / "good.cfg"
        cfg.write_text("order=1\n")
        capsys.readouterr()
        assert cli([flag, str(cfg), "velocity", str(path)]) == 2
        captured = capsys.readouterr()
        assert "wavevel: error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [["info", "f.wvf", "--config"], ["--config="]])
    def test_config_without_a_path_is_usage_error(self, argv, capsys):
        assert cli(argv) == 2
        assert "error: --config expects a file path" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert cli(["--config", str(tmp_path / "absent.cfg"), "info", "f.wvf"]) == 2
        assert "absent.cfg" in capsys.readouterr().err

    def test_help_names_config(self, capsys):
        assert cli(["-h"]) == 0
        assert "--config PATH" in " ".join(capsys.readouterr().out.split())

    def test_param_without_equals_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.wvf")
        assert cli(["generate", "--kind", "static-gaussian", "--param", "sigma",
                    "--shape", "8,8", "--spacing", "0.1", "--origin", "0", "--out", out]) == 2
        assert "--param expects KEY=VALUE, got 'sigma'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--spacing", "--origin"])
    def test_grid_vector_count_mismatch_is_usage_error(self, tmp_path, capsys, option):
        argv = {"--shape": "8,8", "--spacing": "0.1", "--origin": "0"}
        argv[option] = "0.1,0.2,0.3"
        flat = [item for pair in argv.items() for item in pair]
        assert cli(["generate", *GAUSS, *flat, "--out", str(tmp_path / "x.wvf")]) == 2
        assert f"{option} needs 1 or 2 values, got 3" in capsys.readouterr().err

    def test_offset_count_mismatch_is_usage_error(self, capsys):
        assert cli(["covcheck", *GAUSS, "--matrix", "1,0,0,1", "--offset", "0.1,0.2,0.3"]) == 2
        assert "--offset needs 1 or 2 values, got 3" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        assert cli([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert cli(["info", "--frobnicate"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert cli(["info", str(tmp_path / "absent.wvf")]) == 2


class TestFailedAllocation:
    """An input too large to allocate is an input error (exit 2) that names its
    option, not a MemoryError traceback.  Every size here exceeds 2**47 bytes,
    the 64-bit user address space, so it can be allocated on no machine."""

    def test_covcheck_samples(self, capsys):
        samples = 10**13
        assert samples * 2 * 8 > 2**47  # the (samples, 2) float points: 146 TiB
        argv = ["covcheck", *GAUSS, "--matrix", "2,0.3,0.1,1.5", "--samples", str(samples)]
        assert cli(argv) == 2
        assert "error: 160,000,000,000,000 bytes for --samples," in capsys.readouterr().err

    def test_generate_shape(self, tmp_path, capsys):
        shape = (100_000,) * 3
        assert 5 * np.prod(shape, dtype=float) * 8 > 2**47  # 5 frames of floats: 35.5 PiB
        out = tmp_path / "huge.wvf"
        assert cli(["generate", "--kind", "translating-gaussian", "--param", "velocity=0.7,0,0",
                    "--param", "sigma=1.0", "--shape", ",".join(map(str, shape)),
                    "--spacing", "0.05", "--origin", "0", "--frames", "5",
                    "--out", str(out)]) == 2
        assert "for --shape and --frames, more than the" in capsys.readouterr().err
        assert not out.exists()


class TestMemoryBound:
    """A size above the machine's physical memory is an input error before
    anything is allocated; the tests shrink the memory to 1 MiB, so no size
    here comes near the real machine's."""

    @pytest.fixture(autouse=True)
    def one_mebibyte(self, monkeypatch):
        monkeypatch.setattr(wavevel.cli, "_physical_memory", lambda: 2**20)

    def test_generate_shape_and_frames(self, tmp_path, monkeypatch, capsys):
        sampled = []
        monkeypatch.setattr(wavevel.cli, "sample", lambda *args: sampled.append(args))
        out = tmp_path / "big.wvf"
        assert cli(["generate", *GAUSS, "--shape", "512,512", "--spacing", "0.05",
                    "--origin", "0", "--frames", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("error: 10,485,760 bytes for --shape and --frames, more than the "
                "1,048,576 bytes of physical memory") in err
        assert sampled == [] and not out.exists()

    def test_covcheck_samples(self, monkeypatch, capsys):
        checked = []
        monkeypatch.setattr(wavevel.cli, "check_transformation_laws",
                            lambda *args: checked.append(args))
        assert cli(["covcheck", *GAUSS, "--matrix", "2,0.3,0.1,1.5",
                    "--samples", "100000"]) == 2
        assert ("error: 1,600,000 bytes for --samples, more than the 1,048,576 bytes "
                "of physical memory") in capsys.readouterr().err
        assert checked == []

    def test_sizes_within_memory_run(self, tmp_path):
        _generate(tmp_path, GAUSS, frames=5, shape="16,16")  # 10,240 bytes
        assert cli(["covcheck", *GAUSS, "--matrix", "2,0.3,0.1,1.5", "--samples", "100"]) == 0


class TestOneParser:
    """One parser serves every ``cli()`` call of a process; no call leaves state in it."""

    def test_parser_is_built_once(self):
        assert wavevel.cli._build_parser() is wavevel.cli._build_parser()

    def test_config_defaults_do_not_outlive_their_call(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("frames=3\n")
        grid = ["--shape", "48,48", "--spacing", "0.05", "--origin", "-1.175"]
        assert cli(["--config", str(cfg), "generate", *GAUSS, *grid,
                    "--out", str(tmp_path / "a.wvf")]) == 0
        assert cli(["generate", *GAUSS, *grid, "--out", str(tmp_path / "b.wvf")]) == 0
        assert wv.read_field(tmp_path / "a.wvf").frames == 3
        assert wv.read_field(tmp_path / "b.wvf").frames == 5

    def test_param_lists_start_empty(self, tmp_path):
        parse = wavevel.cli._build_parser().parse_args
        grid = ["--shape", "8,8", "--spacing", "0.1", "--origin", "0", "--out", "x.wvf"]
        assert parse(["generate", *GAUSS, *grid]).param == ["velocity=0.7,0", "sigma=2.0"]
        assert parse(["generate", *WAVE, *grid]).param == ["wave_vector=2,1",
                                                          "angular_frequency=3"]
        assert parse(["generate", "--kind", "static-gaussian", *grid]).param is None
        # a plane wave given the Gaussian's parameters as well would exit 2
        _generate(tmp_path, GAUSS, name="g.wvf")
        _generate(tmp_path, WAVE, name="w.wvf")

    def test_a_usage_error_leaves_the_next_call_alone(self, tmp_path, capsys):
        path = _generate(tmp_path, GAUSS)
        capsys.readouterr()
        assert cli(["velocity", str(path), "--order", "5"]) == 2
        assert "invalid choice: 5" in capsys.readouterr().err
        assert cli(["velocity", str(path), "--order", "1"]) == 0
        captured = capsys.readouterr()
        assert "order-1 velocities" in captured.out and captured.err == ""
