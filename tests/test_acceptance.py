"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not tuned at runtime; point filters used
by the sampled-data criteria (validity mask, conditioning, near-stationary
skip) are stated in the test bodies.
"""

import time

import numpy as np
import pytest

import wavevel as wv
from test_findiff import CONVERGENCE_CASES, _max_component_errors


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_defining_identities():
    """Order-0 and order-1 defining identities on random jets, N = 1..4."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst0 = 0.0
    worst1 = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(1000):
            grad = rng.standard_normal(n)
            dpsi_dt = rng.standard_normal()
            jet1 = wv.Jet1(0.0, dpsi_dt, grad)
            v0 = wv.zero_order_velocity(jet1)
            resid0 = abs(grad @ v0.components + dpsi_dt) / max(abs(dpsi_dt), 1e-300)
            worst0 = max(worst0, resid0)
            h = rng.standard_normal((n, n))
            h = 0.5 * (h + h.T)
            tmix = rng.standard_normal(n)
            jet2 = wv.Jet2(jet1, h, tmix)
            v1 = wv.first_order_velocity(jet2, pivoted=True)
            if not v1.valid:
                continue
            resid1 = np.abs(h @ v1.components + tmix).max()
            scale = np.linalg.norm(h) * np.linalg.norm(v1.components) + np.linalg.norm(tmix)
            worst1 = max(worst1, resid1 / scale)
    elapsed = time.perf_counter() - t0
    ok = worst0 <= 1e-12 and worst1 <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"identity residuals {worst0:.2e} (order 0), {worst1:.2e} "
                   f"(order 1) on 4x1000 jets in {elapsed:.2f}s")
    assert worst0 <= 1e-12
    assert worst1 <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_rigid_translation():
    """Translating Gaussian: exact velocities analytically, budgeted with FD."""
    t0 = time.perf_counter()
    grid = wv.make_grid(2, [64, 64], 0.05, -1.575)
    rot = wv.AffineMap.rotation_2d(np.pi / 6).matrix
    worst = dict(analytic_v1=0.0, analytic_scalar=0.0, fd_v1=0.0, fd_scalar=0.0)
    for c in (np.array([0.7, 0.0]), rot @ np.array([0.7, 0.0])):
        field = wv.TranslatingGaussian(tuple(c), 3.5)
        jets_a = wv.analytic_jet_field(field, grid, 0.0)
        v1a = wv.velocity_field(jets_a, 1)
        assert v1a.valid.all()
        worst["analytic_v1"] = max(
            worst["analytic_v1"], np.abs(v1a.components - c).max() / np.abs(c).max()
        )
        v0a = wv.velocity_field(jets_a, 0)
        sca, scva = wv.contraction_scalar_field(v0a, v1a)
        worst["analytic_scalar"] = max(
            worst["analytic_scalar"], np.abs(sca[scva] - 2.0).max() / 2.0
        )
        sampled = wv.sample(field, grid, 0.01 * np.arange(5) - 0.02)
        jets = wv.fd_jet_field(sampled, 2)  # order 4, shrink: 60x60 interior
        v1 = wv.velocity_field(jets, 1)
        worst["fd_v1"] = max(worst["fd_v1"], np.abs(v1.components[v1.valid] - c).max())
        v0 = wv.velocity_field(jets, 0)
        sc, scv = wv.contraction_scalar_field(v0, v1)
        # reciprocals degrade where the field is nearly stationary; skip the
        # points with |psi_t| below 1% of its max over the frame
        pt = np.abs(jets.dpsi_dt)
        sel = scv & (pt >= 0.01 * np.nanmax(pt))
        worst["fd_scalar"] = max(worst["fd_scalar"], np.abs(sc[sel] - 2.0).max())
    elapsed = time.perf_counter() - t0
    ok = (
        worst["analytic_v1"] <= 1e-12
        and worst["analytic_scalar"] <= 1e-12
        and worst["fd_v1"] <= 1e-5
        and worst["fd_scalar"] <= 1e-4
        and elapsed < 10.0
    )
    _report(2, ok, "rigid translation: analytic v1 err "
                   f"{worst['analytic_v1']:.1e} (<=1e-12), scalar err "
                   f"{worst['analytic_scalar']:.1e} (<=1e-12); FD v1 err "
                   f"{worst['fd_v1']:.1e} (<=1e-5), scalar err "
                   f"{worst['fd_scalar']:.1e} (<=1e-4); {elapsed:.2f}s")
    assert worst["analytic_v1"] <= 1e-12
    assert worst["analytic_scalar"] <= 1e-12
    assert worst["fd_v1"] <= 1e-5
    assert worst["fd_scalar"] <= 1e-4
    assert elapsed < 10.0


def test_criterion_3_covariance_suite():
    """100 random affine maps (condition <= 50): all three laws to 1e-11."""
    rng = np.random.default_rng(77)
    field = wv.TranslatingGaussian((0.7, 0.2), 2.0)
    t0 = time.perf_counter()
    worst = dict(covector=0.0, vector=0.0, scalar=0.0)
    for _ in range(100):
        amap = wv.random_affine(rng, 2, max_condition=50.0)
        pts_new_frame = rng.uniform(-1.0, 1.0, size=(10, 2)) + np.array([0.21, 0.06])
        pts = amap.invert(pts_new_frame)
        worst["covector"] = max(
            worst["covector"],
            wv.check_zero_order_covariance(field, amap, pts, 0.3).max_deviation,
        )
        worst["vector"] = max(
            worst["vector"],
            wv.check_first_order_covariance(field, amap, pts, 0.3).max_deviation,
        )
        worst["scalar"] = max(
            worst["scalar"],
            wv.check_contraction_invariance(field, amap, pts, 0.3).max_deviation / 2.0,
        )
    # mirror map flips every velocity sign exactly
    mirror = wv.AffineMap.mirror(2)
    jet = field.jet2(np.array([0.4, -0.3]), 0.3)
    jet_m = wv.pullback_jet2(jet, mirror)
    v0, v0m = wv.zero_order_velocity(jet.jet1), wv.zero_order_velocity(jet_m.jet1)
    v1, v1m = wv.first_order_velocity(jet, pivoted=True), wv.first_order_velocity(jet_m, pivoted=True)
    mirror_exact = (
        np.array_equal(v0m.reciprocal, -v0.reciprocal)
        and np.array_equal(v0m.components, -v0.components)
        and np.array_equal(v1m.components, -v1.components)
    )
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-11 for v in worst.values()) and mirror_exact and elapsed < 5.0
    _report(3, ok, f"covariance: covector {worst['covector']:.1e}, vector "
                   f"{worst['vector']:.1e}, scalar {worst['scalar']:.1e} "
                   f"(<=1e-11 each); mirror exact: {mirror_exact}; {elapsed:.2f}s")
    assert worst["covector"] <= 1e-11
    assert worst["vector"] <= 1e-11
    assert worst["scalar"] <= 1e-11
    assert mirror_exact
    assert elapsed < 5.0


def test_criterion_4_cramer_solver_equivalence():
    """Closed Cramer forms agree with the pivoted solve to 1e-12 relative."""
    rng = np.random.default_rng(4096)
    worst = 0.0
    for n in (2, 3):
        for _ in range(1000):
            h = rng.standard_normal((n, n))
            h = 0.5 * (h + h.T) + (n + 1.0) * np.eye(n)  # well-conditioned
            jet = wv.Jet2(
                wv.Jet1(0.0, 0.0, rng.standard_normal(n)), h, rng.standard_normal(n)
            )
            a = wv.first_order_velocity(jet)
            b = wv.first_order_velocity(jet, pivoted=True)
            assert a.valid and b.valid
            dev = np.abs(a.components - b.components).max() / np.abs(b.components).max()
            worst = max(worst, dev)
    ok = worst <= 1e-12
    _report(4, ok, f"Cramer vs pivoted solve: max relative deviation {worst:.1e} "
                   "(<=1e-12) on 2x1000 jets")
    assert worst <= 1e-12


def test_criterion_5_plane_wave_regime():
    """Plane wave: 0-PV components are omega/(N k_i); 1-PV is nowhere valid."""
    k = np.array([2.0, 1.0])
    omega = 3.0
    field = wv.PlaneWave(tuple(k), omega)
    grid = wv.make_grid(2, [64, 64], 0.05, -1.575)
    expect = omega / (2.0 * k)

    jets_a = wv.analytic_jet_field(field, grid, 0.13)
    v0a = wv.velocity_field(jets_a, 0)
    fin = np.all(np.isfinite(v0a.components), axis=-1) & v0a.valid
    analytic_err = np.abs(v0a.components[fin] - expect).max() / expect.max()
    v1a = wv.velocity_field(jets_a, 1)  # machine-scale threshold
    analytic_all_invalid = not v1a.valid.any()

    sampled = wv.sample(field, grid, 0.01 * np.arange(5))
    jets = wv.fd_jet_field(sampled, 2)
    v0 = wv.velocity_field(jets, 0)
    fin = np.all(np.isfinite(v0.components), axis=-1) & v0.valid
    fd_err = np.abs(v0.components[fin] - expect).max() / expect.max()
    # the determinant of a rank-one Hessian measured by finite differences is
    # noise at the jet-error scale, so the singularity threshold for sampled
    # data is the jet accuracy (1e-5), not the machine-scale default
    v1 = wv.velocity_field(jets, 1, eps_singular=1e-5)
    fd_all_invalid = not v1.valid.any()

    ok = (analytic_err <= 1e-13 and analytic_all_invalid
          and fd_err <= 1e-5 and fd_all_invalid)
    _report(5, ok, f"plane wave: 0-PV err analytic {analytic_err:.1e} (<=1e-13), "
                   f"FD {fd_err:.1e} (<=1e-5); 1-PV mask all false: "
                   f"analytic {analytic_all_invalid}, FD {fd_all_invalid}")
    assert analytic_err <= 1e-13
    assert analytic_all_invalid
    assert fd_err <= 1e-5
    assert fd_all_invalid


def test_criterion_6_tracking_oracle():
    """Peak tracking matches 1-PV; level crossings move at N x 0-PV."""
    peak = wv.AttributeSpec.gradient_set((0.0, 0.0))

    def peak_deviation(h, dt, npts):
        field = wv.TranslatingGaussian((0.7, 0.0), 3.0)
        grid = wv.make_grid(2, (npts, npts), h, -(npts - 1) * h / 2)
        sampled = wv.sample(field, grid, dt * np.arange(9) - 4 * dt)
        seed = np.unravel_index(np.argmax(sampled.values[0]), grid.shape)
        return wv.track_attribute(sampled, peak, seed).deviation

    dev_coarse = peak_deviation(0.05, 0.02, 64)
    dev_fine = peak_deviation(0.025, 0.01, 128)
    order = np.log2(dev_coarse / dev_fine)

    wave = wv.PlaneWave((2.0, 1.0), 3.0)
    level = wv.AttributeSpec.level_set(0.3)
    res = wv.track_attribute(wave, level, np.array([0.2, 0.1]),
                             times=0.01 * np.arange(9), search_radius=0.6)

    ok = dev_coarse <= 1e-3 and order >= 1.9 and res.deviation <= 1e-10
    _report(6, ok, f"tracking: peak deviation {dev_coarse:.1e} (<=1e-3) at h=0.05, "
                   f"order {order:.2f} (>=1.9); level-crossing vs N x 0-PV "
                   f"{res.deviation:.1e} (<=1e-10)")
    assert dev_coarse <= 1e-3
    assert order >= 1.9
    assert res.deviation <= 1e-10


@pytest.mark.parametrize("order", [2, 4])
def test_criterion_7_fd_convergence(order):
    """Every jet component converges at the stencil order, all field kinds."""
    floor = 1e-11
    worst_defect = 0.0
    details = []
    for name, field, (lo, hi) in CONVERGENCE_CASES:
        errors = [_max_component_errors(field, lo, hi, npts, order)
                  for npts in (33, 65, 129)]
        for comp in ("dpsi_dt", "grad", "hess", "tmix"):
            seq = [e[comp] for e in errors]
            for e1, e2 in zip(seq, seq[1:]):
                if e1 < floor and e2 < floor:
                    continue
                observed = np.log2(e1 / e2)
                worst_defect = max(worst_defect, (order - 0.2) - observed)
                if observed < order - 0.2:
                    details.append(f"{name}/{comp}: {observed:.2f}")
    ok = worst_defect <= 0.0
    _report(7, ok, f"FD convergence at order {order}: every component >= "
                   f"{order - 0.2} across refinements"
                   + (f"; defects: {details}" if details else ""))
    assert ok, details


def test_criterion_8_format_roundtrip(tmp_path):
    """Bit-exact persistence on random fields; corruption is rejected."""
    rng = np.random.default_rng(88)
    all_equal = True
    for k in range(50):
        dim = int(rng.integers(1, 4))
        shape = tuple(int(n) for n in rng.integers(5, 9, size=dim))
        grid = wv.Grid(shape,
                       tuple(rng.uniform(0.01, 2.0, size=dim)),
                       tuple(rng.uniform(-3.0, 3.0, size=dim)))
        frames = int(rng.integers(1, 5))
        field = wv.SampledField(
            grid, float(rng.uniform(-1, 1)),
            float(rng.uniform(0.001, 0.5)) if frames > 1 else 0.0,
            rng.standard_normal((frames,) + shape),
        )
        path = tmp_path / f"r{k}.wvf"
        wv.write_field(field, path)
        back = wv.read_field(path)
        all_equal &= (np.array_equal(back.values, field.values)
                      and back.grid == field.grid
                      and back.t0 == field.t0 and back.dt == field.dt)

    sample_path = tmp_path / "r0.wvf"
    data = bytearray(sample_path.read_bytes())
    bad_magic = tmp_path / "bad.wvf"
    corrupted = bytearray(data)
    corrupted[3] ^= 0x01
    bad_magic.write_bytes(bytes(corrupted))
    truncated = tmp_path / "short.wvf"
    truncated.write_bytes(bytes(data[:-4]))
    magic_rejected = truncation_rejected = False
    try:
        wv.read_field(bad_magic)
    except wv.FieldFormatError:
        magic_rejected = True
    try:
        wv.read_field(truncated)
    except wv.FieldFormatError:
        truncation_rejected = True

    ok = all_equal and magic_rejected and truncation_rejected
    _report(8, ok, f"format: 50/50 bit-identical round trips: {all_equal}; "
                   f"corrupt magic rejected: {magic_rejected}; truncation "
                   f"rejected: {truncation_rejected}")
    assert all_equal
    assert magic_rejected
    assert truncation_rejected
