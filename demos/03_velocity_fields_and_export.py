#!/usr/bin/env python3
"""Velocity maps over a whole grid, CSV export, and an optional quiver plot.

The pointwise formulas lift to grid maps with validity masks: points where
the Hessian is singular (or where the field is degenerate) are masked, not
zeroed.  Arrays export to CSV with coordinates leading, suitable for any
plotting tool; if matplotlib is importable a quiver figure is saved too.
"""

import os
import tempfile

import numpy as np

import wavevel as wv

bump = wv.TranslatingGaussian(velocity=(0.5, 0.3), sigma=1.0)
grid = wv.make_grid(2, (48, 48), 0.08, -1.88)
field = wv.sample(bump, grid, 0.02 * np.arange(5) - 0.04)
jets = wv.fd_jet_field(field, frame=2)

v1 = wv.velocity_field(jets, order=1)
well = v1.valid & (v1.hessian_condition < 50.0)
print(f"order-1 velocities: {v1.valid.sum()} valid, "
      f"{well.sum()} well-conditioned")
print("  components at well-conditioned points are the translation velocity:")
print("  max |v - c| =", f"{np.abs(v1.components[well] - [0.5, 0.3]).max():.2e}")

v0 = wv.velocity_field(jets, order=0)
scalar, scalar_valid = wv.contraction_scalar_field(v0, v1)
# the reciprocals divide by psi_t, so measured data near the stationary
# locus (psi_t ~ 0) is pure noise there; keep points with a real signal
signal = np.abs(jets.dpsi_dt) >= 0.01 * np.nanmax(np.abs(jets.dpsi_dt))
ok = scalar_valid & well & signal
print("contraction scalar over well-conditioned, non-stationary points:",
      f"mean {scalar[ok].mean():.6f}, max |err| {np.abs(scalar[ok] - 2).max():.1e}",
      " (= N = 2)")

with tempfile.TemporaryDirectory(prefix="wavevel-demo-") as outdir:
    csv_path = os.path.join(outdir, "peak_velocity.csv")
    wv.export_csv(csv_path, grid, {
        "v1_1": v1.components[..., 0],
        "v1_2": v1.components[..., 1],
        "cond": v1.hessian_condition,
        "valid": v1.valid,
    })
    print("wrote", csv_path)

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the quiver figure")
    else:
        pts = grid.points()
        step = 3
        sl = (slice(None, None, step), slice(None, None, step))
        u = np.where(well, v1.components[..., 0], np.nan)
        w = np.where(well, v1.components[..., 1], np.nan)
        fig, ax = plt.subplots(figsize=(6, 6))
        ax.contour(pts[..., 0], pts[..., 1], field.values[2], levels=8, linewidths=0.6)
        ax.quiver(pts[sl + (0,)], pts[sl + (1,)], u[sl], w[sl], color="crimson", scale=12)
        ax.set_aspect("equal")
        ax.set_title("peak-velocity field of a translating bump")
        fig_path = os.path.join(outdir, "peak_velocity.png")
        fig.savefig(fig_path, dpi=130, bbox_inches="tight")
        print("wrote", fig_path)
