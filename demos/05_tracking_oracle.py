#!/usr/bin/env python3
"""Do the computed velocities describe anything that actually moves?

Two empirical checks, independent of the velocity formulas:

* gradient attributes: locate the peak (grad psi = 0) in every frame by
  Newton iteration on interpolated jets, difference the positions in time,
  and compare with the order-one velocity at the tracked points;
* value attributes: follow the psi = psi0 crossing along each coordinate
  ray; that per-axis crossing speed is -psi_t/psi_xi, i.e. exactly N times
  the order-zero component (the 1/N weight splits the motion across axes,
  and a single-axis crossing undoes the split).
"""

import numpy as np

import wavevel as wv

# --- peak tracking on sampled data --------------------------------------
bump = wv.TranslatingGaussian(velocity=(0.7, 0.0), sigma=3.0)
grid = wv.make_grid(2, (64, 64), 0.05, -1.575)
field = wv.sample(bump, grid, 0.02 * np.arange(9) - 0.08)

peak = wv.AttributeSpec.gradient_set((0.0, 0.0))
seed = np.unravel_index(np.argmax(field.values[0]), grid.shape)
track = wv.track_attribute(field, peak, seed)

print("peak track (9 frames, h = 0.05):")
for m in (0, 4, 8):
    print(f"  t = {track.times[m]:+.2f}  position = "
          f"({track.positions[m][0]:+.6f}, {track.positions[m][1]:+.6f})")
print("  empirical velocity at the middle frame:", np.round(track.empirical_velocity[4], 6))
print("  order-1 velocity at the tracked point: ", np.round(track.computed_velocity[4], 6))
print("  max relative deviation over the track: ", f"{track.deviation:.2e}")
print(f"  work: {track.jet_passes} finite-difference passes over {track.jet_points} "
      f"window points (the {grid.npoints}-point grid has {track.times.size} frames)")

# the same track at half the resolution shows second-order shrinkage
field2 = wv.sample(
    wv.TranslatingGaussian(velocity=(0.7, 0.0), sigma=3.0),
    wv.make_grid(2, (128, 128), 0.025, -1.5875),
    0.01 * np.arange(9) - 0.04,
)
seed2 = np.unravel_index(np.argmax(field2.values[0]), field2.grid.shape)
track2 = wv.track_attribute(field2, peak, seed2)
print("  refined h -> h/2 deviation:", f"{track2.deviation:.2e}",
      f" (order {np.log2(track.deviation / track2.deviation):.2f})")

# --- sub-grid critical point localization --------------------------------
jets = wv.fd_jet_field(field, 4)
x_star = wv.find_critical_point(jets, seed, peak)
print("\ncritical point at frame 4:", x_star,
      " (true peak at", [0.7 * field.time(4), 0.0], ")")

# --- level crossings on an analytic wave ---------------------------------
wave = wv.PlaneWave(wave_vector=(2.0, 1.0), angular_frequency=3.0)
level = wv.AttributeSpec.level_set(0.3)
res = wv.track_attribute(wave, level, np.array([0.2, 0.1]),
                         times=0.01 * np.arange(9), search_radius=0.6)
print("\nlevel crossings of sin(2x + y - 3t) = 0.3 along each axis:")
print("  measured crossing speeds:", np.round(res.empirical_velocity[4], 12),
      " <- (omega/k_x, omega/k_y)")
print("  N x order-0 components:  ", np.round(res.computed_velocity[4], 12))
print("  deviation:", f"{res.deviation:.2e}")
