#!/usr/bin/env python3
"""Pointwise velocities from exact jets.

A scalar field psi(x, t) carries two natural velocity notions at each point:

* the attribute velocity (order 0) describes how a point holding a fixed
  field value moves; component i is -(1/N) psi_t / psi_xi, and the tuple of
  reciprocals is the better-behaved object (finite whenever psi_t != 0);
* the peak velocity (order 1) describes how a point holding a fixed spatial
  gradient moves (peaks, troughs, saddles); it solves H v = -d/dt grad psi.

Their contraction w . v is dimensionless and equals the dimension N for any
rigidly translating profile, which makes it a handy sanity scalar.
"""

import numpy as np

import wavevel as wv

# A Gaussian bump translating at c = (0.7, 0): everything is known in
# closed form, so the jets are exact.
bump = wv.TranslatingGaussian(velocity=(0.7, 0.0), sigma=1.0)
point = np.array([0.1, 0.2])
jet = bump.jet2(point, t=0.0)

print("jet at", point)
print("  value      ", jet.psi)
print("  d/dt       ", jet.dpsi_dt)
print("  gradient   ", jet.grad)
print("  hessian    ", jet.hessian.tolist())

v0 = wv.zero_order_velocity(jet.jet1)
print("\nattribute velocity (order 0)")
print("  components ", v0.components, "   <- (c/2, c*u/(2y)) here")
print("  reciprocals", v0.reciprocal)

v1 = wv.first_order_velocity(jet)
print("\npeak velocity (order 1)")
print("  components ", v1.components, "   <- the translation velocity, exactly")
print("  condition  ", f"{v1.hessian_condition:.3f}")

print("\ncontraction scalar:", wv.contraction_scalar(v0, v1), " (= N = 2)")

# A plane wave has a rank-one spatial Hessian, so the peak velocity does
# not exist anywhere; the validity flag says so instead of erroring.
wave = wv.PlaneWave(wave_vector=(2.0, 1.0), angular_frequency=3.0)
wave_jet = wave.jet2(np.array([0.3, 0.4]), t=0.1)
print("\nplane wave, k=(2,1), omega=3")
print("  order 0    ", wv.zero_order_velocity(wave_jet.jet1).components,
      "  <- omega/(N k_i)")
print("  order 1    valid:", wv.first_order_velocity(wave_jet).valid)

# The same formulas work in any dimension.
bump4 = wv.TranslatingGaussian(velocity=(0.7, -0.2, 0.4, 0.1), sigma=1.0)
jet4 = bump4.jet2(np.array([0.1, 0.05, -0.1, 0.2]), t=0.0)
v14 = wv.first_order_velocity(jet4)
print("\n4-d translating profile: order-1 velocity =", np.round(v14.components, 12))
print("contraction:", wv.contraction_scalar(wv.zero_order_velocity(jet4.jet1), v14),
      " (= N = 4)")
