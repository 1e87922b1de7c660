#!/usr/bin/env python3
"""Geometric character of the velocities under linear coordinate changes.

Under an affine change of frame X = A x + b:

* the reciprocal order-zero tuple transforms with A^T (a covector),
* the order-one velocity transforms with A^{-1} (a contravariant vector),
* their contraction does not transform at all (a scalar).

The raw order-zero components follow no linear law; only the reciprocals
do.  The checks below compute each quantity twice: directly from jets of
the reparametrized field, and by transforming the other frame's value.
"""

import numpy as np

import wavevel as wv

bump = wv.TranslatingGaussian(velocity=(0.7, 0.2), sigma=2.0)
rng = np.random.default_rng(9)

amap = wv.AffineMap(np.array([[2.0, 0.3], [0.1, 1.5]]), offset=np.array([0.2, -0.1]))
points = amap.invert(rng.uniform(-0.8, 0.8, size=(40, 2)))

print("affine map, analytic jets (one jet evaluation per frame serves all three laws):")
labels = (
    "covector law (reciprocal order-0)",
    "vector law (order-1)",
    "scalar invariance (contraction)",
)
for label, report in zip(labels, wv.check_transformation_laws(bump, amap, points, t=0.3)):
    print(f"  {label:36s} max deviation {report.max_deviation:.2e} "
          f"({report.checked} points)")

# the same two-path comparison with jets measured by finite differences of
# plain evaluations: no chain rule anywhere on this route
fd = wv.make_fd_jet2_fn(h=0.02, dt=0.005)
report = wv.check_zero_order_covariance(bump, amap, points[:10], 0.3, jet2_fn=fd)
print(f"  covector law with measured jets       max deviation {report.max_deviation:.2e}")

# mirror reflection flips every velocity component exactly
mirror = wv.AffineMap.mirror(2)
jet = bump.jet2(np.array([0.4, -0.3]), 0.3)
jet_m = wv.pullback_jet2(jet, mirror)
v1 = wv.first_order_velocity(jet, pivoted=True)
v1_m = wv.first_order_velocity(jet_m, pivoted=True)
print("\nmirror map x -> -x:")
print("  v1          ", v1.components)
print("  v1, mirrored", v1_m.components, " (exact sign flip)")

# and the raw order-zero components demonstrably do NOT transform linearly
shear = wv.AffineMap(np.array([[1.0, 0.8], [0.0, 1.0]]))
x = np.array([0.3, 0.15])
direct = wv.zero_order_velocity(wv.AffineReparamField(bump, shear).jet2(x, 0.3).jet1)
other = wv.zero_order_velocity(bump.jet2(shear.apply(x), 0.3).jet1)
print("\nshear map, raw components (no linear law):")
print("  direct                 ", direct.components)
print("  transformed as covector", wv.transform_covector(other.components, shear))
print("  transformed as vector  ", wv.transform_vector(other.components, shear))
print("  reciprocals though:    ",
      np.abs(direct.reciprocal - wv.transform_covector(other.reciprocal, shear)).max(),
      " <- max deviation of the actual law")
