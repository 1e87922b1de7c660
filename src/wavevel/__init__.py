"""Local wave velocities of scalar fields in N spatial dimensions.

The library computes two pointwise velocity notions from derivative jets of
a scalar field psi(x, t):

* order zero -- motion of a fixed field value; component i is
  ``-(1/N) psi_t / psi_xi`` and the reciprocal N-tuple transforms as a
  covector under linear coordinate changes;
* order one -- motion of a fixed spatial gradient (peaks, troughs,
  saddles); the components solve ``H v = -d/dt grad(psi)`` with the spatial
  Hessian ``H`` and transform contravariantly.

Their contraction is a dimensionless scalar invariant that equals N for any
rigidly translating profile.  Jets come from an analytic catalog (exact) or
from finite differences on sampled grids; independent tracking oracles
verify the velocity semantics empirically.
"""

from .covariance import (
    AffineMap,
    AffineReparamField,
    CovarianceReport,
    check_contraction_invariance,
    check_first_order_covariance,
    check_transformation_laws,
    check_zero_order_covariance,
    make_fd_jet2_fn,
    pullback_jet2,
    random_affine,
    transform_covector,
    transform_vector,
)
from .fieldio import (
    FieldFileHeader,
    FieldFormatError,
    export_csv,
    read_field,
    read_header,
    write_field,
)
from .fields import (
    AnalyticField,
    ExpandingGaussianRing,
    Grid,
    PlaneWave,
    Polynomial,
    SampledField,
    StaticGaussian,
    TranslatingGaussian,
    analytic_jet_field,
    make_field,
    make_grid,
    sample,
)
from .findiff import (
    DEFAULT_STENCIL,
    InsufficientFramesError,
    StencilSpec,
    diff_along_axis,
    fd_jet2_at,
    fd_jet_field,
    fd_jet_fields,
    fd_jet_stacks,
    fd_jets_at,
    fornberg_weights,
)
from .jets import Jet1, Jet2, JetField
from .tracking import (
    AttributeLostError,
    NoConvergenceError,
    SingularHessianError,
    TrackingError,
    TrackResult,
    find_critical_point,
    track_attribute,
)
from .velocities import (
    EPS_SINGULAR,
    AttributeSpec,
    FirstOrderVelocity,
    FirstOrderVelocityField,
    StationaryDegenerateError,
    UndefinedContractionError,
    ZeroOrderVelocity,
    ZeroOrderVelocityField,
    contraction_scalar,
    contraction_scalar_field,
    first_order_velocity_2d,
    first_order_velocity_3d,
    first_order_velocity_nd,
    velocity_field,
    zero_order_velocity,
    zero_order_velocity_field,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
