"""Relativistic wavefunctions factorized over the ten-parameter group manifold.

The package splits into a translation part (plane-wave Dirac amplitudes,
``dirac``), a Lorentz part (associated hyperspherical functions,
``hypersph``, and radial Bessel solutions, ``radial``), their product
(``assembly``), the underlying special functions (``specfun``) and the
verification suites (``verify``).
"""

from .assembly import (
    GRID_AXES,
    GroupPoint,
    PoincareBispinor,
    SpinConfig,
    bispinor,
    grid_eval,
    lorentz_factor,
    translation_factor,
)
from .dirac import (
    DiracAmplitude,
    FourMomentum,
    adjoint,
    dirac_residual,
    dirac_residual_fd,
    momentum_slash,
    plane_wave,
    u_amplitude,
    v_amplitude,
)
from .errors import (
    DomainError,
    IntegerOrderUnsupported,
    InvalidIndex,
    NonConvergent,
    NonPositiveArgument,
    NonPositiveProduct,
    OffShellError,
    PoleInDenominator,
    SizeCapExceeded,
    TermCapExceeded,
)
from .halfint import HalfInt, half, unit_range
from .hypersph import (
    EulerAngles,
    HypersphIndex,
    index_is_evaluable,
    m_assoc,
    m_assoc_dotted,
    m_assoc_pair,
    sum_index_values,
    z_assoc,
)
from .radial import (
    RadialParams,
    RadialPoint,
    argument_scale,
    f1_solution,
    f4_from_f1,
    full_system_residual,
    reduced_system_residual,
)
from .specfun import bessel_j_half, bessel_j_half_derivative, hyp2f1

__version__ = "0.1.0"


def __getattr__(name: str):
    # The verification suites are imported on first use: library use of
    # the evaluator needs neither them nor their mpmath oracles.
    if name in ("RunReport", "run_suite"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "GRID_AXES",
    "GroupPoint",
    "PoincareBispinor",
    "SpinConfig",
    "bispinor",
    "grid_eval",
    "lorentz_factor",
    "translation_factor",
    "DiracAmplitude",
    "FourMomentum",
    "adjoint",
    "dirac_residual",
    "dirac_residual_fd",
    "momentum_slash",
    "plane_wave",
    "u_amplitude",
    "v_amplitude",
    "DomainError",
    "IntegerOrderUnsupported",
    "InvalidIndex",
    "NonConvergent",
    "NonPositiveArgument",
    "NonPositiveProduct",
    "OffShellError",
    "PoleInDenominator",
    "SizeCapExceeded",
    "TermCapExceeded",
    "HalfInt",
    "half",
    "unit_range",
    "EulerAngles",
    "HypersphIndex",
    "index_is_evaluable",
    "m_assoc",
    "m_assoc_dotted",
    "m_assoc_pair",
    "sum_index_values",
    "z_assoc",
    "RadialParams",
    "RadialPoint",
    "argument_scale",
    "f1_solution",
    "f4_from_f1",
    "full_system_residual",
    "reduced_system_residual",
    "bessel_j_half",
    "bessel_j_half_derivative",
    "hyp2f1",
    "RunReport",
    "run_suite",
]
