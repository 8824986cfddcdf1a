"""Weighted composition operators on weighted Dirichlet spaces: a numerical
laboratory for boundedness/compactness criteria and spectral verification."""

from .catalog import (
    AnalyticFunction,
    Jet2,
    affine,
    conjugate_to_origin,
    find_fixed_point,
    from_spec,
    identity,
    jet_compose,
    mobius_auto,
    mobius_self_map,
    phi_r1,
    phi_rk,
    polynomial,
    product,
    psi_power,
)
from .criteria import AnnularGrid, CriteriaReport, evaluate_quantities, evaluate_rows
from .errors import (
    FixedPointInconclusive,
    InapplicableError,
    NumericsError,
    ParameterError,
    PreconditionError,
    WcoError,
)
from .operator import OperatorMatrix, adjoint_kernel_check, assemble_matrix
from .spaces import (
    KernelVector,
    QuadratureGrid,
    SpaceParams,
    growth_bound_check,
    inner_product,
    kernel_norm_sq,
    kernel_vector,
    norm_sq_coeff,
    norm_sq_quadrature,
)
from .spectral import (
    SpectrumPrediction,
    SpectrumReport,
    conjugation_invariance_check,
    match_spectra,
    predict_spectrum,
    schroder_residual,
    spectrum_study,
    truncated_eigenvalues,
)

__version__ = "0.1.0"
