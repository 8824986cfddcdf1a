"""Matrix truncations of weighted composition maps ``f -> psi * (f o phi)``.

Column ``k`` of the truncation holds the Taylor coefficients of
``psi * phi**k`` rescaled into the orthonormal basis.  The coefficients of
``psi`` and ``phi`` are the exact ones of ``AnalyticFunction.coefficients``
(catalog families, compositions, products, ``tau``); a function without
them is refused.  The columns then follow by direct truncated convolution,
so real symbols give real matrices and ``phi(0) = 0`` gives an exactly
lower-triangular one.  The whole assembly is deterministic for fixed inputs
and a fixed BLAS thread count.  The tests check it against an independent
exact route, Horner composition and one convolution from the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import AnalyticFunction
from .errors import NumericsError, ParameterError, PreconditionError
from .spaces import SpaceParams, kernel_coordinates, kernel_vector


@dataclass(frozen=True)
class OperatorMatrix:
    """Truncation ``entries[j, k] = <C e_k, e_j>`` with provenance.

    ``entries`` is float64 when both symbols have real coefficients and
    complex128 otherwise.  ``col_errors[k]`` bounds the rounding error of
    column ``k`` in matrix-entry scale (see :func:`assemble_matrix`).
    ``warnings`` is always empty: every truncation is assembled from exact
    coefficients.  The field stays because the benchmark's assembly hook
    reads it.
    """

    entries: np.ndarray
    params: SpaceParams
    psi_label: str
    phi_label: str
    col_errors: np.ndarray
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    """``t[j, i] = c[j - i]`` for ``i <= j``, zero above the diagonal."""
    n = c.size
    padded = np.concatenate((np.zeros(n - 1, dtype=c.dtype), c))
    return np.ascontiguousarray(sliding_window_view(padded, n)[:, ::-1])


def _power_columns(psi_c: np.ndarray, phi_c: np.ndarray) -> np.ndarray:
    """``out[:, k]`` holds the coefficients ``0..n-1`` of ``psi * phi**k``.

    Column blocks double: columns ``m..2m-1`` are the lower-triangular
    Toeplitz matrix of ``phi**m`` times columns ``0..m-1``, and ``phi**2m``
    is the truncated square of ``phi**m``.  Every coefficient is a direct sum
    of products, so one that vanishes in exact arithmetic because ``phi(0)``
    is an exact zero comes out as an exact zero (FFT convolution would leave
    rounding noise there).
    """
    n = psi_c.size
    out = np.empty((n, n), dtype=np.result_type(psi_c, phi_c))
    out[:, 0] = psi_c
    power, m = phi_c, 1
    while m < n:
        w = min(m, n - m)
        out[:, m : m + w] = _lower_toeplitz(power) @ out[:, :w]
        m *= 2
        power = np.convolve(power, power)[:n]
    return out


def assemble_matrix(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    n: int,
) -> OperatorMatrix:
    """Assemble the N x N truncation of ``f -> psi * (f o phi)``.

    Coefficients ``0..N-1`` of each symbol come from
    ``AnalyticFunction.coefficients``; column ``k`` is then ``psi * phi**k``
    by direct truncated convolution.

    ``col_errors[k]`` is the first-order bound ``p**k e_psi +
    2 k a p**(k-1) e_phi`` on the rounding error of column ``k``, scaled to
    matrix entries.  ``a`` and ``p`` are the l1 norms of the coefficients of
    ``psi`` and ``phi``; with the rounding level ``gamma = N eps / (1 - N
    eps)`` of a length-N dot product, ``e_psi = gamma a`` and ``e_phi =
    2 gamma p`` (its own recurrence and the products of the convolution).
    The factor 2 in ``2 k`` covers the squarings of ``_power_columns``.
    """
    p.require_core()
    if n < 1:
        raise ParameterError("matrix size must be positive")
    if not phi.claims_self_map:
        raise PreconditionError(
            "phi is not a verified self-map of the disc; the operator "
            "truncation is only meaningful for self-maps"
        )
    psi_c = psi.coefficients(n - 1)
    phi_c = phi.coefficients(n - 1)
    if not np.any(psi_c):
        raise PreconditionError(
            "psi has no nonzero Taylor coefficient below order %d; the zero "
            "operator is excluded" % n
        )
    cols = _power_columns(psi_c, phi_c)
    a = float(np.sum(np.abs(psi_c)))
    l1_phi = float(np.sum(np.abs(phi_c)))
    eps = np.finfo(np.float64).eps
    gamma = n * eps / (1.0 - n * eps)
    k = np.arange(n)
    with np.errstate(over="ignore"):  # inf once p**k leaves the float range
        growth = l1_phi**k
        shifted = np.concatenate(([0.0], growth[:-1]))
        err = gamma * a * growth + 2.0 * gamma * l1_phi * 2.0 * k * a * shifted
    wk = p.basis_scale(n)  # (k+1)^{(alpha-1)/2}
    wj = 1.0 / p.basis_scale(n)  # (j+1)^{(1-alpha)/2}
    # scaled in place: no N x N temporaries beside the columns
    entries = cols
    entries *= wk[None, :]
    entries *= wj[:, None]
    if not np.all(np.isfinite(entries)):
        raise NumericsError("matrix assembly produced non-finite entries")
    return OperatorMatrix(
        entries=entries,
        params=p,
        psi_label=psi.label,
        phi_label=phi.label,
        col_errors=err * wk * np.max(wj),
    )


@dataclass(frozen=True)
class AdjointKernelReport:
    """Relative residual of the kernel intertwining identity at one point."""

    z: complex
    phi_z: complex
    residual: float
    kernel_tail_z: float
    kernel_tail_phi_z: float
    size: int


def adjoint_kernel_check(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    z,
    n: int,
    matrix: OperatorMatrix | None = None,
) -> AdjointKernelReport:
    """Check that the adjoint truncation sends the kernel at ``z`` to
    ``conj(psi(z))`` times the kernel at ``phi(z)`` in coordinates.
    """
    z = complex(z)
    if abs(z) > 0.8:
        raise PreconditionError(
            "adjoint kernel check requires |z| <= 0.8; truncation tails "
            "dominate nearer the boundary"
        )
    if matrix is None:
        matrix = assemble_matrix(psi, phi, p, n)
    jet = phi.jet(z)
    phi_z = complex(jet.v)
    v_z = kernel_coordinates(z, p, n)
    v_phi = kernel_coordinates(phi_z, p, n)
    lhs = matrix.entries.conj().T @ v_z
    rhs = np.conj(complex(psi.value(z))) * v_phi
    residual = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(v_phi))
    return AdjointKernelReport(
        z=z,
        phi_z=phi_z,
        residual=residual,
        kernel_tail_z=kernel_vector(z, p, n - 1).tail_bound,
        kernel_tail_phi_z=kernel_vector(phi_z, p, n - 1).tail_bound,
        size=n,
    )
