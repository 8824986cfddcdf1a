"""Matrix truncations of weighted composition maps ``f -> psi * (f o phi)``.

Column ``k`` of the truncation holds the Taylor coefficients of
``psi * phi**k`` rescaled into the orthonormal basis.  The coefficients of
``psi`` and ``phi`` are exact (``AnalyticFunction.taylor``) for every catalog
family; a function without them (a composition, a product, a wrapped
callable) gets them from one circle extraction.  The columns then follow by
direct truncated convolution, so real symbols give real matrices and
``phi(0) = 0`` gives an exactly lower-triangular one.  The whole assembly is
deterministic for fixed inputs and a fixed BLAS thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import AnalyticFunction
from .errors import NumericsError, ParameterError, PreconditionError
from .series import (
    ExtractionConfig,
    TaylorSeries,
    aliasing_estimate,
    circle_points,
    dft_coefficient_rows,
    evaluate,
    extract_coeffs,
)
from .spaces import SpaceParams, kernel_coordinates, kernel_vector


def _auto_sample_count(n: int) -> int:
    count = 512
    while count < 4 * (n + 1):
        count *= 2
    return count


def default_extraction_config(n: int) -> ExtractionConfig:
    return ExtractionConfig(sample_count=_auto_sample_count(n))


@dataclass(frozen=True)
class OperatorMatrix:
    """Truncation ``entries[j, k] = <C e_k, e_j>`` with provenance.

    ``entries`` is float64 when both symbols have real coefficients and
    complex128 otherwise.  ``col_errors[k]`` bounds the error of column ``k``
    in matrix-entry scale (see :func:`assemble_matrix`); ``sample_radius``
    and ``sample_count`` describe the extraction circle, and are None when
    both symbols had exact coefficients and no circle was sampled.
    """

    entries: np.ndarray
    params: SpaceParams
    psi_label: str
    phi_label: str
    col_errors: np.ndarray
    sample_radius: float | None
    sample_count: int | None
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _coefficients(f: AnalyticFunction, cfg: ExtractionConfig, n: int):
    """Coefficients ``0..n-1`` of ``f`` and the extraction estimate of each:
    exact with estimate 0 when ``f`` has ``taylor``, else one circle
    extraction with its aliasing estimate."""
    if f.taylor is not None:
        return f.taylor(n - 1), 0.0
    series, est = extract_coeffs(f.value, cfg, n - 1)
    return series.coeffs, est


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


def _propagated(e_psi: float, e_phi: float, a: float, p: float, n: int):
    """``p**k e_psi + 2 k a p**(k-1) e_phi`` for ``k < n`` (see
    :func:`assemble_matrix`); inf once ``p**k`` leaves the float range."""
    k = np.arange(n)
    out = np.zeros(n)
    with np.errstate(over="ignore"):
        growth = p ** k
        if e_psi:
            out += e_psi * growth
        if e_phi:
            out += e_phi * 2.0 * k * a * np.concatenate(([0.0], growth[:-1]))
    return out


def assemble_matrix(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    n: int,
) -> OperatorMatrix:
    """Assemble the N x N truncation of ``f -> psi * (f o phi)``.

    Coefficients ``0..N-1`` of each symbol come from its ``taylor`` or, when
    it has none, from one circle extraction at the default radius; column
    ``k`` is then ``psi * phi**k`` by direct truncated convolution.

    ``col_errors[k]`` is the first-order bound ``p**k e_psi +
    2 k a p**(k-1) e_phi`` on the coefficient error of column ``k``, scaled
    to matrix entries.  ``a`` and ``p`` are the l1 norms of the coefficients
    of ``psi`` and ``phi``; ``e_psi`` and ``e_phi`` are per-coefficient input
    errors: the extraction estimate of a sampled symbol (0 for exact
    coefficients) plus the rounding level ``gamma = N eps / (1 - N eps)`` of
    a length-N dot product, charged as ``gamma a`` to ``psi`` and
    ``2 gamma p`` to ``phi`` (its own recurrence and the products of the
    convolution).  The factor 2 in ``2 k`` covers the squarings of
    :func:`_power_columns`.  A column warns when the part of its bound due
    to extraction estimates alone exceeds ``1e-8`` of its largest
    coefficient, so a pair with exact coefficients never warns.
    """
    p.require_core()
    if n < 1:
        raise ParameterError("matrix size must be positive")
    if not phi.claims_self_map:
        raise PreconditionError(
            "phi is not a verified self-map of the disc; the operator "
            "truncation is only meaningful for self-maps"
        )
    cfg = default_extraction_config(n)
    psi_c, psi_est = _coefficients(psi, cfg, n)
    phi_c, phi_est = _coefficients(phi, cfg, n)
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
    extraction = _propagated(psi_est, phi_est, a, l1_phi, n)
    err = extraction + _propagated(gamma * a, 2.0 * gamma * l1_phi, a, l1_phi, n)
    col_max = np.maximum(np.max(np.abs(cols), axis=0), 1e-300)
    warnings = tuple(
        "column %d extraction estimate %.3e exceeds 1e-8 of its largest "
        "coefficient %.3e" % (k, extraction[k], col_max[k])
        for k in range(n)
        if extraction[k] > 1e-8 * col_max[k]
    )
    wk = p.basis_scale(n)  # (k+1)^{(alpha-1)/2}
    wj = 1.0 / p.basis_scale(n)  # (j+1)^{(1-alpha)/2}
    entries = cols * wk[None, :] * wj[:, None]
    if not np.all(np.isfinite(entries)):
        raise NumericsError("matrix assembly produced non-finite entries")
    sampled = psi.taylor is None or phi.taylor is None
    return OperatorMatrix(
        entries=entries,
        params=p,
        psi_label=psi.label,
        phi_label=phi.label,
        col_errors=err * wk * np.max(wj),
        sample_radius=cfg.sample_radius if sampled else None,
        sample_count=cfg.sample_count if sampled else None,
        warnings=warnings,
    )


def apply_operator(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    f: TaylorSeries,
    p: SpaceParams,
    n: int,
) -> tuple[TaylorSeries, float]:
    """Coefficients of ``psi * (f o phi)`` extracted from the point evaluator.

    Independent of the matrix route: the truncated ``f`` is evaluated at
    ``phi`` of the circle samples directly.
    """
    p.require_core()
    if not phi.claims_self_map:
        raise PreconditionError(
            "phi is not a verified self-map of the disc; composition with f "
            "requires one"
        )
    cfg = default_extraction_config(n)
    z = circle_points(cfg.sample_radius, cfg.sample_count)
    vals = np.asarray(psi.value(z), dtype=np.complex128) * evaluate(
        f, np.asarray(phi.value(z), dtype=np.complex128)
    )
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise PreconditionError("evaluator not analytic on sampling circle")
    coeffs = dft_coefficient_rows(vals, cfg.sample_radius, n - 1)[0]
    return TaylorSeries(coeffs), aliasing_estimate(coeffs)


def matrix_apply(m: OperatorMatrix, f: TaylorSeries) -> TaylorSeries:
    """Apply the truncation through basis coordinates; returns monomial coeffs."""
    n = m.size
    coeffs = np.zeros(n, dtype=np.complex128)
    take = min(n, f.order + 1)
    coeffs[:take] = f.coeffs[:take]
    x = coeffs / m.params.basis_scale(n)
    y = m.entries @ x
    return TaylorSeries(y * m.params.basis_scale(n))


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


# --- exports -------------------------------------------------------------------


def _matrix_header(m: OperatorMatrix) -> dict:
    return {
        "alpha": m.params.alpha,
        "N": m.size,
        "psi": m.psi_label,
        "phi": m.phi_label,
        "sample_radius": m.sample_radius,
        "sample_count": m.sample_count,
        "col_errors": [float(e) for e in m.col_errors],
        "warnings": list(m.warnings),
    }


def export_matrix_csv(m: OperatorMatrix, path) -> None:
    """``j,k,re,im`` rows preceded by a JSON header comment."""
    from .reportio import fmt_float

    lines = ["# " + json.dumps(_matrix_header(m), sort_keys=True)]
    lines.append("j,k,re,im")
    for jj in range(m.size):
        for kk in range(m.size):
            e = m.entries[jj, kk]
            lines.append(
                "%d,%d,%s,%s" % (jj, kk, fmt_float(e.real), fmt_float(e.imag))
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def export_matrix_json(m: OperatorMatrix, path) -> None:
    """Row-major ``[re, im]`` entries under a header object."""
    from .reportio import render_json

    doc = {
        "header": _matrix_header(m),
        "entries": [
            [m.entries[jj, kk].real, m.entries[jj, kk].imag]
            for jj in range(m.size)
            for kk in range(m.size)
        ],
    }
    with open(path, "w", newline="\n") as fh:
        fh.write(render_json(doc) + "\n")
