"""Matrix truncations of weighted composition maps ``f -> psi * (f o phi)``.

Column ``k`` of the truncation holds the expansion coefficients of
``psi * phi**k`` rescaled into the orthonormal basis.  All powers of ``phi``
share one circle of samples at one fixed radius, so assembling an N x N matrix
costs one batched FFT; each column carries its own aliasing estimate and the
whole assembly is deterministic for fixed inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .catalog import AnalyticFunction
from .errors import NumericsError, ParameterError, PreconditionError
from .series import (
    ExtractionConfig,
    TaylorSeries,
    aliasing_estimate,
    circle_points,
    dft_coefficient_rows,
    evaluate,
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

    ``col_errors[k]`` dominates the extraction noise of column ``k`` in
    matrix-entry scale; when ``phi(0) = 0`` every strictly upper entry is
    bounded by it.
    """

    entries: np.ndarray
    params: SpaceParams
    psi_label: str
    phi_label: str
    col_errors: np.ndarray
    sample_radius: float
    sample_count: int
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def assemble_matrix(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    n: int,
) -> OperatorMatrix:
    """Assemble the N x N truncation of ``f -> psi * (f o phi)``.

    Every column is extracted from one circle at the default radius.
    Columns whose top-quarter coefficient mass exceeds ``1e-8 * max|c|`` get
    a warning.
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
    z = circle_points(cfg.sample_radius, cfg.sample_count)
    psi_vals = np.asarray(psi.value(z), dtype=np.complex128)
    phi_vals = np.asarray(phi.value(z), dtype=np.complex128)
    finite = np.all(np.isfinite(psi_vals.view(np.float64))) and np.all(
        np.isfinite(phi_vals.view(np.float64))
    )
    if not finite:
        raise PreconditionError("evaluator not analytic on sampling circle")
    if float(np.max(np.abs(psi_vals))) == 0.0:
        raise PreconditionError(
            "psi vanishes identically on the sampling circle; the zero "
            "operator is excluded"
        )
    samples = np.empty((n, cfg.sample_count), dtype=np.complex128)
    samples[0] = psi_vals
    for k in range(1, n):
        samples[k] = samples[k - 1] * phi_vals
    raw = dft_coefficient_rows(samples, cfg.sample_radius, n - 1)  # (col, coeff)
    est = np.array([aliasing_estimate(raw[k]) for k in range(n)])
    col_max = np.maximum(np.max(np.abs(raw), axis=1), 1e-300)

    warnings = tuple(
        "column %d extraction estimate %.3e exceeds 1e-8 of its largest "
        "coefficient %.3e" % (k, est[k], col_max[k])
        for k in range(n)
        if est[k] > 1e-8 * col_max[k]
    )
    wk = p.basis_scale(n)  # (k+1)^{(alpha-1)/2}
    wj = 1.0 / p.basis_scale(n)  # (j+1)^{(1-alpha)/2}
    entries = raw.T * wk[None, :] * wj[:, None]
    if not np.all(np.isfinite(entries)):
        raise NumericsError("matrix assembly produced non-finite entries")
    col_errors = est * wk * np.max(wj)
    return OperatorMatrix(
        entries=entries,
        params=p,
        psi_label=psi.label,
        phi_label=phi.label,
        col_errors=col_errors,
        sample_radius=cfg.sample_radius,
        sample_count=cfg.sample_count,
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
