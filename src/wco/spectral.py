"""Spectrum prediction, truncated eigenvalues and their reconciliation.

When the symbol ``phi`` fixes an interior point ``a`` with ``|phi'(a)| < 1``,
the compact-operator spectrum is the geometric family
``psi(a) * phi'(a)**n`` together with 0.  :func:`spectrum_study` checks it
against dense eigenvalues of the plain truncation and of its leading
blocks.  :func:`conjugation_invariance_check` adds a second route: the
diagonal of the Mobius-conjugated truncation, which is exactly lower
triangular because the conjugated symbol fixes the origin and its exact
Taylor coefficients have a constant term of exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import (
    AnalyticFunction,
    conjugate_to_origin,
    find_fixed_point,
)
from .errors import InapplicableError, NumericsError, ParameterError
from .operator import OperatorMatrix, assemble_matrix
from .series import TaylorSeries, circle_points, evaluate
from .spaces import SpaceParams

LEADING_COUNT = 6
_QUASI_NILPOTENT_TOL = 1e-13


@dataclass(frozen=True)
class SpectrumPrediction:
    """Spectrum predicted from jets at the interior fixed point.

    ``predicted`` lists ``psi_a * phi_prime_a**n`` for ``n < count`` followed
    by the accumulation value 0; when ``psi_a`` vanishes the whole spectrum
    collapses to ``{0}``.
    """

    a: complex
    psi_a: complex
    phi_prime_a: complex
    predicted: tuple[complex, ...]
    hypotheses_satisfied: bool | None = None

    @property
    def quasi_nilpotent(self) -> bool:
        return abs(self.psi_a) <= _QUASI_NILPOTENT_TOL


@dataclass(frozen=True)
class SpectrumMatch:
    index: int
    predicted: complex
    eigenvalue: complex
    error: float


@dataclass(frozen=True)
class SpectrumReport:
    prediction: SpectrumPrediction
    eigenvalues: np.ndarray
    matches: tuple[SpectrumMatch, ...]
    passed: bool
    convergence: tuple[dict, ...] = field(default_factory=tuple)
    tol_profile: tuple[float, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "prediction": [
                [v.real, v.imag] for v in self.prediction.predicted
            ],
            "eigenvalues_N": [[v.real, v.imag] for v in self.eigenvalues],
            "matches": [
                {
                    "n": m.index,
                    "lambda": [m.eigenvalue.real, m.eigenvalue.imag],
                    "err": m.error,
                }
                for m in self.matches
            ],
            "convergence": [dict(row) for row in self.convergence],
            "fixed_point": [self.prediction.a.real, self.prediction.a.imag],
            "passed": self.passed,
        }


def predict_spectrum(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    count: int = 12,
    criteria_report=None,
) -> SpectrumPrediction:
    """Evaluate ``psi(a)`` and ``phi'(a)`` at the interior fixed point.

    Raises :class:`InapplicableError` when the symbol has no interior fixed
    point or is an automorphism-like map with ``|phi'(a)| >= 1``; both fall
    outside the implemented characterization.  A criteria report may be
    attached to record whether the decay hypotheses were certified.
    """
    p.require_core()
    if count < 1:
        raise ParameterError("prediction count must be positive")
    a = find_fixed_point(phi)
    if a is None:
        raise InapplicableError(
            "spectral characterization inapplicable: phi has no fixed point "
            "in the open disc"
        )
    jet = phi.jet(a)
    lam = complex(jet.d1)
    if abs(lam) >= 1.0 - 1e-12:
        raise InapplicableError(
            "spectral characterization requires |phi'(a)| < 1 at the interior "
            "fixed point; |phi'(a)| = %.12g (automorphisms and the identity "
            "are excluded)" % abs(lam)
        )
    psi_a = complex(psi.value(a))
    hypotheses = None
    if criteria_report is not None:
        hypotheses = (
            criteria_report.quantities["B1"].verdict == "tends_to_zero"
            and criteria_report.quantities["K_half_alpha_plus1"].verdict
            == "tends_to_zero"
        )
    if abs(psi_a) <= _QUASI_NILPOTENT_TOL:
        predicted: tuple[complex, ...] = (0.0 + 0.0j,)
    else:
        predicted = tuple(psi_a * lam**n for n in range(count)) + (0.0 + 0.0j,)
    return SpectrumPrediction(
        a=complex(a),
        psi_a=psi_a,
        phi_prime_a=lam,
        predicted=predicted,
        hypotheses_satisfied=hypotheses,
    )


def truncated_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of the truncation, sorted by descending modulus then
    ascending argument (deterministic for fixed input)."""
    entries = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix)
    try:
        eig = np.linalg.eigvals(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "eigenvalue QR iteration failed to converge for the %dx%d "
            "truncation" % entries.shape
        ) from exc
    order = np.lexsort((np.angle(eig), -np.abs(eig)))
    return eig[order]


def default_tol_profile(count: int = LEADING_COUNT) -> tuple[float, ...]:
    return (1e-6,) * count


def match_spectra(
    pred: SpectrumPrediction,
    eigenvalues,
    tol_profile: tuple[float, ...] | None = None,
) -> SpectrumReport:
    """Greedy nearest matching of predicted values against unused eigenvalues.

    The overall flag requires the first ``LEADING_COUNT`` predictions to meet
    the per-index tolerances; the quasi-nilpotent prediction instead demands
    the whole eigenvalue cloud sit inside the first tolerance.
    """
    eig = np.asarray(eigenvalues, dtype=np.complex128)
    if tol_profile is None:
        tol_profile = default_tol_profile()
    matches = []
    used = np.zeros(eig.size, dtype=bool)
    for i, target in enumerate(pred.predicted):
        free = np.flatnonzero(~used)
        if free.size == 0:
            break
        err = np.abs(eig[free] - target)
        pick = free[int(np.argmin(err))]
        used[pick] = True
        matches.append(
            SpectrumMatch(
                index=i,
                predicted=complex(target),
                eigenvalue=complex(eig[pick]),
                error=float(np.min(err)),
            )
        )
    if pred.quasi_nilpotent:
        passed = bool(eig.size == 0 or np.max(np.abs(eig)) <= tol_profile[0])
    else:
        head = matches[: min(LEADING_COUNT, len(matches))]
        passed = all(
            m.error <= tol_profile[min(i, len(tol_profile) - 1)]
            for i, m in enumerate(head)
        )
    return SpectrumReport(
        prediction=pred,
        eigenvalues=eig,
        matches=tuple(matches),
        passed=passed,
        tol_profile=tuple(tol_profile),
    )


def spectrum_study(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    n: int,
    count: int = 12,
    criteria_report=None,
) -> SpectrumReport:
    """Predict, truncate at N/4, N/2 and N (at least 8, at most N), and reconcile.

    One truncation is assembled, at the largest size; the smaller ones are
    its leading blocks, since coefficient ``j`` of column ``k`` does not
    depend on the truncation size.

    The tolerance profile at the final size is derived from the observed
    errors one size down: a mode passes when its error is absolutely small
    (1e-6 relative to the leading prediction scale) or has improved by at
    least 10% over the half-size truncation.  Higher modes converge slower,
    so a single absolute number would either mask regressions on the leading
    eigenvalue or reject honest slow modes; a purely relative rule would let
    a far-from-converged study certify itself.
    """
    pred = predict_spectrum(psi, phi, p, count=count, criteria_report=criteria_report)
    sizes = sorted({s for s in (max(8, n // 4), max(8, n // 2), n) if s <= n})
    rows = []
    errors_by_size = {}
    final_eig = None
    entries = assemble_matrix(psi, phi, p, sizes[-1]).entries
    for size in sizes:
        eig = truncated_eigenvalues(entries[:size, :size])
        interim = match_spectra(pred, eig, tol_profile=(np.inf,) * LEADING_COUNT)
        head = interim.matches[: min(LEADING_COUNT, len(interim.matches))]
        if pred.quasi_nilpotent:
            worst = float(np.max(np.abs(eig))) if eig.size else 0.0
        else:
            worst = max((m.error for m in head), default=0.0)
        errors_by_size[size] = [m.error for m in interim.matches]
        rows.append({"N": size, "max_err_first6": worst})
        if size == n:
            final_eig = eig
    if len(sizes) >= 2 and not pred.quasi_nilpotent:
        prev = errors_by_size[sizes[-2]]
        absolute = 1e-6 * (1.0 + abs(pred.psi_a))
        profile = tuple(
            max(1e-8, absolute, 0.9 * prev[i]) if i < len(prev) else absolute
            for i in range(LEADING_COUNT)
        )
    elif pred.quasi_nilpotent and len(sizes) >= 2:
        prev_worst = rows[-2]["max_err_first6"]
        profile = (max(1e-8, 2.0 * prev_worst),) * LEADING_COUNT
    else:
        profile = default_tol_profile()
    report = match_spectra(pred, final_eig, tol_profile=profile)
    return SpectrumReport(
        prediction=report.prediction,
        eigenvalues=report.eigenvalues,
        matches=report.matches,
        passed=report.passed,
        convergence=tuple(rows),
        tol_profile=report.tol_profile,
    )


def schroder_residual(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    lam: complex,
    f: TaylorSeries,
) -> float:
    """Max of ``|psi(z) f(phi(z)) - lam f(z)|`` at 128 points of the circle
    ``|z| = 0.5``.

    ``f`` is expected to be normalized to unit norm in the ambient space
    coordinates; the residual itself is norm-free.
    """
    z = circle_points(0.5, 128)
    lhs = np.asarray(psi.value(z)) * evaluate(f, np.asarray(phi.value(z)))
    rhs = complex(lam) * evaluate(f, z)
    return float(np.max(np.abs(lhs - rhs)))


def eigenpairs_as_series(
    matrix: OperatorMatrix,
) -> list[tuple[complex, TaylorSeries]]:
    """Eigenpairs of the truncation with unit-coordinate-norm eigenvectors
    mapped to monomial coefficients (unit norm in the ambient space)."""
    try:
        eig, vecs = np.linalg.eig(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "eigenvalue QR iteration failed to converge for the %dx%d "
            "truncation" % matrix.entries.shape
        ) from exc
    scale = matrix.params.basis_scale(matrix.size)
    out = []
    order = np.lexsort((np.angle(eig), -np.abs(eig)))
    for idx in order:
        x = vecs[:, idx]
        x = x / np.linalg.norm(x)
        out.append((complex(eig[idx]), TaylorSeries(x * scale)))
    return out


@dataclass(frozen=True)
class ConjugationReport:
    """Agreement between the direct truncation and the conjugated
    triangular route."""

    a: complex
    prediction_gap: float
    diagonal: np.ndarray
    diagonal_max_err: float
    eigenvalue_agreement: tuple[float, ...]
    agreement_tolerances: tuple[float, ...]
    coherent: bool


def conjugation_invariance_check(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    a,
    p: SpaceParams,
    n: int,
) -> ConjugationReport:
    """Both routes must produce the same leading spectrum.

    Route one: dense eigenvalues of the plain truncation.  Route two: the
    conjugated symbol fixes the origin, so its truncation is triangular and
    the predicted spectrum is read off its diagonal.  The conjugated symbols
    are compositions with exact Taylor coefficients, so that truncation is
    exactly lower triangular and its diagonal carries rounding only.
    """
    pred = predict_spectrum(psi, phi, p, count=min(n, 12))
    zeta, eta = conjugate_to_origin(psi, phi, a)
    gap = max(
        abs(complex(zeta.value(0.0)) - pred.psi_a),
        abs(complex(eta.jet(0.0).d1) - pred.phi_prime_a),
    )
    conj_matrix = assemble_matrix(zeta, eta, p, n)
    diag = np.diag(conj_matrix.entries)
    head = min(len(pred.predicted) - (0 if pred.quasi_nilpotent else 1), n)
    diag_err = float(
        np.max(np.abs(diag[:head] - np.asarray(pred.predicted[:head])))
    )
    eig_direct = truncated_eigenvalues(assemble_matrix(psi, phi, p, n))
    eig_conj = truncated_eigenvalues(conj_matrix)
    take = min(LEADING_COUNT, n)
    agreement = tuple(
        float(abs(eig_direct[i] - eig_conj[i])) for i in range(take)
    )
    tols = (1e-8,) * take
    coherent = gap <= 1e-10 and diag_err <= 1e-8 and all(
        err <= tol for err, tol in zip(agreement, tols)
    )
    return ConjugationReport(
        a=complex(a),
        prediction_gap=gap,
        diagonal=diag,
        diagonal_max_err=diag_err,
        eigenvalue_agreement=agreement,
        agreement_tolerances=tols,
        coherent=coherent,
    )
