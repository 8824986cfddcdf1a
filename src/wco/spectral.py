"""Spectrum prediction, truncated eigenvalues and their reconciliation.

When the symbol ``phi`` fixes an interior point ``a`` with ``|phi'(a)| < 1``,
the compact-operator spectrum is the geometric family
``psi(a) * phi'(a)**n`` together with 0.  :func:`spectrum_study` checks it
against the eigenvalues of the plain truncation and of its leading blocks,
matching each size once with :func:`match_spectra`; the flag of the size-N
report follows a tolerance profile derived from the size below.
:func:`conjugation_invariance_check` adds a second route: the diagonal of the
Mobius-conjugated truncation, which is exactly lower triangular because the
conjugated symbol fixes the origin and its exact Taylor coefficients have a
constant term of exactly 0.

Column ``k`` of a truncation holds the coefficients of ``psi * phi**k``, and
``|phi| < 1`` makes the part above the diagonal die out to the right: the
truncation is block lower triangular ``[[A, 0], [B, L]]`` up to rounding,
with ``L`` lower triangular.  :func:`truncated_eigenvalues` drops the upper
triangle of the columns right of the smallest leading block ``A`` for which
that part has Frobenius norm at most ``eps ||T||_F``, and returns the
eigenvalues of ``A`` together with the diagonal of ``L``.  They are the exact
eigenvalues of a matrix within ``eps ||T||_F`` of ``T``, which is below the
``O(N eps ||T||)`` backward error of a dense QR eigensolve of ``T``.  Only
``A`` goes through LAPACK: it is empty when ``phi(0) = 0`` and about 35 x 35
for the exx2 pair at any size.  Eigenvalues below ``N eps ||T||_F`` are
rounding noise (Trefethen & Embree, *Spectra and Pseudospectra*, 2005), so
reports print only those above that floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import (
    AnalyticFunction,
    conjugate_to_origin,
    find_fixed_point,
)
from .errors import InapplicableError, NumericsError, ParameterError
from .operator import OperatorMatrix, assemble_matrix
from .series import circle_points
from .spaces import SpaceParams

LEADING_COUNT = 6
_QUASI_NILPOTENT_TOL = 1e-13
_EPS = float(np.finfo(np.float64).eps)
# Norms outside this range could overflow or underflow the squared column
# norms of the deflation scan; such matrices take the full eigensolve.
_SCAN_NORM_RANGE = (1e-140, 1e140)
# Columns per step of that scan: enough to spread numpy's per-call cost, few
# enough that the scan of a deflating truncation stops soon after ``K``.
_SCAN_CHUNK = 32
_STRICT_UPPER = np.triu(np.ones((_SCAN_CHUNK, _SCAN_CHUNK)), 1)
_DEFAULT_TOL_PROFILE = (1e-6,) * LEADING_COUNT


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
    """Matched spectrum of one truncation.

    ``floor`` is ``N eps ||T||_F`` of the N x N truncation ``T``: eigenvalues
    at or below it are rounding noise, so the JSON form counts them in
    ``below_floor`` instead of printing them.  A match to such an eigenvalue
    prints ``lambda`` as null and ``err`` as the bound
    ``|predicted| + floor``; matching and ``passed`` use the raw values.
    """

    prediction: SpectrumPrediction
    eigenvalues: np.ndarray
    matches: tuple[SpectrumMatch, ...]
    passed: bool
    convergence: tuple[dict, ...] = field(default_factory=tuple)
    tol_profile: tuple[float, ...] = field(default_factory=tuple)
    floor: float = 0.0

    def to_json_dict(self) -> dict:
        # eigenvalues are sorted by descending modulus, so the ones above the
        # floor are a prefix; matching has used the full array
        shown = self.eigenvalues[np.abs(self.eigenvalues) > self.floor]
        return {
            "prediction": [
                [v.real, v.imag] for v in self.prediction.predicted
            ],
            "eigenvalues_N": [[v.real, v.imag] for v in shown],
            "eigenvalue_floor": self.floor,
            "below_floor": int(self.eigenvalues.size - shown.size),
            "matches": [self._match_json(m) for m in self.matches],
            "convergence": [dict(row) for row in self.convergence],
            "fixed_point": [self.prediction.a.real, self.prediction.a.imag],
            "passed": self.passed,
        }

    @property
    def max_err_first6(self) -> float:
        """The largest error of the first ``LEADING_COUNT`` matches, or for a
        quasi-nilpotent prediction the largest eigenvalue modulus."""
        if self.prediction.quasi_nilpotent:
            return float(np.max(np.abs(self.eigenvalues), initial=0.0))
        return max((m.error for m in self.matches[:LEADING_COUNT]), default=0.0)

    def _match_json(self, m: SpectrumMatch) -> dict:
        if abs(m.eigenvalue) <= self.floor:
            return {"n": m.index, "lambda": None, "err": abs(m.predicted) + self.floor}
        return {"n": m.index, "lambda": [m.eigenvalue.real, m.eigenvalue.imag], "err": m.error}


def predict_spectrum(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    count: int = 12,
) -> SpectrumPrediction:
    """Evaluate ``psi(a)`` and ``phi'(a)`` at the interior fixed point.

    Raises :class:`InapplicableError` when the symbol has no interior fixed
    point or is an automorphism-like map with ``|phi'(a)| >= 1``; both fall
    outside the implemented characterization.
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
    if abs(psi_a) <= _QUASI_NILPOTENT_TOL:
        predicted: tuple[complex, ...] = (0.0 + 0.0j,)
    else:
        predicted = tuple(psi_a * lam**n for n in range(count)) + (0.0 + 0.0j,)
    return SpectrumPrediction(
        a=complex(a),
        psi_a=psi_a,
        phi_prime_a=lam,
        predicted=predicted,
    )


def truncated_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of the truncation, sorted by descending modulus then
    ascending argument (deterministic for fixed input).

    ``K`` is the smallest size for which ``E = triu(T, 1)[:, K:]`` has
    ``||E||_F <= eps ||T||_F``.  ``T - E = [[A, 0], [B, L]]`` with ``L``
    lower triangular, so its eigenvalues are ``eigvals(A)`` together with
    ``diag(T)[K:]``.  They are exact for a matrix within ``eps ||T||_F`` of
    ``T``, below the ``O(N eps ||T||)`` backward error of a dense eigensolve
    of ``T``.  ``K = 0`` on triangular input, which never reaches LAPACK;
    ``K = N`` on a matrix with no negligible upper tail.
    """
    entries = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix)
    n = entries.shape[0]
    fro = math.sqrt(_column_sum_sq(entries).sum())
    low, high = _SCAN_NORM_RANGE
    k = _deflation_size(entries, fro) if low < fro < high else n
    eig = entries.diagonal()[k:]
    if k:
        try:
            lead = np.linalg.eigvals(entries[:k, :k])
        except np.linalg.LinAlgError as exc:
            raise NumericsError(
                "eigenvalue QR iteration failed to converge for the %dx%d "
                "leading block of the %dx%d truncation" % (k, k, n, n)
            ) from exc
        eig = np.concatenate((lead, eig))
    order = np.lexsort((np.angle(eig), -np.abs(eig)))
    return eig[order]


def _deflation_size(entries: np.ndarray, fro: float) -> int:
    """Smallest ``K`` with ``||triu(entries, 1)[:, K:]||_F <= eps * fro``.

    Scans the columns from the right, a chunk at a time, with a running sum
    of the squared entries above the diagonal; each chunk reads a view of
    its columns, so no copy of the whole matrix is made.
    """
    budget = (_EPS * fro) ** 2
    tail = 0.0
    hi = entries.shape[0]
    while hi > 0:
        lo = max(0, hi - _SCAN_CHUNK)
        corner = entries[lo:hi, lo:hi] * _STRICT_UPPER[: hi - lo, : hi - lo]
        above = _column_sum_sq(entries[:lo, lo:hi]) + _column_sum_sq(corner)
        running = tail + np.cumsum(above[::-1])
        over = np.flatnonzero(running > budget)
        if over.size:
            return hi - int(over[0])
        tail = float(running[-1])
        hi = lo
    return 0


def _column_sum_sq(x: np.ndarray) -> np.ndarray:
    """``sum(abs(x)**2, axis=0)`` in numpy's own loops, without a copy.

    BLAS reductions such as ``np.linalg.norm`` split long sums by the thread
    count, which moves their last bits, and reports must not move with it.
    """
    if np.iscomplexobj(x):
        return _column_sum_sq(x.real) + _column_sum_sq(x.imag)
    return np.einsum("ij,ij->j", x, x)


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
        tol_profile = _DEFAULT_TOL_PROFILE
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
    return SpectrumReport(
        prediction=pred,
        eigenvalues=eig,
        matches=tuple(matches),
        passed=_passed(pred, eig, matches, tol_profile),
        tol_profile=tuple(tol_profile),
    )


def _passed(pred: SpectrumPrediction, eig: np.ndarray, matches, tol_profile) -> bool:
    """The pass rule of :func:`match_spectra` under ``tol_profile``."""
    if pred.quasi_nilpotent:
        return bool(eig.size == 0 or np.max(np.abs(eig)) <= tol_profile[0])
    return all(
        m.error <= tol_profile[min(i, len(tol_profile) - 1)]
        for i, m in enumerate(matches[:LEADING_COUNT])
    )


def spectrum_study(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    n: int,
    count: int = 12,
) -> SpectrumReport:
    """Predict, truncate at N/4, N/2 and N (at least 8, at most N), and reconcile.

    One truncation is assembled, at the largest size; the smaller ones are
    its leading blocks, since coefficient ``j`` of column ``k`` does not
    depend on the truncation size.  Each size is matched once; the report is
    that of size N, with its flag decided by the profile below.

    The tolerance profile at the final size is derived from the observed
    errors one size down: a mode passes when its error is absolutely small
    (1e-6 relative to the leading prediction scale) or has improved by at
    least 10% over the half-size truncation.  A quasi-nilpotent prediction
    has one mode, the largest eigenvalue modulus, under the same rule: the
    spurious eigenvalues of non-normal truncations shrink slowly, so one
    that is neither small nor shrinking fails.  Higher modes converge slower,
    so a single absolute number would either mask regressions on the leading
    eigenvalue or reject honest slow modes; a purely relative rule would let
    a far-from-converged study certify itself.
    """
    pred = predict_spectrum(psi, phi, p, count=count)
    sizes = sorted({s for s in (max(8, n // 4), max(8, n // 2), n) if s <= n})
    entries = assemble_matrix(psi, phi, p, sizes[-1]).entries
    reports = [match_spectra(pred, truncated_eigenvalues(entries[:s, :s])) for s in sizes]
    rows = tuple(
        {"N": s, "max_err_first6": r.max_err_first6} for s, r in zip(sizes, reports)
    )
    if len(sizes) < 2:
        profile = _DEFAULT_TOL_PROFILE
    else:
        if pred.quasi_nilpotent:  # its one mode: the largest modulus
            prev = [rows[-2]["max_err_first6"]] * LEADING_COUNT
        else:
            prev = [m.error for m in reports[-2].matches]
        absolute = 1e-6 * (1.0 + abs(pred.psi_a))
        profile = tuple(
            max(1e-8, absolute, 0.9 * prev[i]) if i < len(prev) else absolute
            for i in range(LEADING_COUNT)
        )
    final = reports[-1]
    return replace(
        final,
        passed=_passed(pred, final.eigenvalues, final.matches, profile),
        convergence=rows,
        tol_profile=profile,
        floor=n * _EPS * math.sqrt(_column_sum_sq(entries).sum()),
    )


def _horner(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``sum(c[n] * x**n)`` by Horner's scheme, in the order of
    ``numpy.polynomial.polynomial.polyval`` and so bit for bit equal to it,
    without importing ``numpy.polynomial`` (nine modules)."""
    acc = c[-1] + x * 0
    for ck in c[-2::-1]:
        acc = ck + acc * x
    return acc


def schroder_residual(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    lam: complex,
    f: np.ndarray,
) -> float:
    """Max of ``|psi(z) f(phi(z)) - lam f(z)|`` at 128 points of the circle
    ``|z| = 0.5``, for the coefficient array ``f`` (``f[n]`` multiplies
    ``z**n``, evaluated by Horner's scheme).

    ``f`` is expected to be normalized to unit norm in the ambient space
    coordinates; the residual itself is norm-free.
    """
    z = circle_points(0.5, 128)
    lhs = np.asarray(psi.value(z)) * _horner(np.asarray(phi.value(z)), f)
    rhs = complex(lam) * _horner(z, f)
    return float(np.max(np.abs(lhs - rhs)))


def eigenpairs_as_series(
    matrix: OperatorMatrix,
) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of the truncation with unit-coordinate-norm eigenvectors
    mapped to monomial coefficient arrays (unit norm in the ambient space)."""
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
        out.append((complex(eig[idx]), x * scale))
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
    pred: SpectrumPrediction,
    p: SpaceParams,
    direct_eigenvalues,
) -> ConjugationReport:
    """Both routes must produce the same leading spectrum.

    Route one: ``direct_eigenvalues``, the :func:`truncated_eigenvalues` of
    the plain N x N truncation, which the caller has already computed (a
    :func:`spectrum_study` holds them as ``eigenvalues``, and ``pred`` as
    ``prediction``).  Route two: conjugated at the fixed point ``pred.a``,
    the symbol fixes the origin, so its N x N truncation is triangular
    and the predicted spectrum is read off its diagonal.  The conjugated
    symbols are compositions with exact Taylor coefficients, so that
    truncation is exactly lower triangular and its diagonal carries rounding
    only.
    """
    eig_direct = np.asarray(direct_eigenvalues)
    n = eig_direct.size
    zeta, eta = conjugate_to_origin(psi, phi, pred.a)
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
        a=pred.a,
        prediction_gap=gap,
        diagonal=diag,
        diagonal_max_err=diag_err,
        eigenvalue_agreement=agreement,
        agreement_tolerances=tols,
        coherent=coherent,
    )
