import numpy as np
import pytest

from wco import catalog
from wco.criteria import AnnularGrid, evaluate_quantities
from wco.errors import InapplicableError
from wco.operator import assemble_matrix
from wco.series import TaylorSeries
from wco.spaces import SpaceParams, norm_sq_coeff
from wco.spectral import (
    conjugation_invariance_check,
    eigenpairs_as_series,
    match_spectra,
    predict_spectrum,
    schroder_residual,
    spectrum_study,
    truncated_eigenvalues,
)

P_HALF = SpaceParams(0.5)
ONE = catalog.polynomial([1.0])
EX1_PSI = catalog.psi_power(2.5)
EX1_PHI = catalog.mobius_self_map(0.5)
SQUARE = catalog.polynomial([0, 0, 1.0])
AFFINE = catalog.affine(0.25, 0.5)


# --- prediction -------------------------------------------------------------------


def test_predict_ex1_geometric_family():
    pred = predict_spectrum(EX1_PSI, EX1_PHI, P_HALF, count=8)
    assert abs(pred.a) <= 1e-12
    assert abs(pred.psi_a - 1.0) <= 1e-12
    assert abs(pred.phi_prime_a - 0.5) <= 1e-12
    want = [0.5**n for n in range(8)] + [0.0]
    assert np.max(np.abs(np.array(pred.predicted) - want)) <= 1e-12


def test_predict_off_origin_fixed_point():
    pred = predict_spectrum(SQUARE, AFFINE, P_HALF, count=6)
    assert abs(pred.a - 0.5) <= 1e-12
    assert abs(pred.psi_a - 0.25) <= 1e-12
    want = [0.25 * 0.5**n for n in range(6)] + [0.0]
    assert np.max(np.abs(np.array(pred.predicted) - want)) <= 1e-12


def test_predict_vanishing_weight_collapses_spectrum():
    pred = predict_spectrum(SQUARE, catalog.affine(0, 0.5), P_HALF)
    assert pred.quasi_nilpotent
    assert pred.predicted == (0.0 + 0.0j,)


def test_predict_requires_interior_fixed_point():
    with pytest.raises(InapplicableError, match="no fixed point"):
        predict_spectrum(ONE, catalog.polynomial([0.5, 0, 0.5]), P_HALF)


def test_predict_excludes_automorphisms():
    with pytest.raises(InapplicableError, match="phi'"):
        predict_spectrum(ONE, catalog.mobius_auto(0.5), P_HALF)


def test_predict_attaches_hypotheses_verdicts():
    crit = evaluate_quantities(EX1_PSI, EX1_PHI, P_HALF, AnnularGrid(m_max=14))
    pred = predict_spectrum(EX1_PSI, EX1_PHI, P_HALF, criteria_report=crit)
    assert pred.hypotheses_satisfied is True


# --- eigenvalues ------------------------------------------------------------------


def test_eigenvalues_of_identity_matrix():
    eig = truncated_eigenvalues(np.eye(8))
    assert np.max(np.abs(eig - 1.0)) == 0.0


def test_eigenvalues_of_diagonal_matrix_exact():
    eig = truncated_eigenvalues(np.diag(0.5 ** np.arange(8.0)))
    assert np.max(np.abs(eig - 0.5 ** np.arange(8.0))) == 0.0


def test_eigenvalues_sorted_by_modulus_then_argument():
    eig = truncated_eigenvalues(np.diag([1j, -1j, 2.0, -0.5]))
    assert abs(eig[0] - 2.0) == 0
    assert np.angle(eig[1]) <= np.angle(eig[2])


def test_ex1_truncation_eigenvalues_match_diagonal():
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64)
    eig = truncated_eigenvalues(m)
    pred = 0.5 ** np.arange(6.0)
    for i in range(6):
        assert abs(eig[i] - pred[i]) <= 1e-10


def test_triangular_exactness_across_sizes():
    # phi(0)=0 makes the truncation triangular: eigenvalues equal the
    # diagonal as a multiset while the diagonal stays above the noise
    # cluster (60-digit arithmetic confirms the residual deviation at large
    # N lives in the assembled matrix itself: strictly-upper entries at the
    # extraction noise floor get amplified by the defective near-zero block)
    for n in (8, 16, 24):
        m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, n)
        eig = np.sort_complex(truncated_eigenvalues(m))
        diag = np.sort_complex(np.diag(m.entries))
        assert np.max(np.abs(eig - diag)) <= 1e-10
    for n in (48, 64):
        m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, n)
        eig = truncated_eigenvalues(m)
        assert max(abs(eig[i] - 0.5**i) for i in range(12)) <= 1e-10
        full = np.max(
            np.abs(np.sort_complex(eig) - np.sort_complex(np.diag(m.entries)))
        )
        assert full <= 1e-6


# --- matching ----------------------------------------------------------------------


def test_match_exact_geometric_set():
    pred = predict_spectrum(EX1_PSI, EX1_PHI, P_HALF, count=6)
    eig = np.array([0.5**n for n in range(8)])
    rep = match_spectra(pred, eig)
    assert rep.passed
    assert all(m.error <= 1e-15 for m in rep.matches[:6])


def test_match_respects_tolerance_profile():
    pred = predict_spectrum(EX1_PSI, EX1_PHI, P_HALF, count=6)
    eig = np.array([0.5**n for n in range(8)]) + 1e-4
    rep = match_spectra(pred, eig, tol_profile=(1e-6,) * 6)
    assert not rep.passed


def test_spectrum_study_off_origin_pair():
    for alpha in (-0.5, 0.5):
        study = spectrum_study(SQUARE, AFFINE, SpaceParams(alpha), 96)
        assert study.passed
        errs = [row["max_err_first6"] for row in study.convergence]
        assert errs[-1] <= 1e-5
        # at machine-noise level monotonicity holds up to the noise floor
        for a, b in zip(errs, errs[1:]):
            assert b <= max(a, 1e-9)


def test_spectrum_study_monotone_improvement_on_compact_cases():
    for psi, phi in ((EX1_PSI, EX1_PHI), (SQUARE, AFFINE)):
        study = spectrum_study(psi, phi, P_HALF, 96)
        errs = [row["max_err_first6"] for row in study.convergence]
        for a, b in zip(errs, errs[1:]):
            assert b <= max(a, 1e-9)


def test_spectrum_study_quasi_nilpotent_envelope():
    # truncations of a quasi-nilpotent operator carry spurious small
    # eigenvalues; the verdict uses a decaying envelope, not exact zeros
    study = spectrum_study(SQUARE, catalog.affine(0, 0.5), P_HALF, 48)
    assert study.prediction.quasi_nilpotent
    assert study.passed
    maxima = [row["max_err_first6"] for row in study.convergence]
    # the spurious-eigenvalue scale is set by the extraction noise floor,
    # so across sizes it must stay inside the doubling envelope, not grow
    assert all(b <= 1.2 * a + 1e-12 for a, b in zip(maxima, maxima[1:]))
    assert float(np.max(np.abs(study.eigenvalues))) <= 1e-3


# --- weighted functional equation ----------------------------------------------------


def test_residual_constant_eigenfunction():
    f = TaylorSeries([1.0] + [0.0] * 7)
    assert schroder_residual(ONE, catalog.affine(0, 0.5), 1.0, f) <= 1e-15


def test_residual_monomial_eigenfunction():
    f = TaylorSeries([0.0, 1.0] + [0.0] * 6)
    assert schroder_residual(ONE, catalog.affine(0, 0.5), 0.5, f) <= 1e-15


def test_residual_of_truncation_eigenvector():
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64)
    pairs = eigenpairs_as_series(m)
    lam, vec = pairs[1]  # eigenvalue near 0.5
    assert abs(lam - 0.5) <= 1e-10
    assert abs(norm_sq_coeff(vec, P_HALF) - 1.0) <= 1e-12
    assert schroder_residual(EX1_PSI, EX1_PHI, lam, vec) <= 1e-6


def test_schroder_ladder_associates_converged_pairs():
    # every eigenpair whose functional-equation residual is small must sit
    # near some predicted value psi(a) phi'(a)^n
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64)
    pred = predict_spectrum(EX1_PSI, EX1_PHI, P_HALF, count=64)
    ladder = np.array(pred.predicted)
    checked = 0
    for lam, vec in eigenpairs_as_series(m):
        if schroder_residual(EX1_PSI, EX1_PHI, lam, vec) <= 1e-6:
            checked += 1
            assert np.min(np.abs(ladder - lam)) <= 1e-4
    assert checked >= 6


# --- conjugation coherence ------------------------------------------------------------


def test_conjugation_check_at_origin():
    rep = conjugation_invariance_check(EX1_PSI, EX1_PHI, 0.0, P_HALF, 32)
    assert rep.prediction_gap <= 1e-12
    assert rep.diagonal_max_err <= 1e-8
    assert rep.coherent


def test_conjugation_check_affine_pair():
    rep = conjugation_invariance_check(SQUARE, AFFINE, 0.5, P_HALF, 48)
    want = 0.25 * 0.5 ** np.arange(12.0)
    assert np.max(np.abs(rep.diagonal[:12] - want)) <= 1e-8
    assert rep.coherent


def test_conjugation_check_exp_lft_family():
    phi = catalog.phi_rk(0.5, 2.0)
    a = catalog.find_fixed_point(phi)
    rep = conjugation_invariance_check(SQUARE, phi, a, P_HALF, 64)
    assert rep.diagonal_max_err <= 1e-8
    assert rep.coherent


def test_eigenvalue_modulus_envelope_on_compact_cases():
    # spectral radius of the truncation approaches |psi(a)|; excess must not
    # grow when the truncation size doubles
    for psi, phi in ((EX1_PSI, EX1_PHI), (SQUARE, AFFINE)):
        pred = predict_spectrum(psi, phi, P_HALF)
        top = abs(pred.psi_a)
        excesses = []
        for n in (24, 48, 96):
            eig = truncated_eigenvalues(assemble_matrix(psi, phi, P_HALF, n))
            excesses.append(max(0.0, float(np.max(np.abs(eig))) - top))
        for a, b in zip(excesses, excesses[1:]):
            assert b <= a + 1e-12
