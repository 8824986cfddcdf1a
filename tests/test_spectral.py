import numpy as np
import pytest

from wco import catalog
from wco.errors import InapplicableError, NumericsError
from wco.operator import assemble_matrix
from wco.spaces import SpaceParams, norm_sq_coeff
from numpy.polynomial.polynomial import polyval

from wco.spectral import (
    _horner,
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
    # phi(0)=0 makes the truncation exactly lower triangular, with entries
    # that carry rounding only, so its eigenvalues are its diagonal
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


def test_triangular_input_returns_sorted_diagonal_without_lapack(monkeypatch):
    calls = []
    dense = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return dense(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    rng = np.random.default_rng(3)
    t = np.tril(rng.standard_normal((40, 40)))
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 128)
    for entries in (t, m.entries, t + 1j * np.tril(rng.standard_normal((40, 40)))):
        d = np.diag(entries)
        want = d[np.lexsort((np.angle(d), -np.abs(d)))]
        got = truncated_eigenvalues(entries)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert calls == []


def _pair_truncations():
    pairs = ((EX1_PSI, EX1_PHI), (SQUARE, catalog.phi_rk(0.5, 2.0)),
             (SQUARE, AFFINE), (ONE, catalog.phi_r1(0.6)))
    for alpha in (-0.3, 0.5, 0.9):
        for n in (64, 512):
            for psi, phi in pairs:
                yield assemble_matrix(psi, phi, SpaceParams(alpha), n).entries


def test_leading_eigenvalues_match_dense_eigensolve():
    # ex1 is triangular, exx2 and z^2 with affine(0.25, 0.5) deflate to a
    # leading block of 35 and 120, phi_r1(0.6) does not deflate at all
    for entries in _pair_truncations():
        got = truncated_eigenvalues(entries)
        dense = np.linalg.eigvals(entries)
        dense = dense[np.lexsort((np.angle(dense), -np.abs(dense)))]
        assert got.size == entries.shape[0]
        assert np.max(np.abs(got[:12] - dense[:12])) <= 1e-12


def test_dense_input_gives_the_dense_result_bit_for_bit():
    rng = np.random.default_rng(7)
    for entries in (rng.standard_normal((60, 60)),
                    rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))):
        dense = np.linalg.eigvals(entries)
        want = dense[np.lexsort((np.angle(dense), -np.abs(dense)))]
        got = truncated_eigenvalues(entries)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_upper_tail_above_the_deflation_budget_is_kept():
    # [[0, e], [1, 0]] has eigenvalues +-sqrt(e); deflating e would give 0, 0
    eps = np.finfo(float).eps
    t = np.array([[0.0, 0.0], [1.0, 0.0]])
    t[0, 1] = 1.5 * eps
    assert np.allclose(np.sort(np.abs(truncated_eigenvalues(t))), np.sqrt(t[0, 1]),
                       rtol=1e-6, atol=0)
    t[0, 1] = 0.5 * eps
    assert not np.any(truncated_eigenvalues(t))


def test_non_finite_input_still_reaches_the_eigensolver_error():
    # a NaN norm must not pass for a negligible upper tail
    t = np.tril(np.ones((6, 6)))
    t[4, 1] = np.nan
    with pytest.raises(NumericsError):
        truncated_eigenvalues(t)


@pytest.mark.parametrize("psi, phi, n", [
    (EX1_PSI, EX1_PHI, 64),
    (SQUARE, catalog.phi_rk(0.5, 2.0), 512),
    (SQUARE, catalog.affine(0, 0.5), 48),
])
def test_report_prints_eigenvalues_above_the_floor(psi, phi, n):
    study = spectrum_study(psi, phi, P_HALF, n)
    doc = study.to_json_dict()
    entries = assemble_matrix(psi, phi, P_HALF, n).entries
    floor = n * np.finfo(float).eps * np.linalg.norm(entries)
    assert doc["eigenvalue_floor"] == study.floor
    assert abs(study.floor - floor) <= 1e-14 * floor
    shown = doc["eigenvalues_N"]
    assert doc["below_floor"] + len(shown) == n
    assert all(abs(complex(*v)) > floor for v in shown)
    assert np.array_equal([complex(*v) for v in shown], study.eigenvalues[: len(shown)])
    assert study.eigenvalues.size == n  # matching saw the full array


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


def test_spectrum_study_stays_within_the_requested_size(monkeypatch):
    import wco.spectral

    sizes = []

    def recording(psi, phi, p, n):
        sizes.append(n)
        return assemble_matrix(psi, phi, p, n)

    monkeypatch.setattr(wco.spectral, "assemble_matrix", recording)
    study = spectrum_study(EX1_PSI, EX1_PHI, P_HALF, 4)
    assert sizes == [4]
    assert [row["N"] for row in study.convergence] == [4]
    assert study.eigenvalues.size == 4


def test_spectrum_study_matches_each_size_once(monkeypatch):
    # N = 64 has the sizes 16, 32 and 64; the report of size 64 takes its
    # flag from the derived profile without a second match
    import wco.spectral

    calls = []

    def counted(pred, eigenvalues, tol_profile=None):
        calls.append(len(eigenvalues))
        return match_spectra(pred, eigenvalues, tol_profile)

    monkeypatch.setattr(wco.spectral, "match_spectra", counted)
    study = spectrum_study(EX1_PSI, EX1_PHI, P_HALF, 64)
    assert calls == [16, 32, 64]
    assert [row["N"] for row in study.convergence] == [16, 32, 64]
    assert study.passed and len(study.tol_profile) == 6


def test_spectrum_study_quasi_nilpotent_envelope():
    # truncations of a quasi-nilpotent operator carry spurious small
    # eigenvalues; the verdict uses a decaying envelope, not exact zeros
    study = spectrum_study(SQUARE, catalog.affine(0, 0.5), P_HALF, 48)
    assert study.prediction.quasi_nilpotent
    assert study.passed
    maxima = [row["max_err_first6"] for row in study.convergence]
    # psi(0) = phi(0) = 0 makes these truncations strictly lower triangular
    # with exact entries, so the spurious-eigenvalue scale is rounding at
    # most; across sizes it must stay inside the doubling envelope, not grow
    assert all(b <= 1.2 * a + 1e-12 for a, b in zip(maxima, maxima[1:]))
    assert float(np.max(np.abs(study.eigenvalues))) <= 1e-3


# --- weighted functional equation ----------------------------------------------------


def test_residual_constant_eigenfunction():
    f = [1.0] + [0.0] * 7
    assert schroder_residual(ONE, catalog.affine(0, 0.5), 1.0, f) <= 1e-15


def test_residual_monomial_eigenfunction():
    f = [0.0, 1.0] + [0.0] * 6
    assert schroder_residual(ONE, catalog.affine(0, 0.5), 0.5, f) <= 1e-15


@pytest.mark.parametrize("complex_x", [False, True])
@pytest.mark.parametrize("complex_c", [False, True])
def test_horner_equals_polyval_bit_for_bit(complex_c, complex_x):
    rng = np.random.default_rng(7)
    for n in range(1, 41):
        c = rng.standard_normal(n)
        if complex_c:
            c = c + 1j * rng.standard_normal(n)
        x = 0.9 * rng.standard_normal(64)
        if complex_x:
            x = x + 0.5j * rng.standard_normal(64)
        got, want = _horner(x, c), polyval(x, c)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), n


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
    eig = truncated_eigenvalues(assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 32))
    pred = predict_spectrum(EX1_PSI, EX1_PHI, P_HALF)
    rep = conjugation_invariance_check(EX1_PSI, EX1_PHI, pred, P_HALF, eig)
    assert rep.prediction_gap <= 1e-12
    assert rep.diagonal_max_err <= 1e-8
    assert rep.coherent


def test_conjugation_check_affine_pair():
    eig = truncated_eigenvalues(assemble_matrix(SQUARE, AFFINE, P_HALF, 48))
    pred = predict_spectrum(SQUARE, AFFINE, P_HALF)
    rep = conjugation_invariance_check(SQUARE, AFFINE, pred, P_HALF, eig)
    want = 0.25 * 0.5 ** np.arange(12.0)
    assert np.max(np.abs(rep.diagonal[:12] - want)) <= 1e-8
    assert rep.coherent


def test_conjugation_check_exp_lft_family():
    phi = catalog.phi_rk(0.5, 2.0)
    pred = predict_spectrum(SQUARE, phi, P_HALF)
    eig = truncated_eigenvalues(assemble_matrix(SQUARE, phi, P_HALF, 64))
    rep = conjugation_invariance_check(SQUARE, phi, pred, P_HALF, eig)
    assert rep.diagonal_max_err <= 1e-8
    assert rep.coherent


@pytest.mark.parametrize("n", [64, 256])
def test_exx2_conjugated_truncation_is_exactly_triangular(n):
    # the conjugated symbols have exact coefficients and eta(0) is exactly 0,
    # so nothing lies above the diagonal and the diagonal is the prediction
    phi = catalog.phi_rk(0.5, 2.0)
    pred = predict_spectrum(SQUARE, phi, P_HALF, count=12)
    zeta, eta = catalog.conjugate_to_origin(SQUARE, phi, pred.a)
    m = assemble_matrix(zeta, eta, P_HALF, n)
    assert m.entries.dtype == np.float64
    assert not np.any(np.triu(m.entries, 1))
    want = pred.psi_a * pred.phi_prime_a ** np.arange(n)
    assert np.max(np.abs(np.diag(m.entries) - want)) <= 1e-15
    assert m.warnings == ()


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
