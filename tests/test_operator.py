import json

import numpy as np
import pytest

from wco import catalog
from wco.errors import PreconditionError
from wco.operator import (
    adjoint_kernel_check,
    apply_operator,
    assemble_matrix,
    export_matrix_csv,
    export_matrix_json,
    matrix_apply,
)
from wco.series import ExtractionConfig, TaylorSeries, dft_coefficient_rows
from wco.spaces import SpaceParams

ONE = catalog.polynomial([1.0])
EX1_PSI = catalog.psi_power(2.5)
EX1_PHI = catalog.mobius_self_map(0.5)
P_HALF = SpaceParams(0.5)


def test_dilation_gives_diagonal_matrix():
    for alpha in (-0.5, 0.0, 0.5):
        m = assemble_matrix(ONE, catalog.affine(0, 0.5), SpaceParams(alpha), 8)
        want = np.diag(0.5 ** np.arange(8.0))
        assert np.max(np.abs(m.entries - want)) <= 1e-13


def test_identity_symbol_gives_identity_matrix():
    m = assemble_matrix(ONE, catalog.identity(), P_HALF, 8)
    assert np.max(np.abs(m.entries - np.eye(8))) <= 1e-13


def test_ex1_matrix_triangular_with_geometric_diagonal():
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64)
    upper = np.triu(m.entries, 1)
    for k in range(64):
        assert np.max(np.abs(upper[:, k])) <= m.col_errors[k]
    assert np.max(np.abs(np.diag(m.entries) - 0.5 ** np.arange(64.0))) <= 1e-10


def test_diagonal_law_for_origin_fixing_symbols():
    # phi(0)=0 forces entries (k,k) = psi(0) * phi'(0)^k
    psi = catalog.polynomial([2.0, 1.0])
    phi = catalog.affine(0, 0.7)
    m = assemble_matrix(psi, phi, SpaceParams(-0.25), 24)
    want = 2.0 * 0.7 ** np.arange(24.0)
    assert np.max(np.abs(np.diag(m.entries) - want)) <= 1e-11


def test_assemble_requires_self_map():
    with pytest.raises(PreconditionError):
        assemble_matrix(ONE, catalog.psi_power(2.5), P_HALF, 8)


def test_assemble_rejects_zero_weight():
    with pytest.raises(PreconditionError, match="zero operator"):
        assemble_matrix(catalog.polynomial([0.0]), EX1_PHI, P_HALF, 8)


def test_assemble_warns_on_slow_tails():
    # The catalog weight has exact coefficients and no extraction estimate,
    # so the ex1 pair raises no warnings.  The same weight behind a custom
    # wrapper is sampled; its coefficients decay like j**-3.5, so the top
    # quarter of the extracted range stays large and the columns warn.
    assert assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64).warnings == ()
    sampled = catalog.custom(
        "sampled_power",
        lambda z: (1.0 - z) ** 2.5,
        lambda z: -2.5 * (1.0 - z) ** 1.5,
        lambda z: 3.75 * (1.0 - z) ** 0.5,
    )
    assert sampled.taylor is None
    assert assemble_matrix(sampled, EX1_PHI, P_HALF, 64).warnings


def test_one_extraction_per_call(monkeypatch):
    import wco.operator
    import wco.series

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return dft_coefficient_rows(*args, **kwargs)

    monkeypatch.setattr(wco.series, "dft_coefficient_rows", counting)
    monkeypatch.setattr(wco.operator, "dft_coefficient_rows", counting)
    # catalog symbols have exact coefficients: no circle is sampled
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64)
    assert calls == [] and m.sample_radius is None and m.sample_count is None
    # conjugated symbols have none: one extraction per sampled function
    zeta, eta = catalog.conjugate_to_origin(EX1_PSI, EX1_PHI, 0.0)
    m = assemble_matrix(zeta, eta, P_HALF, 64)
    assert len(calls) == 2
    assert m.sample_radius == ExtractionConfig().sample_radius == 0.9
    assemble_matrix(zeta, EX1_PHI, P_HALF, 64)
    assert len(calls) == 3
    apply_operator(EX1_PSI, EX1_PHI, TaylorSeries([1.0, 0.5]), P_HALF, 64)
    assert calls == [0.9] * 4


@pytest.mark.parametrize("n", [512, 1024])
def test_ex1_truncation_is_real_triangular_and_bounded(n):
    # every entry of the ex1 truncation is at most 2.973 in modulus; circle
    # extraction at radius 0.9 amplified rounding to ~1e7 (N=512) and ~1e30
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, n)
    assert m.entries.dtype == np.float64
    assert np.max(np.abs(m.entries)) <= 3.0
    assert not np.any(np.triu(m.entries, 1))
    assert m.warnings == ()


def _exp_lft_coeffs(a, b, r, n):
    """Coefficients of ``exp((a z + b)/(1 - r z))`` from the differential
    equation ``(1 - r z)**2 h' = (a + r b) h`` in 60-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a, b, r = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(r)
        c = a + r * b
        h = [mpmath.exp(b), c * mpmath.exp(b)]
        for j in range(1, n - 1):
            h.append(((2 * r * j + c) * h[j] - r * r * (j - 1) * h[j - 1]) / (j + 1))
        return np.array([float(v) for v in h[:n]])


def test_exx2_truncation_matches_independent_reference_at_512():
    n, alpha, r, k = 512, 0.5, 0.5, 2.0
    phi_c = _exp_lft_coeffs(r * k - 1.0, r - k, r, n)
    cols = np.zeros((n, n))  # cols[:, k] = coefficients of psi * phi**k
    cols[2, 0] = 1.0  # psi = z**2
    for kk in range(1, n):
        cols[:, kk] = np.convolve(cols[:, kk - 1], phi_c)[:n]
    scale = (np.arange(n) + 1.0) ** ((alpha - 1.0) / 2.0)
    want = cols * scale[None, :] / scale[:, None]
    m = assemble_matrix(
        catalog.polynomial([0.0, 0.0, 1.0]), catalog.phi_rk(r, k), SpaceParams(alpha), n
    )
    assert m.entries.dtype == np.float64
    assert np.max(np.abs(m.entries - want)) <= 1e-12 * np.max(np.abs(want))


def test_sampled_route_agrees_with_exact_route_within_col_errors():
    # conjugating ex1 by z -> -z flips the sign of entry (j, k) by (-1)**(j+k);
    # the conjugated symbols are sampled, so this compares the extraction
    # fallback with exact coefficients.  At N = 128 the 0.9**-j amplified
    # extraction noise (~5e-11) dominates rounding, so the extraction part
    # of col_errors is what must cover it.
    n = 128
    exact = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, n)
    zeta, eta = catalog.conjugate_to_origin(EX1_PSI, EX1_PHI, 0.0)
    sampled = assemble_matrix(zeta, eta, P_HALF, n)
    sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    dev = np.abs(sampled.entries - sign * exact.entries)
    assert np.all(dev <= sampled.col_errors[None, :])


def test_apply_operator_examples():
    out, _ = apply_operator(ONE, catalog.affine(0, 0.5), TaylorSeries([0, 0, 1]), P_HALF, 8)
    want = np.zeros(8)
    want[2] = 0.25
    assert np.max(np.abs(out.coeffs - want)) <= 1e-13

    out, _ = apply_operator(
        catalog.polynomial([0, 0, 1]), catalog.identity(), TaylorSeries([1.0]), P_HALF, 8
    )
    want = np.zeros(8)
    want[2] = 1.0
    assert np.max(np.abs(out.coeffs - want)) <= 1e-13


def test_apply_matches_matrix_route_on_ex1():
    f = TaylorSeries([1.0, 1.0])
    direct, est = apply_operator(EX1_PSI, EX1_PHI, f, P_HALF, 64)
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64)
    via_matrix = matrix_apply(m, f)
    assert np.max(np.abs(direct.coeffs - via_matrix.coeffs)) <= 1e-9


def test_apply_matches_matrix_route_on_random_polynomials():
    rng = np.random.default_rng(11)
    n = 32
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, n)
    for _ in range(20):
        deg = int(rng.integers(0, n // 4))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = TaylorSeries(coeffs)
        direct, est = apply_operator(EX1_PSI, EX1_PHI, f, P_HALF, n)
        via = matrix_apply(m, f)
        budget = (
            est
            + float(np.sum(m.col_errors[: deg + 1] * np.abs(coeffs)))
            + 1e-10 * (1 + np.max(np.abs(coeffs)))
        )
        assert np.max(np.abs(direct.coeffs - via.coeffs)) <= budget


def test_adjoint_kernel_identity_trivial_point():
    rep = adjoint_kernel_check(ONE, catalog.affine(0, 0.5), P_HALF, 0.0, 32)
    assert rep.residual <= 1e-12


def test_adjoint_kernel_identity_interior_point():
    rep = adjoint_kernel_check(ONE, catalog.affine(0, 0.5), P_HALF, 0.5, 256)
    assert rep.residual <= 1e-8


def test_adjoint_kernel_identity_ex1_deep():
    rep = adjoint_kernel_check(EX1_PSI, EX1_PHI, P_HALF, 0.7, 512)
    assert rep.residual <= 1e-6
    assert rep.kernel_tail_z >= 0 and rep.kernel_tail_phi_z >= 0


def test_adjoint_kernel_rejects_outer_points():
    with pytest.raises(PreconditionError):
        adjoint_kernel_check(ONE, EX1_PHI, P_HALF, 0.85, 16)


def test_matrix_exports_are_deterministic(tmp_path):
    m = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 12)
    c1, c2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    j1, j2 = tmp_path / "m1.json", tmp_path / "m2.json"
    export_matrix_csv(m, c1)
    export_matrix_csv(m, c2)
    export_matrix_json(m, j1)
    export_matrix_json(m, j2)
    assert c1.read_bytes() == c2.read_bytes()
    assert j1.read_bytes() == j2.read_bytes()
    header = json.loads(c1.read_text().splitlines()[0][2:])
    assert header["alpha"] == 0.5 and header["N"] == 12
    assert header["psi"] == EX1_PSI.label and header["phi"] == EX1_PHI.label
    assert len(header["col_errors"]) == 12
    doc = json.loads(j1.read_text())
    assert len(doc["entries"]) == 144
    got = doc["entries"][1 * 12 + 0]  # row-major (j=1, k=0)
    assert abs(complex(got[0], got[1]) - m.entries[1, 0]) <= 1e-15


def test_csv_rows_cover_all_entries(tmp_path):
    m = assemble_matrix(ONE, catalog.affine(0, 0.5), P_HALF, 5)
    path = tmp_path / "m.csv"
    export_matrix_csv(m, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "j,k,re,im"
    assert len(lines) == 2 + 25
