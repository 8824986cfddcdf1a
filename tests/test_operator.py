import numpy as np
import pytest

from wco import catalog, cli
from wco.errors import PreconditionError
from wco.operator import adjoint_kernel_check, assemble_matrix
from wco.series import dft_coefficient_rows
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


_POWER_JETS = (
    lambda z: (1.0 - z) ** 2.5,
    lambda z: -2.5 * (1.0 - z) ** 1.5,
    lambda z: 3.75 * (1.0 - z) ** 0.5,
)


def test_assemble_warns_on_slow_tails():
    # The ex1 weight's coefficients decay only like j**-3.5.  They are exact,
    # so a slow tail carries no extraction error and raises no warning, for
    # the catalog weight and for the same weight wrapped by custom with its
    # taylor; the wrapped one assembles bit-identically.
    want = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64)
    assert want.warnings == ()
    wrapped = catalog.custom("power", *_POWER_JETS, taylor=EX1_PSI.taylor)
    got = assemble_matrix(wrapped, EX1_PHI, P_HALF, 64)
    assert got.warnings == ()
    assert np.array_equal(got.entries, want.entries)


def test_symbols_without_taylor_are_refused():
    # Assembly samples no symbol: a custom weight without taylor is refused
    # at every size.
    bare = catalog.custom("bare_power", *_POWER_JETS)
    assert bare.taylor is None
    for n in (64, 2087):
        with pytest.raises(PreconditionError, match="no exact Taylor coefficients"):
            assemble_matrix(bare, EX1_PHI, P_HALF, n)
    with pytest.raises(PreconditionError):
        bare.coefficients(8)


def test_assembly_and_paper_examples_never_reach_the_dft(monkeypatch, capsys):
    import wco.series

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return dft_coefficient_rows(*args, **kwargs)

    monkeypatch.setattr(wco.series, "dft_coefficient_rows", counting)
    assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, 64)
    zeta, eta = catalog.conjugate_to_origin(EX1_PSI, EX1_PHI, 0.0)
    assemble_matrix(zeta, eta, P_HALF, 64)
    assemble_matrix(zeta, EX1_PHI, P_HALF, 64)
    assert cli.main(["paper-examples"]) == 0
    capsys.readouterr()
    assert calls == []


_CUT_PAIRS = {
    "ex1": (EX1_PSI, EX1_PHI),
    "exx2": (catalog.polynomial([0.0, 0.0, 1.0]), catalog.phi_rk(0.5, 2.0)),
    "phi_r1": (ONE, catalog.phi_r1(0.6)),
}


@pytest.mark.parametrize("pair", sorted(_CUT_PAIRS))
def test_truncation_has_no_subnormal_entries(pair):
    # the coefficients of phi**m decay geometrically; uncut, 4% of the exx2
    # entries at N = 1024 are subnormal
    m = assemble_matrix(*_CUT_PAIRS[pair], P_HALF, 1024)
    mod = np.abs(m.entries)
    assert not np.any((mod > 0) & (mod < np.finfo(float).tiny))


@pytest.mark.parametrize("pair", ["ex1", "exx2"])
def test_underflow_cut_is_scale_free(pair):
    # 2**-600 psi gives exactly 2**-600 times the matrix: the cut follows
    # the scale of psi, and a subnormal result is rounded once
    psi, phi = _CUT_PAIRS[pair]
    tiny = catalog.product(psi, catalog.polynomial([2.0**-600]))
    want = assemble_matrix(psi, phi, P_HALF, 512).entries * 2.0**-600
    got = assemble_matrix(tiny, phi, P_HALF, 512).entries
    assert np.array_equal(got, want)


def test_col_errors_cover_the_underflow_cut():
    # phi = z/2 has phi**k = 2**-k z**k, cut to zero below 2**-511, so the
    # diagonal entries 2**-k past k = 510 are lost; col_errors must cover them
    n = 1024
    m = assemble_matrix(ONE, catalog.affine(0, 0.5), P_HALF, n)
    assert not np.any(np.diag(m.entries)[511:])
    want = np.diag(0.5 ** np.arange(n))
    assert np.all(np.abs(m.entries - want) <= m.col_errors[None, :])
    # each cut entry is below 2**(e-511) in column scale, e the exponent of
    # the largest coefficient of psi; no column bound may fall below that
    for psi, phi in [(ONE, catalog.affine(0, 0.5)), *_CUT_PAIRS.values()]:
        m = assemble_matrix(psi, phi, P_HALF, n)
        e = np.frexp(np.max(np.abs(psi.coefficients(n - 1))))[1]
        s = P_HALF.basis_scale(n)
        assert np.all(m.col_errors >= 2.0 ** (e - 511) * s / np.min(s))


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


def test_conjugated_route_agrees_with_direct_route_within_col_errors():
    # conjugating ex1 by z -> -z flips the sign of entry (j, k) by (-1)**(j+k);
    # the conjugated symbols get their coefficients through composition, so
    # this compares two exact routes, and col_errors must cover the rounding
    n = 128
    exact = assemble_matrix(EX1_PSI, EX1_PHI, P_HALF, n)
    zeta, eta = catalog.conjugate_to_origin(EX1_PSI, EX1_PHI, 0.0)
    conjugated = assemble_matrix(zeta, eta, P_HALF, n)
    sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    dev = np.abs(conjugated.entries - sign * exact.entries)
    assert np.all(dev <= conjugated.col_errors[None, :])


def _exact_image(psi, phi, c, n):
    """Coefficients ``0..n-1`` of ``psi * (f o phi)`` for the polynomial ``f``
    with coefficients ``c``: Horner composition and one convolution, not the
    doubling Toeplitz products of the assembly."""
    image = catalog.product(psi, catalog.jet_compose(catalog.polynomial(c), phi))
    return image.coefficients(n - 1)


def _assert_matrix_route_matches(psi, phi, c, n, m=None):
    if m is None:
        m = assemble_matrix(psi, phi, P_HALF, n)
    x = np.zeros(n, dtype=np.complex128)
    x[: len(c)] = c
    s = P_HALF.basis_scale(n)
    via_matrix = (m.entries @ (x / s)) * s
    ref = _exact_image(psi, phi, c, n)
    assert np.max(np.abs(via_matrix - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))
    return ref


def test_apply_operator_examples():
    want = np.zeros(8)
    want[2] = 0.25
    ref = _assert_matrix_route_matches(ONE, catalog.affine(0, 0.5), [0, 0, 1], 8)
    assert np.max(np.abs(ref - want)) <= 1e-13

    want = np.zeros(8)
    want[2] = 1.0
    ref = _assert_matrix_route_matches(
        catalog.polynomial([0, 0, 1]), catalog.identity(), [1.0], 8
    )
    assert np.max(np.abs(ref - want)) <= 1e-13


def test_apply_matches_matrix_route_on_ex1():
    _assert_matrix_route_matches(EX1_PSI, EX1_PHI, [1.0, 1.0], 64)


def test_apply_matches_matrix_route_past_order_2085():
    # the circle-sampled route this replaced stopped at N = 2086; past
    # N = 1024 the underflow cut and the valuation rows act on every pair
    for psi, phi in _CUT_PAIRS.values():
        _assert_matrix_route_matches(psi, phi, [1.0, 1.0], 2100)


def test_apply_matches_matrix_route_on_random_polynomials():
    rng = np.random.default_rng(11)
    pairs = [
        (EX1_PSI, EX1_PHI),
        (catalog.polynomial([0.0, 0.0, 1.0]), catalog.phi_rk(0.5, 2.0)),
        (ONE, catalog.phi_r1(0.6)),
        (EX1_PSI, catalog.mobius_auto(0.3 + 0.4j)),
    ]
    for psi, phi in pairs:
        for n in (32, 512):
            m = assemble_matrix(psi, phi, P_HALF, n)
            for _ in range(20):
                deg = int(rng.integers(0, min(n // 4, 24)))
                c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                _assert_matrix_route_matches(psi, phi, c, n, m)


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
