import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wco.catalog import (
    MobiusAutomorphism,
    affine,
    conjugate_to_origin,
    factor_tau,
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
    univalence_grid_check,
)
from wco.criteria import AnnularGrid, self_map_grid_max
from wco.errors import ParameterError, PreconditionError

GRID = AnnularGrid(m_max=12, t_base=128)

CATALOG_SELF_MAPS = [
    mobius_self_map(0.5),
    mobius_self_map(0.8),
    phi_r1(0.5),
    phi_rk(0.5, 2.0),
    phi_rk(0.3, 1.5),
    affine(0.25, 0.5),
    polynomial([0.5, 0, 0.5]),
    mobius_auto(0.4 + 0.2j),
    identity(),
]

CATALOG_WEIGHTS = [psi_power(2.5), psi_power(1.5), polynomial([2, 1]), polynomial([1])]


def disc_points(n=40, cap=0.9, seed=7):
    rng = np.random.default_rng(seed)
    r = cap * np.sqrt(rng.random(n))
    th = 2 * np.pi * rng.random(n)
    return r * np.exp(1j * th)


# --- constructors ----------------------------------------------------------------


# Each family with its closed form in mpmath (``m``), with real and complex
# parameters where the family takes both.
TAYLOR_CASES = [
    (psi_power(2.5), lambda m, z: (1 - z) ** m.mpf(2.5)),
    (psi_power(0.7), lambda m, z: (1 - z) ** m.mpf(0.7)),
    (mobius_self_map(0.5), lambda m, z: m.mpf(0.5) * z / (1 - m.mpf(0.5) * z)),
    (mobius_self_map(0.8), lambda m, z: m.mpf(0.8) * z / (1 - m.mpf(0.2) * z)),
    (phi_rk(0.5, 2.0), lambda m, z: m.exp((z * (m.mpf(0.5) * 2 - 1) + (m.mpf(0.5) - 2))
                                        / (1 - m.mpf(0.5) * z))),
    (phi_rk(0.3, 1.5), lambda m, z: m.exp((z * (m.mpf(0.3) * m.mpf(1.5) - 1)
                                           + (m.mpf(0.3) - m.mpf(1.5)))
                                          / (1 - m.mpf(0.3) * z))),
    (phi_r1(0.6), lambda m, z: m.exp((1 - m.mpf(0.6)) * (z + 1) / (m.mpf(0.6) * z - 1))),
    (polynomial([0.5, 0, 0.5]), lambda m, z: m.mpf(0.5) + m.mpf(0.5) * z**2),
    (polynomial([0.25 + 0.5j, -0.125j, 0.375]),
     lambda m, z: m.mpc(0.25, 0.5) + m.mpc(0, -0.125) * z + m.mpf(0.375) * z**2),
    (affine(0.25, 0.5), lambda m, z: m.mpf(0.25) + m.mpf(0.5) * z),
    (affine(0.1j, 0.5 + 0.25j), lambda m, z: m.mpc(0, 0.1) + m.mpc(0.5, 0.25) * z),
    (identity(), lambda m, z: z),
    (mobius_auto(0.3), lambda m, z: (m.mpf(0.3) - z) / (1 - m.mpf(0.3) * z)),
    (mobius_auto(0.4 + 0.2j),
     lambda m, z: (m.mpc(0.4, 0.2) - z) / (1 - m.mpc(0.4, -0.2) * z)),
]


def _mp_taylor(closed, center, order=40):
    """Taylor coefficients of ``closed`` about ``center`` in 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        c = mpmath.mpmathify(center)
        return np.array(
            [complex(v) for v in mpmath.taylor(lambda z: closed(mpmath, z), c, order)]
        )


def _about(center, order=40):
    """Coefficients of ``center + w``: composing with them recentres."""
    g = np.zeros(order + 1, dtype=np.result_type(center))
    g[0], g[1] = center, 1.0
    return g


def _assert_taylor(got, want):
    real = not np.any(want.imag)
    assert got.dtype == (np.float64 if real else np.complex128)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("f,closed", TAYLOR_CASES, ids=[f.label for f, _ in TAYLOR_CASES])
def test_taylor_matches_closed_form(f, closed):
    # about the origin through taylor, about a real and a complex centre
    # through compose; real parameters and a real centre give float64
    _assert_taylor(f.taylor(40), _mp_taylor(closed, 0.0))
    for center in (-0.4, 0.3 - 0.2j):
        _assert_taylor(f.compose(_about(center)), _mp_taylor(closed, center))


def test_taylor_of_compositions_products_and_tau():
    ex1_psi = lambda m, z: (1 - z) ** m.mpf(2.5)
    ex1_phi = lambda m, z: m.mpf(0.5) * z / (1 - m.mpf(0.5) * z)
    exx2_phi = lambda m, z: m.exp(-m.mpf(1.5) / (1 - m.mpf(0.5) * z))
    auto_mp = lambda m, z: (m.mpc(0.4, 0.2) - z) / (1 - m.mpc(0.4, -0.2) * z)
    r1_mp = lambda m, z: m.exp((1 - m.mpf(0.6)) * (z + 1) / (m.mpf(0.6) * z - 1))
    phi = mobius_self_map(0.5)
    auto = mobius_auto(0.4 + 0.2j)
    cases = [
        (jet_compose(psi_power(2.5), phi), lambda m, z: ex1_psi(m, ex1_phi(m, z))),
        (jet_compose(psi_power(2.5), auto), lambda m, z: ex1_psi(m, auto_mp(m, z))),
        (jet_compose(phi_rk(0.5, 2.0), auto), lambda m, z: exx2_phi(m, auto_mp(m, z))),
        (jet_compose(auto, phi_r1(0.6)), lambda m, z: auto_mp(m, r1_mp(m, z))),
        (jet_compose(polynomial([0.5, 0, 0.5]), auto),
         lambda m, z: m.mpf(0.5) + m.mpf(0.5) * auto_mp(m, z) ** 2),
        (product(psi_power(2.5), phi), lambda m, z: ex1_psi(m, z) * ex1_phi(m, z)),
    ]
    for f, closed in cases:
        _assert_taylor(f.taylor(40), _mp_taylor(closed, 0.0))
        _assert_taylor(f.compose(_about(0.3 - 0.2j)), _mp_taylor(closed, 0.3 - 0.2j))
    tau = factor_tau(phi)
    tau_mp = lambda m, z: m.mpf(0.5) / (1 - m.mpf(0.5) * z)
    _assert_taylor(tau.taylor(40), _mp_taylor(tau_mp, 0.0))
    assert tau.compose is None and jet_compose(tau, phi).taylor is None
    # both conjugates of exx2 at its fixed point; eta fixes 0 exactly
    exx2 = phi_rk(0.5, 2.0)
    a = find_fixed_point(exx2)
    zeta, eta = conjugate_to_origin(polynomial([0, 0, 1]), exx2, a)
    inv = lambda m, z: (m.mpmathify(a) - z) / (1 - m.mpmathify(a).conjugate() * z)
    _assert_taylor(zeta.taylor(40), _mp_taylor(lambda m, z: inv(m, z) ** 2, 0.0))
    want = _mp_taylor(lambda m, z: inv(m, exx2_phi(m, inv(m, z))), 0.0)
    got = eta.taylor(40)
    assert got[0] == 0.0 and abs(want[0]) <= 1e-14  # the residual of a
    _assert_taylor(got[1:], want[1:])
    assert eta.coefficients(64)[0] == 0.0


def test_composition_stays_accurate_at_high_order():
    # (1-z)**2.5 composed with the automorphism swapping 0 and a is
    # (1-a)**2.5 (1+z)**2.5 (1-a z)**-2.5: a product of two binomial series.
    # Summing the series of (1-z)**2.5 about a over powers of the
    # automorphism minus a would leave coefficient 255 off by about 3e11.
    mpmath = pytest.importorskip("mpmath")
    a, n = 0.19053, 256
    with mpmath.workdps(40):
        x = [mpmath.binomial(2.5, j) for j in range(n)]
        y = [mpmath.binomial(-2.5, j) * (-mpmath.mpf(a)) ** j for j in range(n)]
        scale = (1 - mpmath.mpf(a)) ** 2.5
        want = np.array(
            [float(scale * mpmath.fsum(x[i] * y[j - i] for i in range(j + 1)))
             for j in range(n)]
        )
    got = jet_compose(psi_power(2.5), mobius_auto(a)).taylor(n - 1)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_mobius_self_map_jet_at_origin():
    jet = mobius_self_map(0.5).jet(0.0)
    assert jet.v == 0
    assert abs(jet.d1 - 0.5) <= 1e-15
    assert abs(jet.d2 - 0.5) <= 1e-15  # 2*lam*(1-lam)


def test_psi_power_jet_at_origin():
    jet = psi_power(2.5).jet(0.0)
    assert abs(jet.v - 1) <= 1e-15
    assert abs(jet.d1 + 2.5) <= 1e-15
    assert abs(jet.d2 - 3.75) <= 1e-15


def test_mobius_auto_at_zero_parameter_is_negation():
    f = mobius_auto(0.0)
    z = disc_points(20)
    jet = f.jet(z)
    assert np.max(np.abs(jet.v + z)) <= 1e-15
    assert np.max(np.abs(jet.d1 + 1)) <= 1e-15
    assert np.max(np.abs(jet.d2)) <= 1e-15


@pytest.mark.parametrize(
    "build",
    [
        lambda: mobius_self_map(0.4),
        lambda: mobius_self_map(1.0),
        lambda: phi_r1(0.0),
        lambda: phi_rk(0.5, 1.0),
        lambda: psi_power(0.0),
        lambda: mobius_auto(1.0),
        lambda: polynomial([]),
    ],
)
def test_parameter_ranges_enforced(build):
    with pytest.raises(ParameterError):
        build()


def test_self_map_metadata_verified_on_grid():
    for f in CATALOG_SELF_MAPS:
        assert self_map_grid_max(f, GRID) <= 1.0 + 1e-9, f.label


def test_known_fixed_points_are_fixed():
    for f in CATALOG_SELF_MAPS:
        if f.known_fixed_point is not None:
            a = f.known_fixed_point
            assert abs(f.value(a) - a) <= 1e-10, f.label


# --- composition -----------------------------------------------------------------


def test_compose_square_with_affine():
    jet = jet_compose(polynomial([0, 0, 1]), affine(0.25, 0.5)).jet(0.0)
    assert abs(jet.v - 0.0625) <= 1e-15
    assert abs(jet.d1 - 0.25) <= 1e-15
    assert abs(jet.d2 - 0.5) <= 1e-15


def test_compose_with_identity_is_identity_law():
    f = psi_power(2.5)
    g = jet_compose(f, identity())
    z = disc_points(30)
    assert np.max(np.abs(g.jet(z).v - f.jet(z).v)) <= 1e-15


def test_compose_evaluates_psi_at_mobius_image():
    zeta = jet_compose(polynomial([0, 0, 1]), mobius_auto(0.5))
    assert abs(zeta.value(0.0) - 0.25) <= 1e-14  # phi_a(0) = a, then squared


def test_compose_requires_self_map_inner():
    with pytest.raises(PreconditionError):
        jet_compose(identity(), psi_power(2.5))


# --- conjugation ------------------------------------------------------------------


def test_conjugate_affine_to_origin():
    zeta, eta = conjugate_to_origin(polynomial([0, 0, 1]), affine(0.25, 0.5), 0.5)
    assert abs(zeta.value(0.0) - 0.25) <= 1e-10
    assert abs(eta.value(0.0)) <= 1e-10
    assert abs(eta.jet(0.0).d1 - 0.5) <= 1e-10


def test_conjugate_at_origin_is_negation_conjugacy():
    phi = mobius_self_map(0.5)
    psi = psi_power(2.5)
    zeta, eta = conjugate_to_origin(psi, phi, 0.0)
    z = disc_points(25)
    assert np.max(np.abs(eta.jet(z).v + phi.jet(-z).v)) <= 1e-14
    assert abs(eta.jet(0.0).d1 - phi.jet(0.0).d1) <= 1e-12


def test_conjugate_ex1_derivative_matches_multiplier():
    # the spectrum {0.5^n} of the worked example pins phi'(0) = 0.5
    zeta, eta = conjugate_to_origin(psi_power(2.5), mobius_self_map(0.5), 0.0)
    assert abs(eta.jet(0.0).d1 - 0.5) <= 1e-12


def test_conjugate_rejects_non_fixed_point():
    with pytest.raises(PreconditionError):
        conjugate_to_origin(psi_power(2.5), mobius_self_map(0.5), 0.3)


# --- tau factorization -------------------------------------------------------------


def test_tau_of_linear_map_is_constant():
    tau = factor_tau(affine(0.0, 0.5))
    z = np.concatenate([disc_points(20), [0.0, 1e-5, 1e-5j]])
    assert np.max(np.abs(tau.jet(z).v - 0.5)) <= 1e-12


def test_tau_of_square_is_identity():
    tau = factor_tau(polynomial([0, 0, 1]))
    z = np.concatenate([disc_points(20), [0.0, 5e-5]])
    jet = tau.jet(z)
    assert np.max(np.abs(jet.v - z)) <= 1e-12
    assert np.max(np.abs(jet.d1 - 1)) <= 1e-10


def test_tau_of_ex1_map():
    tau = factor_tau(mobius_self_map(0.5))
    z = np.concatenate([disc_points(20, cap=0.8), [0.0, 1e-6, -3e-5]])
    expected = 0.5 / (1 - 0.5 * z)
    assert np.max(np.abs(tau.jet(z).v - expected)) <= 1e-10
    assert abs(tau.value(0.0) - 0.5) <= 1e-12


def test_tau_times_z_reproduces_phi_jets():
    for phi in (mobius_self_map(0.5), polynomial([0, 0, 1]), affine(0, 0.7)):
        back = product(identity(), factor_tau(phi))
        z = np.concatenate([disc_points(25, cap=0.85), [1e-5, 0.0]])
        got, want = back.jet(z), phi.jet(z)
        assert np.max(np.abs(got.v - want.v)) <= 1e-10, phi.label
        assert np.max(np.abs(got.d1 - want.d1)) <= 1e-10, phi.label
        assert np.max(np.abs(got.d2 - want.d2)) <= 1e-9, phi.label


def test_tau_requires_vanishing_at_origin():
    with pytest.raises(PreconditionError, match="phi\\(0\\)"):
        factor_tau(affine(0.25, 0.5))


# --- fixed points -------------------------------------------------------------------


def test_fixed_point_of_affine():
    a = find_fixed_point(affine(0.25, 0.5))
    assert abs(a - 0.5) <= 1e-12


def test_fixed_point_of_ex1_family_is_origin():
    for lam in (0.5, 0.7, 0.9):
        assert abs(find_fixed_point(mobius_self_map(lam))) <= 1e-12


def test_parabolic_map_has_no_interior_fixed_point():
    assert find_fixed_point(polynomial([0.5, 0, 0.5])) is None


def test_fixed_point_of_exp_lft_family():
    phi = phi_rk(0.5, 2.0)
    a = find_fixed_point(phi)
    assert a is not None and abs(phi.value(a) - a) <= 1e-12


def test_fixed_point_multiplier_in_unit_interval_for_univalent_maps():
    for f in CATALOG_SELF_MAPS:
        if not f.claims_univalent:
            continue
        try:
            a = find_fixed_point(f)
        except PreconditionError:
            continue
        if a is None:
            continue
        mult = abs(f.jet(a).d1)
        assert 0 < mult <= 1 + 1e-12, f.label


def test_fixed_point_requires_self_map():
    with pytest.raises(PreconditionError):
        find_fixed_point(psi_power(2.5))


def test_fixed_point_of_elliptic_automorphism_via_newton_probe():
    # the orbit of 0 under an involution oscillates forever; the periodic
    # Newton probe still lands on the interior elliptic fixed point
    f = mobius_auto(0.5)
    a = find_fixed_point(f)
    assert a is not None
    assert abs(f.value(a) - a) <= 1e-12
    assert abs(a - f.known_fixed_point) <= 1e-9
    assert abs(a - (1 - np.sqrt(0.75)) / 0.5) <= 1e-12


def test_automorphism_fixed_point_for_small_parameters():
    # the fixed point of (a - z)/(1 - conj(a) z) is a/2 + O(|a|^3) near a = 0
    for a in (1e-9, 1e-200, 1e-9j):
        got = MobiusAutomorphism(a).interior_fixed_point()
        assert abs(got - a / 2) <= 1e-15 * abs(a / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = MobiusAutomorphism(1e-310).interior_fixed_point()
    assert tiny == 1e-310 / 2
    ref = (1 - np.sqrt(1 - 0.3**2)) / 0.3
    assert abs(MobiusAutomorphism(0.3).interior_fixed_point() - ref) <= 1e-15


# --- invariants ----------------------------------------------------------------------


def test_schwarz_pick_quotient_bound():
    for f in CATALOG_SELF_MAPS:
        bound = (1 + abs(f.value(0.0))) / (1 - abs(f.value(0.0)))
        for m in GRID.levels():
            z = GRID.points(m)
            fv = f.jet(z).v
            quotient = GRID.one_minus_r(m) / (1 - np.abs(fv))
            assert np.max(quotient) <= bound + 1e-9, f.label


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
)
def test_automorphism_identity_and_involution(a, z):
    auto = MobiusAutomorphism(a)
    jet = auto.as_function().jet(z)
    lhs = (1 - abs(z) ** 2) * abs(jet.d1)
    rhs = 1 - abs(jet.v) ** 2
    assert abs(lhs - rhs) <= 1e-12
    assert abs(auto(auto(z)) - z) <= 1e-12


def test_jets_agree_with_central_differences():
    h = 1e-5
    pts = disc_points(60, cap=0.9, seed=3)
    for f in CATALOG_SELF_MAPS + CATALOG_WEIGHTS:
        jet = f.jet(pts)
        vp, vm = f.value(pts + h), f.value(pts - h)
        vip, vim = f.value(pts + 1j * h), f.value(pts - 1j * h)
        fd1 = (vp - vm) / (2 * h)
        fd2 = (vp + vm - vip - vim) / (2 * h * h)
        # the difference quotient carries an eps*|f|/h^2 rounding floor
        noise1 = 16 * 2.2e-16 * np.abs(jet.v) / (2 * h)
        noise2 = 16 * 2.2e-16 * np.abs(jet.v) / (h * h)
        assert np.all(
            np.abs(fd1 - jet.d1) <= 1e-6 * np.abs(jet.d1) + noise1 + 1e-12
        ), f.label
        assert np.all(
            np.abs(fd2 - jet.d2) <= 1e-6 * np.abs(jet.d2) + noise2 + 1e-12
        ), f.label


def test_univalence_probe_separates_families():
    assert univalence_grid_check(mobius_self_map(0.5))
    assert not univalence_grid_check(polynomial([0.5, 0, 0.5]))  # even map


# --- spec strings -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,label",
    [
        ("phi_rk:r=0.5,k=2", "phi_rk:k=2.0,r=0.5"),
        ("phi_rk:k=2,r=0.5", "phi_rk:k=2.0,r=0.5"),
        ("psi_power:beta=2.5", "psi_power:beta=2.5"),
        ("mobius_self_map:lambda=0.5", "mobius_self_map:lambda=0.5"),
        ("polynomial:2,1", "polynomial:2.0,1.0"),
        ("identity", "identity"),
    ],
)
def test_spec_parsing_canonical_labels(text, label):
    assert from_spec(text).label == label


def test_spec_labels_roundtrip():
    for f in CATALOG_SELF_MAPS + CATALOG_WEIGHTS:
        again = from_spec(f.label)
        z = disc_points(10)
        assert np.max(np.abs(again.jet(z).v - f.jet(z).v)) <= 1e-15


def test_complex_parameter_label_roundtrip():
    f = mobius_auto(0.3 - 0.2j)
    assert "a=0.3-0.2i" in f.label
    again = from_spec(f.label)
    z = disc_points(10)
    assert np.max(np.abs(again.jet(z).v - f.jet(z).v)) <= 1e-15


def test_spec_parse_values_used():
    f = from_spec("polynomial:2,1")
    assert f.value(0.0) == 2.0
    assert f.jet(0.0).d1 == 1.0


@pytest.mark.parametrize(
    "bad",
    ["", "unknown_family:x=1", "phi_rk:r=0.5", "phi_rk:r=0.5,k=2,k=3",
     "mobius_self_map:lambda=1.0", "polynomial:", "psi_power:beta=abc"],
)
def test_spec_parse_rejects_malformed(bad):
    with pytest.raises(ParameterError):
        from_spec(bad)
