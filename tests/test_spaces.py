import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wco import catalog
from wco.errors import ParameterError, PreconditionError
from wco.spaces import (
    BLOCK_POINTS,
    GrowthBoundReport,
    QuadratureGrid,
    SpaceParams,
    _equivalent_norms_sq,
    gauss_jacobi,
    growth_bound_check,
    inner_product,
    kernel_norm_sq,
    kernel_vector,
    norm_sq_coeff,
    norm_sq_quadrature,
)


def basis_element(n, alpha, order):
    coeffs = np.zeros(order + 1, complex)
    coeffs[n] = (n + 1.0) ** ((alpha - 1.0) / 2.0)
    return coeffs


# --- coefficient norms ------------------------------------------------------------


def test_norm_single_monomial():
    p = SpaceParams(0.5)
    assert abs(norm_sq_coeff([0, 1], p) - 2**0.5) <= 1e-15


def test_norm_of_constant_is_one_in_both_spaces():
    for alpha in (-0.5, 0.0, 0.5, 2.0):
        p = SpaceParams(alpha)
        assert norm_sq_coeff([1.0], p) == 1.0


def test_norm_arithmetico_geometric_closed_form():
    p = SpaceParams(0.0)
    f = 0.5 ** np.arange(65)
    # sum (n+1) 4^-n = 16/9
    assert abs(norm_sq_coeff(f, p) - 16.0 / 9.0) <= 1e-12


def test_inner_product_orthogonal_monomials():
    p = SpaceParams(0.3)
    assert inner_product([0, 1], [0, 0, 1], p) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_coefficient_forms_reject_non_finite(bad):
    p = SpaceParams(0.5)
    with pytest.raises(ParameterError, match="must be finite complex numbers"):
        norm_sq_coeff([1.0, bad], p)
    with pytest.raises(ParameterError, match="must be finite complex numbers"):
        inner_product([1.0], [1.0, bad], p)


def test_norms_refuse_squares_past_the_float_range():
    # the coefficient 1e200 is finite but its square is not: both norms
    # refuse it instead of returning inf or raising OverflowError
    p = SpaceParams(0.0)
    with pytest.raises(ParameterError, match="squared norm overflows"):
        norm_sq_coeff([1.0, 1e200], p)
    f = catalog.polynomial([1.0, 1e200])
    with pytest.raises(ParameterError, match="squared norm overflows"):
        norm_sq_quadrature(f, p, QuadratureGrid(4, 8))


def test_basis_is_orthonormal_gram_identity():
    for alpha in (-0.5, 0.0, 0.5):
        p = SpaceParams(alpha)
        basis = [basis_element(n, alpha, 15) for n in range(16)]
        gram = np.array(
            [[inner_product(a, b, p) for b in basis] for a in basis]
        )
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-14


def test_reproducing_inner_product_evaluates():
    p = SpaceParams(0.5)
    w = 0.3 + 0.2j
    f = [1, 1, 1]
    k = kernel_vector(w, p, 8)
    got = inner_product(f, k.coeffs, p)
    assert abs(got - (1 + w + w * w)) <= 1e-14


@settings(max_examples=25)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=9,
    ),
    st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
)
def test_reproducing_property_for_polynomials(coeffs, w):
    p = SpaceParams(0.5)
    k = kernel_vector(w, p, 2 * len(coeffs))
    got = inner_product(coeffs, k.coeffs, p)
    fw = sum(c * w**n for n, c in enumerate(coeffs))
    norm = math.sqrt(norm_sq_coeff(coeffs, p))
    assert abs(got - fw) <= k.tail_bound * norm + 1e-12 * (1 + abs(fw))


# --- kernel vectors ------------------------------------------------------------------


def test_kernel_at_origin():
    k = kernel_vector(0.0, SpaceParams(0.5), 6)
    assert k.tail_bound == 0.0
    assert np.allclose(k.coeffs, [1, 0, 0, 0, 0, 0, 0], atol=0)


def test_kernel_coefficients_formula():
    k = kernel_vector(0.5, SpaceParams(0.0), 4)
    n = np.arange(5)
    assert np.max(np.abs(k.coeffs - 0.5**n / (n + 1))) <= 1e-16


def test_kernel_rejects_boundary_points():
    with pytest.raises(PreconditionError):
        kernel_vector(1.0 - 1e-9, SpaceParams(0.5), 8)


def test_kernel_norm_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    p = SpaceParams(0.5)
    res = kernel_norm_sq(0.9, p, 4096)
    oracle = mp.fsum(
        (n + 1) ** mp.mpf(-0.5) * mp.mpf("0.81") ** n for n in range(4097)
    )
    assert abs(res.partial_sum - float(oracle)) <= 1e-10
    assert res.tail_bound >= 0


def test_kernel_norm_tail_bound_dominates_true_tail():
    p = SpaceParams(0.5)
    res = kernel_norm_sq(0.9, p, 200)
    big = kernel_norm_sq(0.9, p, 20000)
    assert big.partial_sum - res.partial_sum <= res.tail_bound


def test_kernel_norm_alpha_one_geometric_sanity():
    p = SpaceParams(1.0)
    res = kernel_norm_sq(0.7, p, 2000)
    exact = 1.0 / (1.0 - 0.49)
    assert abs(res.partial_sum + res.tail_bound - exact) <= 1e-12 or abs(
        res.partial_sum - exact
    ) <= 1e-12
    assert abs(res.comparison - exact) <= 1e-12  # Gamma(1) = 1


def test_kernel_norm_at_origin():
    res = kernel_norm_sq(0.0, SpaceParams(0.5), 16)
    assert res.partial_sum == 1.0
    assert abs(res.comparison - math.gamma(0.5)) <= 1e-14


def test_kernel_ratio_frozen_oracle_value():
    # independent high-precision summation gives 0.8969495025 for
    # alpha = 0.5, |w| = 0.99; the asymptote is approached only like
    # (1 - |w|^2)**alpha, so nominal nearness to 1 is not assertable here
    res = kernel_norm_sq(0.99, SpaceParams(0.5), 60000)
    assert abs(res.ratio - 0.8969495025) <= 1e-9


def test_kernel_ratio_monotone_toward_one():
    for alpha in (0.25, 0.5, 0.75):
        p = SpaceParams(alpha)
        ratios = []
        for absw in (0.9, 0.99, 0.999):
            order = int(80.0 / (1.0 - absw * absw))
            ratios.append(kernel_norm_sq(absw, p, order).ratio)
        assert ratios[0] < ratios[1] < ratios[2] <= 1.0
        assert abs(ratios[2] - 1) < abs(ratios[0] - 1)


# --- quadrature -----------------------------------------------------------------------


def test_grid_has_unit_mass():
    grid = QuadratureGrid(64, 64)
    ones = np.ones((64, 64))
    assert abs(grid.integrate(ones, 0.0) - 1.0) <= 1e-12


def test_quadrature_norm_of_constant():
    grid = QuadratureGrid(64, 64)
    one = catalog.polynomial([1.0])
    results = norm_sq_quadrature(one, SpaceParams(0.5), grid)
    assert list(results) == ["first_derivative", "second_derivative"]
    for res in results.values():
        assert abs(res.value - 1.0) <= 1e-12


def test_quadrature_identity_function_alpha_zero():
    grid = QuadratureGrid(64, 64)
    f = catalog.identity()
    res = norm_sq_quadrature(f, SpaceParams(0.0), grid)["first_derivative"]
    assert abs(res.value - 1.0) <= 1e-12  # integral of |f'|^2 = 1 over unit-mass disc
    coeff = norm_sq_coeff([0, 1.0], SpaceParams(0.0))
    assert abs(coeff - 2.0) <= 1e-15


def test_quadrature_stable_under_refinement():
    grid = QuadratureGrid(100, 128)
    f = catalog.polynomial([0, 0, 1.0])
    res = norm_sq_quadrature(f, SpaceParams(0.5), grid)["first_derivative"]
    assert not res.too_coarse
    assert res.relative_change <= 0.01


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_norm_equivalence_ratio_window(alpha):
    grid = QuadratureGrid(200, 256)
    p = SpaceParams(alpha)
    cases = [
        (catalog.identity(), [0, 1.0]),
        (catalog.polynomial([0, 0, 1.0]), [0, 0, 1.0]),
        (catalog.polynomial([1, 1, 1.0]), [1, 1, 1.0]),
    ]
    for func, series in cases:
        res = norm_sq_quadrature(func, p, grid)["first_derivative"]
        ratio = res.value / norm_sq_coeff(series, p)
        assert 0.1 <= ratio <= 10.0, (func.label, alpha, ratio)
        assert res.relative_change <= 0.02


def test_second_derivative_variant_for_quadratic():
    # |f(0)|^2 + |f'(0)|^2 + int |2|^2 (1-|z|^2)^{alpha+2} dA at alpha = 0:
    # the weighted disc mass of (1-r^2)^2 is 1/3
    grid = QuadratureGrid(128, 128)
    f = catalog.polynomial([0, 0, 1.0])
    res = norm_sq_quadrature(f, SpaceParams(0.0), grid)["second_derivative"]
    assert abs(res.value - 4.0 / 3.0) <= 1e-10


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 0.9])
def test_quadrature_exact_for_z_squared(alpha):
    # int |2z|^2 (1-|z|^2)^alpha dA = 4 B(2, alpha+1); the Gauss-Jacobi
    # rule in t = r^2 is exact for it on the default grid
    res = norm_sq_quadrature(
        catalog.polynomial([0, 0, 1.0]), SpaceParams(alpha), QuadratureGrid()
    )
    want = 4.0 / ((alpha + 1.0) * (alpha + 2.0))
    assert abs(res["first_derivative"].value - want) <= 1e-12
    assert abs(res["second_derivative"].value - 4.0 / (alpha + 3.0)) <= 1e-12


# 25 x 512 and its refinement are the norm-check defaults; 25 x 600 leaves a
# one-row last block, 9 x 3000 has rows above the cap
ROW_BLOCK_GRIDS = [
    QuadratureGrid(),
    QuadratureGrid().refined(),
    QuadratureGrid(25, 600),
    QuadratureGrid(9, 3000),
]


@pytest.mark.parametrize("grid", ROW_BLOCK_GRIDS, ids=lambda g: "%dx%d" % (
    g.radial_count, g.angular_count))
def test_point_blocks_are_the_rows_of_points(grid):
    full = grid.points()
    start = 0
    for rows, z in grid.point_blocks():
        assert rows.start == start
        assert z.size <= BLOCK_POINTS or z.shape[0] == 1
        assert np.array_equal(z, full[rows])
        start = rows.stop
    assert start == grid.radial_count


@pytest.mark.parametrize("grid", ROW_BLOCK_GRIDS, ids=lambda g: "%dx%d" % (
    g.radial_count, g.angular_count))
@pytest.mark.parametrize("spec", ["psi_power:beta=2.5", "phi_rk:r=0.5,k=2"])
@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_row_blocked_norms_equal_full_grid_integrals(grid, spec, alpha):
    f = catalog.from_spec(spec)
    grid = grid.for_weight(alpha)
    jet0 = f.jet(0.0)
    jets = f.jet(grid.points())
    got = _equivalent_norms_sq(f, jet0, SpaceParams(alpha), grid)
    assert got["first_derivative"] == abs(jet0.v) ** 2 + grid.integrate(
        np.abs(jets.d1) ** 2, alpha
    )
    assert got["second_derivative"] == abs(jet0.v) ** 2 + abs(jet0.d1) ** 2 + (
        grid.integrate(np.abs(jets.d2) ** 2, alpha + 2.0)
    )


def _beta(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@pytest.mark.parametrize("spec", ["psi_power:beta=2.5", "mobius_self_map:lambda=0.6"])
@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_quadrature_matches_coefficient_sum(spec, alpha):
    # |a_0|^2 + sum_{n>=1} n^2 |a_n|^2 B(n, alpha+1) from exact coefficients
    f = catalog.from_spec(spec)
    a = np.abs(f.coefficients(4095))
    want = a[0] ** 2 + math.fsum(
        n * n * a[n] ** 2 * _beta(n, alpha + 1.0) for n in range(1, a.size)
    )
    res = norm_sq_quadrature(f, SpaceParams(alpha), QuadratureGrid())
    for r in res.values():
        assert not r.too_coarse
    assert abs(res["first_derivative"].value - want) <= 1e-10 * want


def test_gauss_jacobi_rule_integrates_beta_moments():
    # int_0^1 t^m (1-t)^alpha dt = B(m+1, alpha+1), exact up to degree 2n-1
    for alpha in (-0.5, 0.0, 0.9):
        t, w = gauss_jacobi(25, alpha)
        assert np.all((0.0 < t) & (t < 1.0))
        for m in range(50):
            want = _beta(m + 1.0, alpha + 1.0)
            assert abs(np.sum(w * t**m) - want) <= 1e-13 * want


# --- growth bound -----------------------------------------------------------------------


def test_growth_bound_constant_function():
    rep = growth_bound_check(catalog.polynomial([3.0]), QuadratureGrid(32, 32))
    assert rep.sup_factor == 0.0
    assert rep.max_violation <= 0.0
    assert rep.holds


def test_growth_bound_for_logarithm():
    # f = -log(1-z): |f'|(1-|z|^2) = (1-|z|^2)/|1-z| <= 2, and the
    # inequality must hold out to radii beyond 1 - 2^-14
    f = catalog.custom(
        "neglog1m",
        lambda z: -np.log(1 - z),
        lambda z: 1.0 / (1 - z),
        lambda z: 1.0 / (1 - z) ** 2,
    )
    grid = QuadratureGrid(400, 256)
    assert grid.radial_nodes.max() > 1 - 2.0**-14
    rep = growth_bound_check(f, grid)
    assert rep.sup_factor <= 2.0 + 1e-12
    assert rep.holds


def test_growth_bound_power_weight_and_decay():
    grid = QuadratureGrid(200, 128)
    rep = growth_bound_check(catalog.psi_power(2.5), grid)
    assert rep.holds
    # (1-|z|^2)**0.1 |f| tends to zero at the boundary since f is bounded;
    # |f| itself grows toward 2**2.5, so the product peaks near r = 0.93 and
    # is strictly decreasing from there on
    damped = (1 - rep.radii**2) ** 0.1 * rep.max_abs_per_radius
    peak = int(np.argmax(damped))
    assert rep.radii[peak] < 0.95
    assert np.all(np.diff(damped[peak:]) < 0)
    assert damped[-1] < 0.6 * np.max(damped)


def test_growth_report_type():
    rep = growth_bound_check(catalog.identity(), QuadratureGrid(16, 16))
    assert isinstance(rep, GrowthBoundReport)


# --- parameters ---------------------------------------------------------------------------


def test_space_params_range():
    with pytest.raises(ParameterError):
        SpaceParams(-1.0)
    SpaceParams(2.0)  # Bergman-side helper range is admitted
    with pytest.raises(ParameterError):
        SpaceParams(2.0).require_core()
