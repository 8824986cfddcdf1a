import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wco import catalog
from wco.errors import ParameterError, PreconditionError
from wco.series import (
    TaylorSeries,
    circle_points,
    derivative,
    dft_coefficient_rows,
    evaluate,
)

# the radius the circle DFT was sized for: its amplification guard admits
# orders up to 2085 there
RADIUS = 0.9


def schoolbook_product(a, b):
    """Independent O(n^2) convolution oracle."""
    n = min(len(a), len(b))
    out = []
    for j in range(n):
        acc = 0j
        for i in range(j + 1):
            acc += a[i] * b[j - i]
        out.append(acc)
    return out


int_coeff = st.complex_numbers(
    min_magnitude=0, max_magnitude=8, allow_infinity=False, allow_nan=False
).map(lambda z: complex(round(z.real), round(z.imag)))
int_poly = st.lists(int_coeff, min_size=1, max_size=9)


# --- truncated products -------------------------------------------------------
# catalog.product convolves the factors' coefficients; this is the product
# every composed symbol of the package goes through.


def truncated_product(a, b, order):
    prod = catalog.product(catalog.polynomial(a), catalog.polynomial(b))
    return prod.coefficients(order)


def test_product_binomial_square():
    assert list(truncated_product([1, 1], [1, 1], 1)) == [1, 2]


def test_product_identity_element():
    f = [3, 1j, -2, 0.5]
    assert list(truncated_product(f, [1], 3)) == f


def test_product_geometric_inverse():
    # (sum 2^-n z^n) * (1 - z/2) telescopes to 1
    prod = truncated_product(0.5 ** np.arange(9), [1, -0.5], 8)
    expected = np.zeros(9)
    expected[0] = 1
    assert np.max(np.abs(prod - expected)) <= 1e-15


@given(int_poly, int_poly)
def test_product_matches_schoolbook_exactly(a, b):
    got = truncated_product(a, b, min(len(a), len(b)) - 1)
    want = schoolbook_product(a, b)
    assert list(got) == want


def test_product_truncates_to_smaller_order():
    assert list(truncated_product([1, 2, 3, 4, 5], [1, 1], 1)) == [1, 3]


# --- derivative -----------------------------------------------------------------


def test_derivative_polynomial():
    assert derivative(TaylorSeries([1, 2, 1])) == TaylorSeries([2, 2])


def test_derivative_of_constant_truncation():
    f = TaylorSeries([7, 0, 0, 0])
    assert derivative(f) == TaylorSeries([0, 0, 0])


def test_derivative_termwise_geometric():
    f = TaylorSeries(0.5 ** np.arange(17))
    d = derivative(f)
    j = np.arange(16)
    assert np.allclose(d.coeffs, (j + 1) * 0.5 ** (j + 1), rtol=0, atol=1e-16)


def test_derivative_order_zero_rejected():
    with pytest.raises(PreconditionError):
        derivative(TaylorSeries([1.0]))


@given(int_poly)
def test_derivative_undoes_antiderivative(coeffs):
    f = TaylorSeries(coeffs)
    n = np.arange(1, f.order + 2)
    back = derivative(TaylorSeries(np.concatenate(([0], f.coeffs / n))))
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-14 * (
        1 + np.max(np.abs(f.coeffs))
    )


# --- evaluate -----------------------------------------------------------------


def test_evaluate_at_zero_gives_constant_term():
    assert evaluate(TaylorSeries([1, 2, 1]), 0.0) == 1.0


def test_evaluate_complex_point():
    assert abs(evaluate(TaylorSeries([1, 2, 1]), 1j) - 2j) <= 1e-15


def test_evaluate_geometric_closed_form():
    f = TaylorSeries(0.5 ** np.arange(65))
    assert abs(evaluate(f, 0.5) - 4.0 / 3.0) <= 1e-12


def test_evaluate_vectorized():
    f = TaylorSeries([1, 1])
    z = np.array([0.0, 0.5, 1j])
    assert np.allclose(evaluate(f, z), 1 + z)


# --- circle DFT -------------------------------------------------------------------


# Z: the 512 sample points on the circle of radius RADIUS
Z = circle_points(RADIUS, 512)


def test_extract_monomial():
    expected = np.zeros(9)
    expected[2] = 1
    assert np.max(np.abs(dft_coefficient_rows(Z**2, RADIUS, 8)[0] - expected)) <= 1e-13


def test_extract_geometric():
    got = dft_coefficient_rows(1.0 / (1.0 - Z / 2.0), RADIUS, 32)[0]
    assert np.max(np.abs(got - 0.5 ** np.arange(33))) <= 1e-10


def test_extract_exponential():
    expected = np.array([1.0 / math.factorial(n) for n in range(17)])
    assert np.max(np.abs(dft_coefficient_rows(np.exp(Z), RADIUS, 16)[0] - expected)) <= 1e-12


def test_extract_rejects_undersampling():
    # 16 samples cannot resolve order 8
    z = circle_points(0.5, 16)
    with pytest.raises(PreconditionError):
        dft_coefficient_rows(z, 0.5, 8)


def test_extract_rejects_amplification_past_order_2085():
    # at radius 0.9, radius**-order may amplify the sample rounding up to
    # order 2085; beyond, fail loudly
    z = circle_points(RADIUS, 8192)
    dft_coefficient_rows(z, RADIUS, 2085)
    with pytest.raises(ParameterError, match="too small for order 2086"):
        dft_coefficient_rows(z, RADIUS, 2086)


@settings(max_examples=30)
@given(int_poly)
def test_extract_roundtrips_polynomials(coeffs):
    f = TaylorSeries(coeffs)
    got = dft_coefficient_rows(evaluate(f, Z), RADIUS, 2 * f.order + 2)[0]
    scale = 1 + np.max(np.abs(f.coeffs))
    assert np.max(np.abs(got[: f.order + 1] - f.coeffs)) <= 1e-12 * scale
    assert np.max(np.abs(got[f.order + 1 :])) <= 1e-11 * scale


@settings(max_examples=20)
@given(int_poly, int_poly, int_coeff, int_coeff)
def test_extract_is_linear(a, b, ca, cb):
    fa = TaylorSeries(a)
    fb = TaylorSeries(b)
    ra, rb, lhs = dft_coefficient_rows(
        [evaluate(fa, Z), evaluate(fb, Z), ca * evaluate(fa, Z) + cb * evaluate(fb, Z)],
        RADIUS,
        8,
    )
    scale = 1 + abs(ca) * np.max(np.abs(ra)) + abs(cb) * np.max(np.abs(rb))
    assert np.max(np.abs(lhs - ca * ra - cb * rb)) <= 1e-12 * scale


def test_small_and_large_dft_paths_agree():
    # the recovered coefficients must not depend on the sample count
    # (64 vs 65536 points on the same circle)
    f = TaylorSeries([1.0, -2.0, 0.5j, 3.0, -1.0 + 1j])
    small, large = (
        dft_coefficient_rows(evaluate(f, circle_points(RADIUS, m)), RADIUS, 8)[0]
        for m in (64, 65536)
    )
    assert np.max(np.abs(small - large)) <= 1e-12


# --- validation -----------------------------------------------------------------


def test_series_rejects_nan():
    with pytest.raises(ParameterError):
        TaylorSeries([1.0, np.nan])


def test_series_coefficients_are_frozen():
    f = TaylorSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0
