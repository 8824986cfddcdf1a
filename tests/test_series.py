import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wco.errors import ParameterError, PreconditionError
from wco.series import (
    SAMPLE_RADIUS,
    TaylorSeries,
    antiderivative,
    cauchy_product,
    circle_points,
    derivative,
    dft_coefficient_rows,
    evaluate,
    extract_coeffs,
    sample_count,
)


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


# --- cauchy_product ---------------------------------------------------------


def test_product_binomial_square():
    f = TaylorSeries([1, 1])
    assert cauchy_product(f, f) == TaylorSeries([1, 2])


def test_product_identity_element():
    f = TaylorSeries([3, 1j, -2, 0.5])
    one = TaylorSeries([1, 0, 0, 0])
    assert cauchy_product(f, one) == f


def test_product_geometric_inverse():
    # (sum 2^-n z^n) * (1 - z/2) telescopes to 1
    f = TaylorSeries(0.5 ** np.arange(9))
    g = TaylorSeries([1, -0.5] + [0] * 7)
    prod = cauchy_product(f, g)
    expected = np.zeros(9, complex)
    expected[0] = 1
    assert np.max(np.abs(prod.coeffs - expected)) <= 1e-15


@given(int_poly, int_poly)
def test_product_matches_schoolbook_exactly(a, b):
    got = cauchy_product(TaylorSeries(a), TaylorSeries(b))
    want = schoolbook_product(a, b)
    assert list(got.coeffs) == want


def test_product_truncates_to_smaller_order():
    f = TaylorSeries([1, 2, 3, 4, 5])
    g = TaylorSeries([1, 1])
    assert cauchy_product(f, g).order == 1


# --- derivative / antiderivative ---------------------------------------------


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
    back = derivative(antiderivative(f))
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


# --- extraction ----------------------------------------------------------------


def test_extract_monomial():
    series, est = extract_coeffs(lambda z: z**2, 8)
    expected = np.zeros(9)
    expected[2] = 1
    assert np.max(np.abs(series.coeffs - expected)) <= 1e-13


def test_extract_geometric():
    series, _ = extract_coeffs(lambda z: 1.0 / (1.0 - z / 2.0), 32)
    assert np.max(np.abs(series.coeffs - 0.5 ** np.arange(33))) <= 1e-10


def test_extract_exponential():
    series, _ = extract_coeffs(np.exp, 16)
    expected = np.array([1.0 / math.factorial(n) for n in range(17)])
    assert np.max(np.abs(series.coeffs - expected)) <= 1e-12


def test_extract_reports_aliasing_estimate():
    _, est = extract_coeffs(lambda z: 1.0 / (1.0 - 0.9 * z), 16)
    assert est > 1e-6  # geometric tail at 0.9 leaves visible top-quarter mass


def test_extract_rejects_nonfinite_samples():
    with pytest.raises(PreconditionError, match="not analytic"):
        extract_coeffs(lambda z: np.full_like(z, np.nan), 8)


def test_extract_rejects_undersampling():
    # 16 samples cannot resolve order 8; extract_coeffs sizes its own circle
    # (sample_count), so only the DFT step can be handed too few samples
    z = circle_points(0.5, 16)
    with pytest.raises(PreconditionError):
        dft_coefficient_rows(z, 0.5, 8)


def test_sample_count_is_a_power_of_two_covering_four_times_the_order():
    assert [sample_count(n) for n in (0, 8, 126, 127, 2085)] == [
        512, 512, 512, 1024, 16384
    ]


def test_extract_rejects_amplification_past_order_2085():
    # at radius 0.9, radius**-order may amplify the sample rounding up to
    # order 2085 (N = 2086 truncations); beyond, fail loudly
    extract_coeffs(lambda z: z, 2085)
    with pytest.raises(ParameterError, match="too small for order 2086"):
        extract_coeffs(lambda z: z, 2086)


@settings(max_examples=30)
@given(int_poly)
def test_extract_roundtrips_polynomials(coeffs):
    f = TaylorSeries(coeffs)
    order = 2 * f.order + 2
    got, est = extract_coeffs(lambda z: evaluate(f, z), order)
    scale = 1 + np.max(np.abs(f.coeffs))
    assert np.max(np.abs(got.coeffs[: f.order + 1] - f.coeffs)) <= max(
        est, 1e-12
    ) + 1e-12 * scale
    assert np.max(np.abs(got.coeffs[f.order + 1 :])) <= max(est, 1e-11 * scale)


@settings(max_examples=20)
@given(int_poly, int_poly, int_coeff, int_coeff)
def test_extract_is_linear(a, b, ca, cb):
    fa = TaylorSeries(a)
    fb = TaylorSeries(b)
    lhs, _ = extract_coeffs(
        lambda z: ca * evaluate(fa, z) + cb * evaluate(fb, z), 8
    )
    ra, _ = extract_coeffs(lambda z: evaluate(fa, z), 8)
    rb, _ = extract_coeffs(lambda z: evaluate(fb, z), 8)
    scale = 1 + abs(ca) * np.max(np.abs(ra.coeffs)) + abs(cb) * np.max(np.abs(rb.coeffs))
    assert np.max(np.abs(lhs.coeffs - ca * ra.coeffs - cb * rb.coeffs)) <= 1e-12 * scale


# --- validation -----------------------------------------------------------------


def test_small_and_large_dft_paths_agree():
    # the recovered coefficients must not depend on the sample count
    # (64 vs 65536 points on the same circle)
    f = TaylorSeries([1.0, -2.0, 0.5j, 3.0, -1.0 + 1j])
    small, large = (
        dft_coefficient_rows(
            evaluate(f, circle_points(SAMPLE_RADIUS, m)), SAMPLE_RADIUS, 8
        )[0]
        for m in (64, 65536)
    )
    assert np.max(np.abs(small - large)) <= 1e-12


def test_series_rejects_nan():
    with pytest.raises(ParameterError):
        TaylorSeries([1.0, np.nan])


def test_series_coefficients_are_frozen():
    f = TaylorSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0
