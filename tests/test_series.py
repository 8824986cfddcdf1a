import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from wco.errors import ParameterError, PreconditionError
from wco.series import circle_points, dft_coefficient_rows, finite_coefficients

# the radius the circle DFT was sized for: its amplification guard admits
# orders up to 2085 there
RADIUS = 0.9

int_coeff = st.complex_numbers(
    min_magnitude=0, max_magnitude=8, allow_infinity=False, allow_nan=False
).map(lambda z: complex(round(z.real), round(z.imag)))
int_poly = st.lists(int_coeff, min_size=1, max_size=9)


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
    f = np.asarray(coeffs, dtype=np.complex128)
    got = dft_coefficient_rows(polyval(Z, f), RADIUS, 2 * f.size)[0]
    scale = 1 + np.max(np.abs(f))
    assert np.max(np.abs(got[: f.size] - f)) <= 1e-12 * scale
    assert np.max(np.abs(got[f.size :])) <= 1e-11 * scale


@settings(max_examples=20)
@given(int_poly, int_poly, int_coeff, int_coeff)
def test_extract_is_linear(a, b, ca, cb):
    fa = np.asarray(a, dtype=np.complex128)
    fb = np.asarray(b, dtype=np.complex128)
    ra, rb, lhs = dft_coefficient_rows(
        [polyval(Z, fa), polyval(Z, fb), ca * polyval(Z, fa) + cb * polyval(Z, fb)],
        RADIUS,
        8,
    )
    scale = 1 + abs(ca) * np.max(np.abs(ra)) + abs(cb) * np.max(np.abs(rb))
    assert np.max(np.abs(lhs - ca * ra - cb * rb)) <= 1e-12 * scale


def test_small_and_large_dft_paths_agree():
    # the recovered coefficients must not depend on the sample count
    # (64 vs 65536 points on the same circle)
    f = np.array([1.0, -2.0, 0.5j, 3.0, -1.0 + 1j])
    small, large = (
        dft_coefficient_rows(polyval(circle_points(RADIUS, m), f), RADIUS, 8)[0]
        for m in (64, 65536)
    )
    assert np.max(np.abs(small - large)) <= 1e-12


# --- coefficient arrays -----------------------------------------------------------


def test_series_rejects_nan():
    with pytest.raises(ParameterError, match="must be finite complex numbers"):
        finite_coefficients([1.0, np.nan])
    assert finite_coefficients([1, 2j]).dtype == np.complex128
