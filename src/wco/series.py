"""Coefficient arrays and the circle DFT.

Every coefficient the package uses is a plain array whose entry ``n``
multiplies ``z**n``, and it is exact (``AnalyticFunction.coefficients``).
:func:`finite_coefficients` is the one check such an array gets before a
norm or inner product reads it.  No program path samples a circle to get
coefficients: :func:`dft_coefficient_rows`, which recovers them from
samples at :func:`circle_points`, and its amplification guard have no
caller in the package and stay only because the benchmark's tracer hooks
them by name.  The one program user of :func:`circle_points` is
``spectral.schroder_residual``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, PreconditionError

# radius**(-order) amplifies the rounding of circle samples; beyond e**219.7
# (about 1e95) the recovered coefficients are noise.
_LOG_AMPLIFICATION_LIMIT = 219.7


def finite_coefficients(c) -> np.ndarray:
    """``c`` as a complex coefficient array; :class:`ParameterError` on a
    non-finite entry (a user-supplied family such as
    ``psi_power:beta=1e300`` overflows)."""
    c = np.asarray(c, dtype=np.complex128)
    if not np.all(np.isfinite(c)):
        raise ParameterError("coefficients must be finite complex numbers")
    return c


def _root_table(count: int) -> np.ndarray:
    """``exp(-2*pi*1j*k/count)`` for ``k < count`` with octant-exact angles.

    The fraction ``2k/count`` is dyadic-exact for power-of-two counts, so after
    quadrant reduction the only rounding left is one multiply by pi and the
    libm sin/cos; the sample points of :func:`circle_points` are therefore
    exact on the axes and symmetric under the quarter turns.
    """
    k = np.arange(count)
    x = 2.0 * k / count
    q = np.floor(2.0 * x + 0.5).astype(np.int64)
    r = x - 0.5 * q
    base = np.cos(np.pi * r) - 1j * np.sin(np.pi * r)
    return base * np.choose(q % 4, [1.0 + 0j, -1j, -1.0 + 0j, 1j])


def circle_points(radius: float, count: int) -> np.ndarray:
    """Counterclockwise sample points ``radius * exp(2*pi*1j*j/count)``."""
    return radius * np.conj(_root_table(count))


def _check_amplification(radius: float, order: int) -> None:
    if order * math.log(1.0 / radius) > _LOG_AMPLIFICATION_LIMIT:
        raise ParameterError(
            "sample radius %g is too small for order %d: the rescaling "
            "radius**-n amplifies sample rounding past e**%g"
            % (radius, order, _LOG_AMPLIFICATION_LIMIT)
        )


def dft_coefficient_rows(samples: np.ndarray, radius: float, order: int) -> np.ndarray:
    """Taylor coefficients 0..order for each row of circle samples.

    ``samples[r, j]`` is the r-th evaluator at ``radius*exp(2*pi*1j*j/M)``;
    bin ``n`` of the row's forward FFT divided by ``M * radius**n`` is its
    coefficient ``n``.
    """
    s = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
    m = s.shape[1]
    if m < 2 * (order + 1):
        raise PreconditionError(
            "resolving order %d needs at least 2*(order+1) samples per row"
            % order
        )
    _check_amplification(radius, order)
    n = np.arange(order + 1)
    return np.fft.fft(s, axis=1)[:, : order + 1] / (m * radius**n)

