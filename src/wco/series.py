"""Truncated Taylor series arithmetic and circle-sampling coefficient extraction.

A :class:`TaylorSeries` is the finite expansion ``sum_{n=0}^{order} c_n z^n``
about the origin with complex coefficients.  Coefficients of analytic point
evaluators are recovered by sampling on one circle ``|z| = rho`` and applying
a single FFT; the aliasing indicator (the largest coefficient in the top
quarter of the extracted range) is always returned next to the series, never
discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError

# rho**(-order) amplifies the rounding of the samples; beyond e**219.7 (about
# 1e95) the coefficients are noise.  At the default radius 0.9 this admits
# orders up to 2085: N <= 2086 for norm-check and for truncations whose
# symbols have no exact coefficients.
_LOG_AMPLIFICATION_LIMIT = 219.7


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated power series; ``coeffs[n]`` multiplies ``z**n``."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("coefficients must form a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ParameterError("coefficients must be finite complex numbers")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __eq__(self, other):
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )


@dataclass(frozen=True)
class ExtractionConfig:
    """Sampling policy for circle-based coefficient extraction.

    Each extraction samples only the circle ``|z| = sample_radius``.
    ``sample_count`` must be a power of two exceeding twice the order of any
    series extracted with it.
    """

    sample_radius: float = 0.9
    sample_count: int = 1024

    def __post_init__(self):
        if not (0.0 < self.sample_radius < 1.0):
            raise ParameterError("sample_radius must lie in (0, 1)")
        m = self.sample_count
        if m <= 0 or (m & (m - 1)) != 0:
            raise ParameterError("sample_count must be a positive power of two")


def cauchy_product(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    """Product truncated to the smaller order: ``c_j = sum_{i<=j} f_i g_{j-i}``."""
    n = min(f.order, g.order)
    fc = f.coeffs[: n + 1]
    gc = g.coeffs[: n + 1]
    return TaylorSeries(np.convolve(fc, gc)[: n + 1])


def derivative(f: TaylorSeries) -> TaylorSeries:
    """Termwise derivative, order drops by one."""
    if f.order < 1:
        raise PreconditionError(
            "cannot differentiate constant truncation below order 0"
        )
    n = np.arange(1, f.order + 1)
    return TaylorSeries(n * f.coeffs[1:])


def antiderivative(f: TaylorSeries) -> TaylorSeries:
    """Termwise antiderivative with vanishing constant term."""
    n = np.arange(1, f.order + 2)
    out = np.empty(f.order + 2, dtype=np.complex128)
    out[0] = 0.0
    out[1:] = f.coeffs / n
    return TaylorSeries(out)


def evaluate(f: TaylorSeries, z):
    """Horner evaluation of the truncated polynomial; accepts scalars or arrays."""
    zz = np.asarray(z, dtype=np.complex128)
    acc = np.full(zz.shape, f.coeffs[-1], dtype=np.complex128)
    for c in f.coeffs[-2::-1]:
        acc = acc * zz + c
    if np.ndim(z) == 0:
        return complex(acc)
    return acc


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
            "sample_count must be at least 2*(order+1) to resolve order %d"
            % order
        )
    _check_amplification(radius, order)
    n = np.arange(order + 1)
    return np.fft.fft(s, axis=1)[:, : order + 1] / (m * radius**n)


def aliasing_estimate(coeffs: np.ndarray) -> float:
    """Largest coefficient magnitude in the top quarter of the extracted range."""
    count = coeffs.shape[-1]
    start = count - max(1, count // 4)
    return float(np.max(np.abs(coeffs[..., start:])))


def extract_coeffs(
    f, cfg: ExtractionConfig, order: int
) -> tuple[TaylorSeries, float]:
    """Recover Taylor coefficients of a point evaluator by circle sampling.

    ``f`` must accept an ndarray of complex points inside the disc and return
    the values elementwise.  Returns the truncated series together with the
    aliasing indicator for the extraction.
    """
    if order < 0:
        raise ParameterError("order must be nonnegative")
    if cfg.sample_count < 2 * (order + 1):
        raise PreconditionError(
            "sample_count %d is below 2*(order+1)=%d"
            % (cfg.sample_count, 2 * (order + 1))
        )
    z = circle_points(cfg.sample_radius, cfg.sample_count)
    vals = np.asarray(f(z), dtype=np.complex128)
    if vals.shape != z.shape:
        vals = np.broadcast_to(vals, z.shape)
    if not np.all(np.isfinite(vals)):
        raise PreconditionError("evaluator not analytic on sampling circle")
    coeffs = dft_coefficient_rows(vals, cfg.sample_radius, order)[0]
    return TaylorSeries(coeffs), aliasing_estimate(coeffs)
