"""Norms, inner products, reproducing kernels and quadrature for the scale
of weighted Dirichlet spaces.

Conventions.  The space with parameter ``alpha`` consists of expansions
``sum a_n z^n`` with ``sum (n+1)**(1-alpha) |a_n|^2`` finite; the orthonormal
basis is ``e_n(z) = (n+1)**((alpha-1)/2) z^n`` and the reproducing kernel at
``w`` has monomial coefficients ``conj(w)**n / (n+1)**(1-alpha)``.  Area
measure is normalized so the disc has mass 1, and the weighted measure
carries the density ``(1-|z|^2)**alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import AnalyticFunction
from .errors import ParameterError, PreconditionError
from .series import TaylorSeries


@dataclass(frozen=True)
class SpaceParams:
    """Weight parameter of the space scale.

    ``alpha`` in (-1, 1) is required by every operation tied to the
    boundedness/compactness/spectrum theory; values up to and including the
    Bergman-side helpers admit ``alpha >= 1``.
    """

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or a <= -1.0:
            raise ParameterError("alpha must be a finite real exceeding -1")
        object.__setattr__(self, "alpha", a)

    def require_core(self) -> None:
        if not (-1.0 < self.alpha < 1.0):
            raise ParameterError(
                "alpha = %g outside (-1, 1): the boundedness, compactness and "
                "spectral results are stated for that range" % self.alpha
            )

    def dirichlet_weights(self, count: int) -> np.ndarray:
        return (np.arange(count) + 1.0) ** (1.0 - self.alpha)

    def bergman_weights(self, count: int) -> np.ndarray:
        return (np.arange(count) + 1.0) ** (-1.0 - self.alpha)

    def basis_scale(self, count: int) -> np.ndarray:
        """Monomial coefficient of the orthonormal basis element ``e_n``."""
        return (np.arange(count) + 1.0) ** ((self.alpha - 1.0) / 2.0)


def norm_sq_coeff(f: TaylorSeries, p: SpaceParams, space: str = "dirichlet") -> float:
    """Squared coefficient norm in the Dirichlet or Bergman weighting."""
    if space == "dirichlet":
        w = p.dirichlet_weights(f.order + 1)
    elif space == "bergman":
        w = p.bergman_weights(f.order + 1)
    else:
        raise ParameterError("space must be 'dirichlet' or 'bergman'")
    return float(np.sum(w * np.abs(f.coeffs) ** 2))


def inner_product(f: TaylorSeries, g: TaylorSeries, p: SpaceParams) -> complex:
    """``sum (n+1)**(1-alpha) a_n conj(b_n)`` over the common truncation."""
    n = min(f.order, g.order) + 1
    w = p.dirichlet_weights(n)
    return complex(np.sum(w * f.coeffs[:n] * np.conj(g.coeffs[:n])))


@dataclass(frozen=True)
class KernelVector:
    """Truncated reproducing kernel at ``w`` in the monomial basis.

    ``tail_bound`` dominates the squared-norm tail
    ``sum_{n>order} (n+1)**(alpha-1) |w|**(2n)``.
    """

    w: complex
    coeffs: np.ndarray
    tail_bound: float


def kernel_vector(w, p: SpaceParams, order: int) -> KernelVector:
    p.require_core()
    w = complex(w)
    if abs(w) > 1.0 - 1e-6:
        raise PreconditionError(
            "kernel point too close to the boundary: need |w| <= 1 - 1e-6"
        )
    n = np.arange(order + 1)
    coeffs = np.conj(w) ** n / (n + 1.0) ** (1.0 - p.alpha)
    return KernelVector(w=w, coeffs=coeffs, tail_bound=_kernel_tail(abs(w), p.alpha, order))


def _kernel_tail(absw: float, alpha: float, order: int) -> float:
    """``x**N (N+1)**(alpha-1) / (1-x)`` with ``x = |w|^2``; valid for alpha <= 1."""
    x = absw * absw
    if x == 0.0:
        return 0.0
    return x**order * (order + 1.0) ** (alpha - 1.0) / (1.0 - x)


def kernel_coordinates(w, p: SpaceParams, count: int) -> np.ndarray:
    """Coordinates of the kernel at ``w`` in the orthonormal basis."""
    n = np.arange(count)
    return p.basis_scale(count) * np.conj(complex(w)) ** n


@dataclass(frozen=True)
class KernelNormResult:
    partial_sum: float
    tail_bound: float
    comparison: float | None

    @property
    def ratio(self) -> float | None:
        """``partial_sum / comparison``, or ``None`` when there is no comparison.

        It tends to 1 as ``|w| -> 1``, but only like
        ``1 + zeta(1-alpha)/Gamma(alpha) * (1-|w|^2)**alpha``, so a value near
        1 at a finite ``|w|`` is not promised.
        """
        if self.comparison is None:
            return None
        return self.partial_sum / self.comparison


def kernel_norm_sq(w, p: SpaceParams, order: int) -> KernelNormResult:
    """Certified partial sum of ``sum (n+1)**(alpha-1) |w|**(2n)``.

    For ``alpha > 0`` the asymptotic comparison value
    ``Gamma(alpha) * (1-|w|^2)**(-alpha)`` is returned next to it; the sum
    itself is accumulated with compensated summation and accompanied by the
    integral-comparison tail bound, so the caller can see exactly how far the
    truncation sits from the modeled asymptote.

    The comparison is the leading term only.  With ``x = |w|^2`` the full sum
    is ``Li_{1-alpha}(x)/x``, whose next term is ``zeta(1-alpha)/x < 0``, so
    ``ratio`` tends to 1 like ``1 + zeta(1-alpha)/Gamma(alpha) * (1-x)**alpha``
    and nearness to 1 at a finite ``|w|`` is not promised.
    """
    alpha = p.alpha
    if alpha > 1.0:
        raise ParameterError("kernel_norm_sq supports alpha <= 1")
    absw = abs(complex(w))
    if absw >= 1.0:
        raise PreconditionError("kernel norms require |w| < 1")
    n = np.arange(order + 1, dtype=np.float64)
    terms = (n + 1.0) ** (alpha - 1.0) * absw ** (2.0 * n)
    partial = math.fsum(terms)
    tail = _kernel_tail(absw, alpha, order)
    comparison = None
    if alpha > 0.0:
        comparison = math.gamma(alpha) * (1.0 - absw * absw) ** (-alpha)
    return KernelNormResult(partial_sum=partial, tail_bound=tail, comparison=comparison)


# --- quadrature ---------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre radial nodes on [0, 1) crossed with uniform angles.

    ``radial_weights`` already contain the Jacobian ``2r`` of the normalized
    area measure, so integrating the constant 1 with ``alpha = 0`` gives 1.
    The ``(1-r^2)**alpha`` density is folded into the integrand at the nodes;
    they are interior, so negative ``alpha`` never evaluates at a blow-up.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int

    @classmethod
    def make(cls, radial_count: int = 200, angular_count: int = 512) -> "QuadratureGrid":
        if radial_count < 2 or angular_count < 4:
            raise ParameterError("quadrature grid needs radial_count >= 2, angular_count >= 4")
        x, wgl = np.polynomial.legendre.leggauss(radial_count)
        r = (x + 1.0) / 2.0
        w = wgl / 2.0 * 2.0 * r
        r.setflags(write=False)
        w.setflags(write=False)
        return cls(radial_nodes=r, radial_weights=w, angular_count=angular_count)

    @property
    def radial_count(self) -> int:
        return self.radial_nodes.size

    def points(self) -> np.ndarray:
        """Complex sample points, shape (radial_count, angular_count)."""
        theta = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        return self.radial_nodes[:, None] * np.exp(1j * theta)[None, :]

    def integrate(self, values: np.ndarray, alpha: float) -> float:
        """Integrate grid samples against ``(1-|z|^2)**alpha dA``."""
        vals = np.asarray(values)
        if vals.shape != (self.radial_count, self.angular_count):
            raise ParameterError("values must be sampled on this grid")
        angular_mean = vals.mean(axis=1)
        density = (1.0 - self.radial_nodes**2) ** alpha
        return float(np.sum(self.radial_weights * density * angular_mean.real))

    def refined(self) -> "QuadratureGrid":
        return QuadratureGrid.make(2 * self.radial_count, 2 * self.angular_count)


@dataclass(frozen=True)
class QuadratureNormResult:
    value: float
    refined_value: float
    relative_change: float
    too_coarse: bool


def norm_sq_quadrature(
    f: AnalyticFunction, p: SpaceParams, grid: QuadratureGrid
) -> dict[str, QuadratureNormResult]:
    """Both equivalent-norm expressions evaluated by quadrature.

    ``first_derivative``: ``|f(0)|^2 + int |f'|^2 dA_alpha`` (alpha in (-1,1)).
    ``second_derivative``: ``|f(0)|^2 + |f'(0)|^2 + int |f''|^2 dA_{alpha+2}``.
    One jet evaluation per grid serves both.  The computation is repeated on
    a doubled grid; a relative change above 1% raises the ``too_coarse`` flag.
    """
    p.require_core()
    jet0 = f.jet(0.0)
    coarse = _equivalent_norms_sq(f, jet0, p, grid)
    fine = _equivalent_norms_sq(f, jet0, p, grid.refined())
    results = {}
    for name, value in coarse.items():
        change = abs(value - fine[name]) / max(abs(fine[name]), 1e-300)
        results[name] = QuadratureNormResult(value, fine[name], change, change > 0.01)
    return results


def _equivalent_norms_sq(f, jet0, p: SpaceParams, grid: QuadratureGrid) -> dict:
    # the grid's jets live only in this frame, so a caller's second grid does
    # not hold the first one's arrays
    jets = f.jet(grid.points())
    return {
        "first_derivative": abs(jet0.v) ** 2
        + grid.integrate(np.abs(jets.d1) ** 2, p.alpha),
        "second_derivative": abs(jet0.v) ** 2
        + abs(jet0.d1) ** 2
        + grid.integrate(np.abs(jets.d2) ** 2, p.alpha + 2.0),
    }


@dataclass(frozen=True)
class GrowthBoundReport:
    """Outcome of the derivative-controlled logarithmic growth check.

    ``sup_factor`` is the grid maximum of ``|f'(z)|(1-|z|^2)``;
    ``max_violation`` the worst signed excess of ``|f(z)-f(0)|`` over
    ``sup_factor * (log 2 + 0.5*log(1/(1-|z|^2)))``; the bound holds when
    that excess stays below 1e-9.
    """

    sup_factor: float
    max_violation: float
    holds: bool
    radii: np.ndarray
    max_abs_per_radius: np.ndarray
    base_value: complex


def growth_bound_check(f: AnalyticFunction, grid: QuadratureGrid) -> GrowthBoundReport:
    pts = grid.points()
    jets = f.jet(pts)
    one_minus = 1.0 - grid.radial_nodes[:, None] ** 2
    factor = np.abs(jets.d1) * one_minus
    sup_factor = float(np.max(factor))
    f0 = complex(f.value(0.0))
    lhs = np.abs(jets.v - f0)
    rhs = sup_factor * (math.log(2.0) + 0.5 * np.log(1.0 / one_minus))
    violation = float(np.max(lhs - rhs))
    return GrowthBoundReport(
        sup_factor=sup_factor,
        max_violation=violation,
        holds=violation <= 1e-9,
        radii=grid.radial_nodes,
        max_abs_per_radius=np.max(np.abs(jets.v), axis=1),
        base_value=f0,
    )
