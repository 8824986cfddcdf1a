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
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .catalog import AnalyticFunction
from .errors import ParameterError, PreconditionError
from .series import TaylorSeries


@dataclass(frozen=True)
class SpaceParams:
    """Weight parameter of the space scale.

    ``alpha`` in (-1, 1) is required by every operation tied to the
    boundedness/compactness/spectrum theory (:meth:`require_core`); the
    coefficient weights and norms, the Bergman-side ones included, also
    admit ``alpha >= 1``.
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


QUAD_RADIAL_COUNT = 25
QUAD_ANGULAR_COUNT = 512
# Most points one jet evaluation of a grid layer takes at once: the criteria
# annuli and the quadrature rows are evaluated in blocks of whole circles up
# to this size.  Larger blocks were no faster and raised the peak memory of a
# call; smaller ones paid more per-call overhead.  A circle with more points
# forms a block on its own.
BLOCK_POINTS = 2048


def gauss_jacobi(count: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes ``t`` and weights ``w`` on [0, 1] for ``(1-t)**alpha``.

    ``sum(w * g(t))`` equals ``int_0^1 g(t) (1-t)**alpha dt`` for every
    polynomial ``g`` of degree at most ``2*count - 1``.  Golub-Welsch: the
    nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
    the Jacobi(alpha, 0) polynomials, mapped from [-1, 1] by ``t = (1+x)/2``,
    and the weights are ``mu0 = 1/(alpha+1)`` times the squared first
    components of its eigenvectors (Golub & Welsch, Math. Comp. 23, 1969).
    """
    k = np.arange(1.0, count)
    s = 2.0 * k + alpha
    diag = np.empty(count)
    diag[0] = -alpha / (alpha + 2.0)
    diag[1:] = -alpha * alpha / (s * (s + 2.0))
    off = 2.0 * k * (k + alpha) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    jacobi = np.diag((1.0 + diag) / 2.0) + np.diag(off / 2.0, 1) + np.diag(off / 2.0, -1)
    t, vectors = np.linalg.eigh(jacobi)
    return t, vectors[0] ** 2 / (alpha + 1.0)


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Jacobi radial nodes in ``t = r^2`` crossed with uniform angles.

    Normalized area measure is ``dA = dt dtheta / (2 pi)``, so
    ``int g (1-|z|^2)**alpha dA = int_0^1 M(t) (1-t)**alpha dt`` where ``M(t)``
    is the angular mean of ``g`` on ``|z| = sqrt(t)``.  The radial rule is
    Gauss-Jacobi for the weight ``(1-t)**weight``; :meth:`make` builds
    ``weight = 0``, which is Gauss-Legendre in ``t``.  The radial integral is
    exact when ``M(t) (1-t)**(alpha - weight)`` is a polynomial of degree at
    most ``2*radial_count - 1``.  The nodes are interior, so negative
    ``alpha`` never evaluates at a blow-up.  The rule is built on first use.
    """

    radial_count: int
    angular_count: int
    weight: float = 0.0

    def __post_init__(self):
        if self.radial_count < 2 or self.angular_count < 4 or not self.weight > -1.0:
            raise ParameterError(
                "quadrature grid needs radial_count >= 2, angular_count >= 4, weight > -1"
            )

    @classmethod
    def make(
        cls, radial_count: int = QUAD_RADIAL_COUNT, angular_count: int = QUAD_ANGULAR_COUNT
    ) -> "QuadratureGrid":
        return cls(radial_count, angular_count)

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t, w = gauss_jacobi(self.radial_count, self.weight)
        r = np.sqrt(t)
        for a in (t, r, w):
            a.setflags(write=False)
        return t, r, w

    @property
    def radial_nodes(self) -> np.ndarray:
        return self._rule[1]

    @property
    def radial_weights(self) -> np.ndarray:
        return self._rule[2]

    def _circle(self) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        return np.exp(1j * theta)

    def points(self) -> np.ndarray:
        """Complex sample points, shape (radial_count, angular_count)."""
        return self.radial_nodes[:, None] * self._circle()[None, :]

    def point_blocks(self):
        """``(rows, z)`` for consecutive row slices of :meth:`points`: as many
        rows as fit in ``BLOCK_POINTS`` points, or one row when a row alone
        has more.  ``z`` equals ``points()[rows]`` bit for bit."""
        circle = self._circle()
        step = max(1, BLOCK_POINTS // self.angular_count)
        for start in range(0, self.radial_count, step):
            rows = slice(start, min(start + step, self.radial_count))
            yield rows, self.radial_nodes[rows, None] * circle[None, :]

    def integrate(self, values: np.ndarray, alpha: float) -> float:
        """Integrate grid samples against ``(1-|z|^2)**alpha dA``."""
        vals = np.asarray(values)
        if vals.shape != (self.radial_count, self.angular_count):
            raise ParameterError("values must be sampled on this grid")
        return self.radial_integral(vals.mean(axis=1), alpha)

    def radial_integral(self, angular_mean: np.ndarray, alpha: float) -> float:
        """Integrate per-circle angular means, one per radial node, against
        ``(1-|z|^2)**alpha dA``; :meth:`integrate` takes the means itself."""
        t, _, w = self._rule
        density = (1.0 - t) ** (alpha - self.weight)
        return float(np.sum(w * density * angular_mean.real))

    def refined(self) -> "QuadratureGrid":
        return replace(self, radial_count=2 * self.radial_count,
                       angular_count=2 * self.angular_count)

    def for_weight(self, alpha: float) -> "QuadratureGrid":
        """The same counts with the radial rule for ``(1-t)**alpha``."""
        return replace(self, weight=float(alpha))


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
    The radial rule is Gauss-Jacobi in ``t = r^2`` for ``(1-t)**alpha`` with
    ``grid.radial_count`` nodes; the second form multiplies the polynomial
    ``(1-t)**2`` into its integrand.  The angular means of ``|f'|^2`` and
    ``|f''|^2`` are power series in ``t``, so both values are exact for a
    polynomial ``f`` of degree below ``2*radial_count`` and at most
    ``angular_count``.  One jet evaluation per grid serves both, taken in
    row blocks of at most ``BLOCK_POINTS`` points whose angular means are
    kept, so no full-grid array is held.  The computation is repeated on a
    doubled grid; a relative change above 1% raises the ``too_coarse`` flag.
    """
    p.require_core()
    grid = grid.for_weight(p.alpha)
    jet0 = f.jet(0.0)
    coarse = _equivalent_norms_sq(f, jet0, p, grid)
    fine = _equivalent_norms_sq(f, jet0, p, grid.refined())
    results = {}
    for name, value in coarse.items():
        change = abs(value - fine[name]) / max(abs(fine[name]), 1e-300)
        results[name] = QuadratureNormResult(value, fine[name], change, change > 0.01)
    return results


def _equivalent_norms_sq(f, jet0, p: SpaceParams, grid: QuadratureGrid) -> dict:
    # the row means equal those grid.integrate takes of the full-grid arrays
    d1_mean = np.empty(grid.radial_count)
    d2_mean = np.empty(grid.radial_count)
    for rows, z in grid.point_blocks():
        jets = f.jet(z)
        d1_mean[rows] = (np.abs(jets.d1) ** 2).mean(axis=1)
        d2_mean[rows] = (np.abs(jets.d2) ** 2).mean(axis=1)
    return {
        "first_derivative": abs(jet0.v) ** 2 + grid.radial_integral(d1_mean, p.alpha),
        "second_derivative": abs(jet0.v) ** 2
        + abs(jet0.d1) ** 2
        + grid.radial_integral(d2_mean, p.alpha + 2.0),
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
