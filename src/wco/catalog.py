"""Closed-form analytic functions on the unit disc with order-2 jets.

Every function carries hand-derived first and second derivatives next to its
value (a :class:`Jet2`), because the boundedness and compactness quantities
involve second derivatives near the boundary where difference quotients lose
accuracy.  Each family also carries its exact Taylor coefficients about the
origin (``AnalyticFunction.taylor``) and its composition with a power series
(``AnalyticFunction.compose``), from which matrix truncations are
assembled.  The families are addressable by spec strings such as
``"phi_rk:r=0.5,k=2"`` or ``"polynomial:0.5,0,0.5"``.  :func:`mobius_auto`
is the one automorphism builder, with its elliptic fixed point as metadata;
univalence is metadata each family states, not a sampled probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import FixedPointInconclusive, ParameterError, PreconditionError

_SELF_MAP_BOUNDARY_SAMPLES = 4096
_SELF_MAP_SLACK = 1e-9


@dataclass(frozen=True)
class Jet2:
    """Value and first two derivatives at a point (or arrays of points)."""

    v: complex
    d1: complex
    d2: complex


@dataclass(frozen=True)
class AnalyticFunction:
    """A disc-analytic function with jet evaluation and catalog metadata.

    ``raw_jet`` maps an ndarray of points to the ``(value, d1, d2)`` triple
    of arrays of the same shape; it must be elementwise and pure.  It
    receives arrays of any shape: the criteria grids pass 2-D blocks of
    whole circles, the quadrature its row blocks.  ``taylor(order)`` gives
    the exact Taylor coefficients ``0..order`` about the origin and
    ``compose(g)`` those of ``f(g(w))`` for the coefficients ``g`` of a
    disc-valued power series (``g = [c, 1, 0, ...]`` recentres at ``c``),
    from closed forms and recurrences rather than samples: float64 for real
    parameters and input, else complex128.  Every function built here has
    both; :meth:`coefficients` is the one way to get coefficients, a plain
    array whose entry ``n`` multiplies ``z**n``.
    Metadata is asserted by construction: ``claims_self_map`` promises
    ``|f| <= 1 + 1e-9`` on validation grids, ``known_fixed_point`` promises
    ``|f(a) - a| <= 1e-10``.
    """

    label: str
    raw_jet: Callable = field(repr=False, compare=False)
    claims_self_map: bool = False
    claims_univalent: bool = False
    known_fixed_point: Optional[complex] = None
    boundary_continuous: bool = True
    taylor: Optional[Callable[[int], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    compose: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def jet(self, z) -> Jet2:
        zz = np.asarray(z, dtype=np.complex128)
        v, d1, d2 = self.raw_jet(zz)
        if np.ndim(z) == 0:
            return Jet2(complex(v), complex(d1), complex(d2))
        return Jet2(np.asarray(v), np.asarray(d1), np.asarray(d2))

    def value(self, z):
        return self.jet(z).v

    def coefficients(self, order: int) -> np.ndarray:
        """Taylor coefficients ``0..order`` about the origin, ``taylor(order)``;
        :class:`PreconditionError` when the function has no ``taylor``."""
        if self.taylor is None:
            raise PreconditionError(
                "%s has no exact Taylor coefficients; wrap it with "
                "custom(..., taylor=...)" % self.label
            )
        return self.taylor(order)

    def __call__(self, z):
        return self.value(z)


def _const_like(z, c):
    return np.full(np.shape(z), c, dtype=np.complex128)


def _fmt_param(x) -> str:
    """Decimal parameter rendering used in canonical labels."""
    xc = complex(x)
    if xc.imag == 0.0:
        return repr(xc.real)
    return repr(xc.real) + ("+" if xc.imag >= 0 else "-") + repr(abs(xc.imag)) + "i"


# ``compose`` uses Horner's scheme, series division and J.C.P. Miller's
# recurrences for exp and powers (Henrici, Applied and Computational Complex
# Analysis I, section 1.6), whose rounding stays at the scale of the result.
# Summing a family's series recentred at g(0) over the powers of g - g(0)
# cancels instead: for (1-z)**2.5 after the automorphism swapping 0 and 0.19
# it leaves coefficient 255 off by 3e11, the recurrence by 1e-23.


def _exp_series(e0, de: np.ndarray) -> np.ndarray:
    """Coefficients ``0..de.size`` of ``exp(e)`` from ``e_0`` and ``de[k-1] =
    k e_k``, by ``n h_n = sum_{k=1..n} k e_k h_{n-k}`` (from ``h' = e' h``)."""
    h = np.empty(de.size + 1, dtype=np.result_type(de, e0))
    h[0] = cmath.exp(e0) if isinstance(e0, complex) else math.exp(e0)
    for m in range(1, h.size):
        h[m] = np.dot(de[:m], h[m - 1 :: -1]) / m
    return h


def _polynomial_series(coeffs) -> dict:
    """``taylor`` and ``compose`` of the polynomial with ascending
    coefficients ``coeffs``; ``compose`` is Horner's scheme."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if not np.any(c.imag):
        c = c.real.copy()

    def taylor(order):
        out = np.zeros(order + 1, dtype=c.dtype)
        out[: min(c.size, order + 1)] = c[: order + 1]
        return out

    def compose(g):
        out = np.zeros(g.size, dtype=np.result_type(c, g))
        out[0] = c[-1]
        for ck in c[-2::-1]:
            out = np.convolve(out, g)[: g.size]
            out[0] += ck
        return out

    return {"taylor": taylor, "compose": compose}


def _lft_series(g0, g1, t) -> dict:
    """``taylor`` and ``compose`` of the fractional linear map
    ``g0 + g1*z/(1 - t*z)``, ``|t| < 1``: the geometric series ``c_0 = g0``,
    ``c_n = g1 t**(n-1)``, and ``g0 + g1 g/(1 - t g)`` by series division."""

    def taylor(order):
        tail = g1 * t ** np.arange(order)
        out = np.empty(order + 1, dtype=np.result_type(tail, g0))
        out[0] = g0
        out[1:] = tail
        return out

    def compose(g):
        # g0 + g1 q, where q (1 - t g) = g is solved by forward substitution
        q = np.empty(g.size, dtype=np.result_type(g, t))
        for n in range(g.size):
            q[n] = (g[n] + t * np.dot(g[n:0:-1], q[:n])) / (1.0 - t * g[0])
        out = g1 * q
        out[0] += g0
        return out

    return {"taylor": taylor, "compose": compose}


def mobius_self_map(lam: float) -> AnalyticFunction:
    """``lam*z / (1 - (1-lam)*z)``, a univalent self-map fixing 0.

    Admissible range ``lam in [1/2, 1)``; the map also fixes the boundary
    point 1, where the weight families below vanish.
    """
    lam = float(lam)
    if not (0.5 <= lam < 1.0):
        raise ParameterError("lambda must lie in [1/2, 1) for this family")
    b = 1.0 - lam

    def raw(z):
        d = 1.0 - b * z
        return lam * z / d, lam / d**2, 2.0 * lam * b / d**3

    return AnalyticFunction(
        label="mobius_self_map:lambda=%s" % _fmt_param(lam),
        raw_jet=raw,
        claims_self_map=True,
        claims_univalent=True,
        known_fixed_point=0.0 + 0.0j,
        **_lft_series(0.0, lam, b),
    )


def _exp_lft_jet(a_num: complex, b_num: complex, r: float):
    """Jets of ``exp((a*z + b)/(1 - r*z))``."""

    def raw(z):
        d = 1.0 - r * z
        w1 = (a_num + r * b_num) / d**2
        w2 = 2.0 * r * (a_num + r * b_num) / d**3
        e = np.exp((a_num * z + b_num) / d)
        return e, w1 * e, (w2 + w1 * w1) * e

    return raw


def _exp_lft_series(a_num: float, b_num: float, r: float) -> dict:
    """``taylor`` and ``compose`` of ``exp(g)``, ``g = (a*z + b)/(1 - r*z)
    = b + (a + r*b) z/(1 - r*z)``: Miller's recurrence on ``g_0 = b``,
    ``g_j = (a + r*b) r**(j-1)``, or on ``g`` composed by series division."""
    lft = _lft_series(b_num, a_num + r * b_num, r)["compose"]

    def taylor(order):
        j = np.arange(1, order + 1)
        return _exp_series(b_num, j * (a_num + r * b_num) * r ** (j - 1.0))

    def compose(g):
        e = lft(g)
        return _exp_series(e[0], np.arange(1, e.size) * e[1:])

    return {"taylor": taylor, "compose": compose}


def phi_rk(r: float, k: float) -> AnalyticFunction:
    """``exp((z*(r*k-1) + (r-k))/(1 - r*z))`` for ``r in (0,1)``, ``k > 1``.

    A univalent self-map with uniformly bounded image modulus; its attracting
    fixed point lies inside the disc and is located numerically.
    """
    r = float(r)
    k = float(k)
    if not (0.0 < r < 1.0):
        raise ParameterError("r must lie in (0, 1) for this family")
    if not k > 1.0:
        raise ParameterError("k must exceed 1 for this family (use phi_r1 at k=1)")
    return AnalyticFunction(
        label="phi_rk:k=%s,r=%s" % (_fmt_param(k), _fmt_param(r)),
        raw_jet=_exp_lft_jet(r * k - 1.0, r - k, r),
        claims_self_map=True,
        claims_univalent=True,
        **_exp_lft_series(r * k - 1.0, r - k, r),
    )


def phi_r1(r: float) -> AnalyticFunction:
    """``exp((1-r)*(z+1)/(r*z-1))``: the ``k = 1`` member of the exp-LFT family.

    Touches the boundary at ``z = -1`` (value 1), so it is a self-map with
    unit sup-norm but bounded second derivative.
    """
    r = float(r)
    if not (0.0 < r < 1.0):
        raise ParameterError("r must lie in (0, 1) for this family")
    return AnalyticFunction(
        label="phi_r1:r=%s" % _fmt_param(r),
        raw_jet=_exp_lft_jet(r - 1.0, r - 1.0, r),
        claims_self_map=True,
        claims_univalent=True,
        **_exp_lft_series(r - 1.0, r - 1.0, r),
    )


def psi_power(beta: float) -> AnalyticFunction:
    """``(1-z)**beta`` on the principal branch, ``beta > 0``.

    The branch cut along ``[1, inf)`` never meets the open disc and the value
    at 0 is 1.  Vanishes at the boundary point 1, which is what makes these
    weights compactness-producing.
    """
    beta = float(beta)
    if not beta > 0.0:
        raise ParameterError("beta must be positive for this family")

    def raw(z):
        w = 1.0 - z
        return (
            w**beta,
            -beta * w ** (beta - 1.0),
            beta * (beta - 1.0) * w ** (beta - 2.0),
        )

    def taylor(order):
        # binomial series: c_0 = 1, c_j = c_{j-1} (j-1-beta) / j
        ratios = np.ones(order + 1)
        ratios[1:] = (np.arange(order) - beta) / np.arange(1.0, order + 1)
        with np.errstate(over="ignore"):  # inf for huge beta, refused by the caller
            return np.cumprod(ratios)

    def compose(g):
        # p = h**beta, h = 1 - g, by Miller's recurrence from h p' = beta h' p:
        # n h_0 p_n = -sum_{k=1..n} ((beta+1) k - n) g_k p_{n-k}
        h0 = 1.0 - g[0]
        p = np.empty(g.size, dtype=g.dtype)
        p[0] = h0**beta
        k = np.arange(1, g.size)
        for n in range(1, g.size):
            weights = (beta + 1.0) * k[:n] - n
            p[n] = -np.dot(weights * g[1 : n + 1], p[n - 1 :: -1]) / (n * h0)
        return p

    return AnalyticFunction(
        label="psi_power:beta=%s" % _fmt_param(beta),
        raw_jet=raw,
        claims_self_map=False,
        claims_univalent=beta <= 2.0,
        taylor=taylor,
        compose=compose,
    )


def _horner_jet(coeffs: np.ndarray):
    c0 = coeffs
    c1 = c0[1:] * np.arange(1, c0.size)
    c2 = c1[1:] * np.arange(1, c1.size) if c1.size > 1 else np.zeros(0)

    def _horner(c, z):
        if c.size == 0:
            return _const_like(z, 0.0)
        acc = _const_like(z, c[-1])
        for cc in c[-2::-1]:
            acc = acc * z + cc
        return acc

    def raw(z):
        return _horner(c0, z), _horner(c1, z), _horner(c2, z)

    return raw


def polynomial(coeffs) -> AnalyticFunction:
    """Polynomial with ascending coefficients ``c0, c1, ...``.

    Whether it is a self-map is decided by max-modulus sampling on the unit
    circle; univalence is only claimed for degree one.
    """
    arr = np.asarray(list(coeffs), dtype=np.complex128)
    if arr.size == 0 or not np.all(np.isfinite(arr.view(np.float64))):
        raise ParameterError("polynomial needs at least one finite coefficient")
    theta = 2.0 * np.pi * np.arange(_SELF_MAP_BOUNDARY_SAMPLES) / _SELF_MAP_BOUNDARY_SAMPLES
    boundary = np.exp(1j * theta)
    raw = _horner_jet(arr)
    # huge coefficients overflow to an inf or nan sup, which is no self-map
    with np.errstate(over="ignore", invalid="ignore"):
        sup = float(np.max(np.abs(raw(boundary)[0])))
    return AnalyticFunction(
        label="polynomial:" + ",".join(_fmt_param(c) for c in arr),
        raw_jet=raw,
        claims_self_map=sup <= 1.0 + _SELF_MAP_SLACK,
        claims_univalent=arr.size == 2 and arr[1] != 0,
        **_polynomial_series(arr),
    )


def affine(c0, c1) -> AnalyticFunction:
    """``c0 + c1*z`` with self-map and fixed-point metadata filled in."""
    c0 = complex(c0)
    c1 = complex(c1)
    fixed = None
    if c1 != 1.0:
        cand = c0 / (1.0 - c1)
        if abs(cand) < 1.0:
            fixed = cand
    return AnalyticFunction(
        label="affine:c0=%s,c1=%s" % (_fmt_param(c0), _fmt_param(c1)),
        raw_jet=lambda z: (c0 + c1 * z, _const_like(z, c1), _const_like(z, 0.0)),
        claims_self_map=abs(c0) + abs(c1) <= 1.0 + 1e-12,
        claims_univalent=c1 != 0,
        known_fixed_point=fixed,
        **_polynomial_series([c0, c1]),
    )


def identity() -> AnalyticFunction:
    return AnalyticFunction(
        label="identity",
        raw_jet=lambda z: (z, _const_like(z, 1.0), _const_like(z, 0.0)),
        claims_self_map=True,
        claims_univalent=True,
        known_fixed_point=0.0 + 0.0j,
        **_polynomial_series([0.0, 1.0]),
    )


def mobius_auto(a) -> AnalyticFunction:
    """The involution ``(a - z)/(1 - conj(a) z)`` swapping 0 and ``a``, ``|a| < 1``.

    Its elliptic fixed point ``a/(1 + sqrt(1-|a|^2))`` equals
    ``(1 - sqrt(1-|a|^2))/conj(a)`` but is free of its cancellation for
    small ``|a|``.
    """
    a = complex(a)
    if not abs(a) < 1.0:
        raise ParameterError("automorphism parameter must satisfy |a| < 1")
    ac = np.conj(a)

    def raw(z):
        d = 1.0 - ac * z
        return (
            (a - z) / d,
            (abs(a) ** 2 - 1.0) / d**2,
            2.0 * ac * (abs(a) ** 2 - 1.0) / d**3,
        )

    s = a.real if a.imag == 0.0 else a  # a real a gives real coefficients

    return AnalyticFunction(
        label="mobius_auto:a=%s" % _fmt_param(a),
        raw_jet=raw,
        claims_self_map=True,
        claims_univalent=True,
        known_fixed_point=a / (1.0 + math.sqrt(1.0 - abs(a) ** 2)),
        # (a - z)/(1 - conj(a) z) = a + (|a|^2 - 1) z/(1 - conj(a) z)
        **_lft_series(s, abs(s) ** 2 - 1.0, np.conj(s)),
    )


def custom(label, value_fn, d1_fn, d2_fn, **meta) -> AnalyticFunction:
    """Wrap three vectorized callables as a catalog-compatible function; only
    ``taylor=`` (and ``compose=``) in ``meta`` give it exact coefficients."""
    return AnalyticFunction(
        label=label,
        raw_jet=lambda z: (value_fn(z), d1_fn(z), d2_fn(z)),
        **meta,
    )


# --- composition algebra -----------------------------------------------------


def jet_compose(outer: AnalyticFunction, inner: AnalyticFunction) -> AnalyticFunction:
    """Composition ``outer(inner(z))`` with the order-2 chain rule.

    Its coefficients are ``outer.compose`` of those of ``inner``, present
    when ``outer`` has ``compose`` and ``inner`` the matching method.
    """
    if not inner.claims_self_map:
        raise PreconditionError(
            "inner function is not a verified self-map of the disc; "
            "composition may leave the domain of the outer function"
        )

    def raw(z):
        gv, g1, g2 = inner.raw_jet(z)
        fv, f1, f2 = outer.raw_jet(gv)
        return fv, f1 * g1, f2 * g1 * g1 + f1 * g2

    def taylor(order):
        return outer.compose(inner.taylor(order))

    def compose(g):
        return outer.compose(inner.compose(g))

    return AnalyticFunction(
        label="compose(%s,%s)" % (outer.label, inner.label),
        raw_jet=raw,
        claims_self_map=outer.claims_self_map,
        claims_univalent=outer.claims_univalent and inner.claims_univalent,
        boundary_continuous=outer.boundary_continuous and inner.boundary_continuous,
        taylor=taylor if outer.compose and inner.taylor else None,
        compose=compose if outer.compose and inner.compose else None,
    )


def product(f: AnalyticFunction, g: AnalyticFunction) -> AnalyticFunction:
    """Pointwise product with the order-2 Leibniz rule; its coefficients are
    the truncated convolution of the factors' coefficients."""

    def raw(z):
        fv, f1, f2 = f.raw_jet(z)
        gv, g1, g2 = g.raw_jet(z)
        return fv * gv, f1 * gv + fv * g1, f2 * gv + 2.0 * f1 * g1 + fv * g2

    def taylor(order):
        return np.convolve(f.taylor(order), g.taylor(order))[: order + 1]

    def compose(h):
        return np.convolve(f.compose(h), g.compose(h))[: h.size]

    return AnalyticFunction(
        label="product(%s,%s)" % (f.label, g.label),
        raw_jet=raw,
        boundary_continuous=f.boundary_continuous and g.boundary_continuous,
        taylor=taylor if f.taylor and g.taylor else None,
        compose=compose if f.compose and g.compose else None,
    )


def conjugate_to_origin(
    psi: AnalyticFunction, phi: AnalyticFunction, a
) -> tuple[AnalyticFunction, AnalyticFunction]:
    """Mobius conjugation moving the fixed point ``a`` of ``phi`` to 0.

    Returns ``(zeta, eta)`` with ``zeta = psi o phi_a`` and
    ``eta = phi_a o phi o phi_a``, so ``eta(0) = 0``, ``eta'(0) = phi'(a)``
    and ``zeta(0) = psi(a)``; the constant Taylor coefficient of ``eta`` is
    exactly 0, so the rounding of ``a`` leaves nothing above the diagonal.
    """
    a = complex(a)
    if not abs(a) < 1.0:
        raise ParameterError("conjugation point must lie inside the disc")
    if abs(phi.value(a) - a) > 1e-8:
        raise PreconditionError(
            "conjugation point is not a fixed point of phi: |phi(a)-a| = %.3e"
            % abs(phi.value(a) - a)
        )
    inv = mobius_auto(a)
    zeta = jet_compose(psi, inv)
    eta = jet_compose(inv, jet_compose(phi, inv))

    def eta_taylor(order):
        out = eta.taylor(order)
        out[0] = 0.0
        return out

    return zeta, replace(
        eta,
        claims_self_map=True,
        claims_univalent=phi.claims_univalent,
        known_fixed_point=0.0 + 0.0j,
        boundary_continuous=phi.boundary_continuous,
        taylor=eta_taylor if eta.taylor else None,
    )


# --- fixed points -------------------------------------------------------------

_FP_MAX_ITER = 100_000
_FP_STEP_TOL = 1e-13
_FP_CIRCLE_TOL = 1e-6
_FP_BOUNDARY = 1.0 - _FP_CIRCLE_TOL
_FP_ESCAPE_RUN = 100
_FP_FIRST_PROBE = 8
_FP_PROBE_RESIDUAL = 1e-13


def _newton_fixed_point(phi: AnalyticFunction, z0: complex, steps: int = 60):
    """Newton iteration on ``phi(z) - z``; None when it stalls or diverges."""
    w = complex(z0)
    for _ in range(steps):
        jet = phi.jet(w)
        g = jet.v - w
        gp = jet.d1 - 1.0
        if abs(gp) < 1e-14 or not math.isfinite(abs(gp)):
            return w if abs(g) < 1e-14 else None
        w = w - g / gp
        if abs(g) < 1e-14:
            # convergence is quadratic, so the step from a point that meets
            # the tolerance lands far inside it (exx2: 4.2e-15 -> 4.8e-18)
            return w
        if abs(w) > 1.5 or not math.isfinite(abs(w)):
            return None
    return w if abs(phi.value(w) - w) < 1e-12 else None


def find_fixed_point(phi: AnalyticFunction) -> Optional[complex]:
    """Locate the attracting interior fixed point of a self-map, if any.

    Iterates ``z -> phi(z)`` from 0; a stabilized interior orbit is polished
    with Newton.  An orbit that clings to the boundary for 100 consecutive
    steps means no interior fixed point (the attractor sits on the circle).

    At orbit steps 8, 16, 32, ... (the powers of two) a Newton probe starts
    from the current orbit point.  A probe ``w`` with
    ``|phi(w) - w| < 1e-13`` decides the search in two cases and is ignored
    otherwise (an exterior root, say, and the orbit goes on):

    - inside the disc, ``|w| < 1 - 1e-6``: ``w`` is returned, since a
      self-map other than the identity has at most one interior fixed point
      (Schwarz's lemma);
    - on the circle, ``||w| - 1| <= 1e-6`` with ``|phi'(w)| <= 1 + 1e-6``:
      None.  By Julia's lemma a boundary fixed point with angular derivative
      at most 1 is the Denjoy-Wolff point, and then there is no interior
      fixed point (Cowen & MacCluer, *Composition Operators on Spaces of
      Analytic Functions*, CRC 1995, sections 2.3-2.4).

    The probes settle parabolic attractors, which the orbit approaches like
    ``1/n`` and would take thousands of steps to escape, and the oscillating
    orbits of elliptic automorphisms, which never settle.
    """
    if not phi.claims_self_map:
        raise PreconditionError("fixed-point search requires a self-map of the disc")
    z = 0.0 + 0.0j
    escape_run = 0
    for it in range(1, _FP_MAX_ITER + 1):
        zn = complex(phi.value(z))
        if abs(zn - z) < _FP_STEP_TOL and abs(zn) < _FP_BOUNDARY:
            polished = _newton_fixed_point(phi, zn, steps=8)
            if polished is not None and abs(polished) < 1.0:
                return polished
            return zn
        if abs(zn) > _FP_BOUNDARY:
            escape_run += 1
            if escape_run >= _FP_ESCAPE_RUN:
                return None
        else:
            escape_run = 0
        z = zn
        if it < _FP_FIRST_PROBE or it & (it - 1):
            continue
        probe = _newton_fixed_point(phi, z)
        if probe is None:
            continue
        jet = phi.jet(probe)
        if abs(jet.v - probe) >= _FP_PROBE_RESIDUAL:
            continue
        if abs(probe) < _FP_BOUNDARY:
            return probe
        on_circle = abs(abs(probe) - 1.0) <= _FP_CIRCLE_TOL
        if on_circle and abs(jet.d1) <= 1.0 + _FP_CIRCLE_TOL:
            return None
    raise FixedPointInconclusive(
        "inconclusive fixed-point search: orbit neither settled in the disc "
        "nor escaped to the boundary within %d steps" % _FP_MAX_ITER
    )


# --- spec-string parsing ------------------------------------------------------

_FAMILIES = {
    "mobius_self_map": (mobius_self_map, ("lambda",)),
    "phi_r1": (phi_r1, ("r",)),
    "phi_rk": (phi_rk, ("r", "k")),
    "psi_power": (psi_power, ("beta",)),
    "affine": (affine, ("c0", "c1")),
    "mobius_auto": (mobius_auto, ("a",)),
}


def _parse_number(text: str) -> complex:
    t = text.strip().replace("i", "j")
    try:
        value = complex(t)
    except ValueError as exc:
        raise ParameterError("cannot parse numeric parameter %r" % text) from exc
    return value


def from_spec(text: str) -> AnalyticFunction:
    """Build a catalog function from ``name(:key=value | :v1,v2,...)`` strings.

    Keys may come in any order; canonical labels sort them.  ``polynomial``
    takes positional ascending coefficients, e.g. ``polynomial:0.5,0,0.5``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParameterError("empty function spec")
    name, _, rest = text.strip().partition(":")
    name = name.strip()
    if name == "identity":
        if rest:
            raise ParameterError("identity takes no parameters")
        return identity()
    items = [s for s in rest.split(",") if s.strip()] if rest else []
    if name == "polynomial":
        if not items or any("=" in s for s in items):
            raise ParameterError(
                "polynomial expects positional coefficients, e.g. polynomial:2,1"
            )
        return polynomial([_parse_number(s) for s in items])
    if name not in _FAMILIES:
        raise ParameterError(
            "unknown function family %r (known: %s)"
            % (name, ", ".join(sorted(_FAMILIES) + ["polynomial", "identity"]))
        )
    builder, keys = _FAMILIES[name]
    got: dict[str, complex] = {}
    for item in items:
        key, eq, value = item.partition("=")
        if not eq:
            raise ParameterError(
                "%s expects key=value parameters %s" % (name, "/".join(keys))
            )
        key = key.strip()
        if key not in keys:
            raise ParameterError("unknown parameter %r for family %s" % (key, name))
        if key in got:
            raise ParameterError("duplicate parameter %r" % key)
        got[key] = _parse_number(value)
    missing = [k for k in keys if k not in got]
    if missing:
        raise ParameterError(
            "family %s is missing parameters: %s" % (name, ", ".join(missing))
        )
    args = [got[k] for k in keys]
    if name in ("mobius_self_map", "phi_r1", "phi_rk", "psi_power"):
        for k, v in got.items():
            if v.imag != 0.0:
                raise ParameterError("parameter %r must be real for %s" % (k, name))
        args = [v.real for v in args]
    return builder(*args)
