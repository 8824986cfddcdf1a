"""Independent references for the benchmark's output checks.

Nothing here imports ``wco``: every function family the workloads use is
re-derived in closed form, and matrix truncations are rebuilt in coefficient
space, so a defect in the program's circle-sampling extraction cannot hide
behind a reference that shares it.

A function is described by a tuple ``(family, *params)``:

- ``("psi_power", beta)``            ``(1-z)**beta``
- ``("mobius_self_map", lam)``       ``lam*z / (1 - (1-lam)*z)``
- ``("polynomial", (c0, c1, ...))``  ascending coefficients
- ``("phi_rk", r, k)``               ``exp((z*(r*k-1) + (r-k)) / (1 - r*z))``
- ``("phi_r1", r)``                  ``exp((1-r)*(z+1) / (r*z-1))``
"""

from __future__ import annotations

import cmath

import numpy as np

# A matrix is untrusted when its largest entry deviation from the reference
# exceeds this share of the reference's largest entry.
UNTRUSTED_REL = 1e-6


def _fmt(x: float) -> str:
    return repr(float(x))


def spec(desc) -> str:
    """The CLI spec string for a function description."""
    family = desc[0]
    if family == "psi_power":
        return "psi_power:beta=%s" % _fmt(desc[1])
    if family == "mobius_self_map":
        return "mobius_self_map:lambda=%s" % _fmt(desc[1])
    if family == "polynomial":
        return "polynomial:" + ",".join(_fmt(c) for c in desc[1])
    if family == "phi_rk":
        return "phi_rk:r=%s,k=%s" % (_fmt(desc[1]), _fmt(desc[2]))
    if family == "phi_r1":
        return "phi_r1:r=%s" % _fmt(desc[1])
    raise ValueError("unknown family %r" % (family,))


def _exp_lft_params(desc):
    """``(A, B, r)`` with the function equal to ``exp((A z + B)/(1 - r z))``."""
    if desc[0] == "phi_rk":
        r, k = desc[1], desc[2]
        return r * k - 1.0, r - k, r
    r = desc[1]
    return r - 1.0, r - 1.0, r


def value_and_slope(desc, z: complex) -> tuple[complex, complex]:
    """Closed-form ``f(z)`` and ``f'(z)``."""
    family = desc[0]
    if family == "psi_power":
        beta = desc[1]
        w = 1.0 - z
        return w**beta, -beta * w ** (beta - 1.0)
    if family == "mobius_self_map":
        lam = desc[1]
        d = 1.0 - (1.0 - lam) * z
        return lam * z / d, lam / d**2
    if family == "polynomial":
        c = desc[1]
        v = sum(ck * z**k for k, ck in enumerate(c))
        s = sum(k * ck * z ** (k - 1) for k, ck in enumerate(c) if k)
        return complex(v), complex(s)
    a, b, r = _exp_lft_params(desc)
    d = 1.0 - r * z
    e = cmath.exp((a * z + b) / d)
    return e, (a + r * b) / d**2 * e


def taylor(desc, order: int) -> np.ndarray:
    """Exact Taylor coefficients ``0..order`` (complex128)."""
    n = order + 1
    out = np.zeros(n, dtype=np.complex128)
    family = desc[0]
    if family == "psi_power":
        # binomial series: c_j = c_{j-1} (j-1-beta) / j
        beta = desc[1]
        out[0] = 1.0
        for j in range(1, n):
            out[j] = out[j - 1] * (j - 1 - beta) / j
        return out
    if family == "mobius_self_map":
        lam = desc[1]
        out[1:] = lam * (1.0 - lam) ** np.arange(n - 1)
        return out
    if family == "polynomial":
        c = np.asarray(desc[1], dtype=np.complex128)[:n]
        out[: c.size] = c
        return out
    # exp of the LFT series g: g_0 = B, g_j = B r^j + A r^(j-1); then the
    # J.C.P. Miller recurrence j h_j = sum_{i=1..j} i g_i h_{j-i}
    a, b, r = _exp_lft_params(desc)
    j = np.arange(n)
    g = b * r**j
    g[1:] += a * r ** (j[1:] - 1)
    ig = j * g
    out[0] = np.exp(b)
    for m in range(1, n):
        out[m] = np.dot(ig[1 : m + 1], out[m - 1 :: -1]) / m
    return out


def reference_matrix(psi, phi, alpha: float, n: int) -> np.ndarray:
    """``entries[j, k] = <C e_k, e_j>`` for ``f -> psi * (f o phi)``.

    Column ``k`` holds the coefficients of ``psi * phi**k``, built by
    truncated convolution, rescaled into the orthonormal basis
    ``e_j = (j+1)**((alpha-1)/2) z**j``.
    """
    psi_c = taylor(psi, n - 1)
    phi_c = taylor(phi, n - 1)
    cols = np.empty((n, n), dtype=np.complex128)
    cols[0] = psi_c
    for k in range(1, n):
        cols[k] = np.convolve(cols[k - 1], phi_c)[:n]
    scale = (np.arange(n) + 1.0) ** ((alpha - 1.0) / 2.0)
    return cols.T * scale[None, :] / scale[:, None]


def matrix_deviation(entries, reference) -> tuple[float, float]:
    """``(max |entries - reference|, max |reference|)``."""
    entries = np.asarray(entries)
    return (
        float(np.max(np.abs(entries - reference))),
        float(np.max(np.abs(reference))),
    )


def dirichlet_norm_sq(desc, alpha: float, n: int) -> float:
    """``sum_{j<n} (j+1)**(1-alpha) |a_j|**2`` from the exact coefficients."""
    c = taylor(desc, n - 1)
    return float(np.sum((np.arange(n) + 1.0) ** (1.0 - alpha) * np.abs(c) ** 2))
