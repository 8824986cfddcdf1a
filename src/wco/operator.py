"""Matrix truncations of weighted composition maps ``f -> psi * (f o phi)``.

Column ``k`` of the truncation holds the Taylor coefficients of
``psi * phi**k`` rescaled into the orthonormal basis.  The coefficients of
``psi`` and ``phi`` are the exact ones of ``AnalyticFunction.coefficients``
(catalog families, compositions, products); a function without
them is refused.  The columns then follow by direct truncated convolution,
so real symbols give real matrices and ``phi(0) = 0`` gives an exactly
lower-triangular one.  The whole assembly is deterministic for fixed inputs
and a fixed BLAS thread count.  The tests check it against an independent
exact route, Horner composition and one convolution from the catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .catalog import AnalyticFunction
from .errors import NumericsError, ParameterError, PreconditionError
from .series import finite_coefficients
from .spaces import SpaceParams, kernel_coordinates, kernel_vector


@dataclass(frozen=True)
class OperatorMatrix:
    """Truncation ``entries[j, k] = <C e_k, e_j>`` with its space and error bounds.

    ``entries`` is float64 when both symbols have real coefficients and
    complex128 otherwise.  ``col_errors[k]`` bounds the error of column
    ``k`` from rounding and from the underflow cut, in matrix-entry scale
    (see :func:`assemble_matrix`).
    ``warnings`` is always empty: every truncation is assembled from exact
    coefficients.  The field stays because the benchmark's assembly hook
    reads it.
    """

    entries: np.ndarray
    params: SpaceParams
    col_errors: np.ndarray
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


# The product of two numbers at or above 2**-511 is a normal float, so
# operands cut below it never reach a subnormal product, which x86 computes
# many times slower than a normal one.
_CUT = 2.0**-511


def _flush(a: np.ndarray) -> np.ndarray:
    """Set the entries of ``a`` below ``_CUT`` in modulus to exact zeros."""
    a[np.abs(a) < _CUT] = 0
    return a


def _scale_by_power_of_two(a: np.ndarray, e: int) -> np.ndarray:
    """``a *= 2**e`` in place, real or complex, exact where the result is
    normal; ``e`` may lie beyond the exponents of ``2**e`` as a float."""
    x = a.view(np.float64)
    np.ldexp(x, e, out=x)
    return a


# Output rows per Toeplitz slab in ``_power_columns``: few enough that a
# slab stays in cache and follows the triangle closely, enough to keep BLAS
# efficient.  32 and 128 rows timed up to a quarter slower at N = 512-2048.
_SLAB_ROWS = 64


def _power_columns(psi_c: np.ndarray, phi_c: np.ndarray) -> np.ndarray:
    """``out[:, k]`` holds the coefficients ``0..n-1`` of ``psi * phi**k``,
    each entry below ``2**-511`` cut to zero.

    Column blocks double: columns ``m..2m-1`` are the lower-triangular
    Toeplitz matrix ``t[j, i] = c[j - i]`` of the coefficients ``c`` of
    ``phi**m`` times columns ``0..m-1``, and ``phi**2m`` is the truncated
    square of ``phi**m``.  If ``phi**m`` has valuation ``v``, rows
    ``0..v-1`` of its block are zero, and row ``j`` of ``t`` has no nonzero
    past column ``j - v``.  So the block is computed in slabs of
    ``_SLAB_ROWS`` rows ``j0..j1-1`` from ``v`` on, each a product of
    ``t[j0:j1, :j1 - v]``, copied contiguously from the reversed
    coefficients, with rows ``0..j1-v-1`` of columns ``0..m-1``, written
    straight into the block.  No contraction is longer than ``n``.  Every
    coefficient is a direct sum of products, so one that vanishes in exact
    arithmetic because ``phi(0)`` is an exact zero comes out as an exact
    zero (FFT convolution would leave rounding noise there).  ``psi_c``,
    every ``phi**m`` and every slab are cut at ``2**-511``, so no product
    is subnormal.  The cut is absolute and meant for coefficients at most 1
    in modulus: a self-map's are, and :func:`assemble_matrix` scales
    ``psi_c`` so.
    """
    n = psi_c.size
    out = np.empty((n, n), dtype=np.result_type(psi_c, phi_c))
    out[:, 0] = psi_c
    _flush(out[:, 0])
    power, m = _flush(phi_c.copy()), 1
    while m < n:
        w = min(m, n - m)
        nonzero = np.flatnonzero(power)
        v = int(nonzero[0]) if nonzero.size else n
        out[:v, m : m + w] = 0
        # t[j - v, i] = rev[n - 1 - j + i] = c[j - i], zero for i > j: a view
        # with strides (-1, +1) elements; BLAS takes no negative strides, so
        # each slab is copied row by row forwards
        rev = np.zeros(2 * n - v, dtype=out.dtype)
        rev[:n] = power[::-1]
        s = rev.itemsize
        t = as_strided(rev[n - 1 - v :], shape=(n - v, n - v), strides=(-s, s))
        for j0 in range(v, n, _SLAB_ROWS):
            j1 = min(j0 + _SLAB_ROWS, n)
            slab = np.ascontiguousarray(t[j0 - v : j1 - v, : j1 - v])
            block = out[j0:j1, m : m + w]
            np.matmul(slab, out[: j1 - v, :w], out=block)
            _flush(block)
        m *= 2
        power = _flush(np.convolve(power, power)[:n])
    return out


def assemble_matrix(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    n: int,
) -> OperatorMatrix:
    """Assemble the N x N truncation of ``f -> psi * (f o phi)``.

    Coefficients ``0..N-1`` of each symbol come from
    ``AnalyticFunction.coefficients``; column ``k`` is then ``psi * phi**k``
    by direct truncated convolution.

    Underflow cut: the coefficients of ``psi`` are scaled by ``2**-e``, with
    ``e`` the binary exponent of the largest of them, so they are below 1
    in modulus like those of the self-map ``phi``.  ``_power_columns`` then
    sets every entry below ``2**-511`` of ``psi``, of each ``phi**m`` and
    of each column block to zero, and the matrix is scaled back by ``2**e``
    as the last step.  Both scalings are exact (the last one rounds only a
    result below the normal range), so the cut does not depend on the scale
    of ``psi``, and no product of the assembly is subnormal.

    ``col_errors[k]`` is the first-order bound ``p**k e_psi +
    2 k a p**(k-1) e_phi + c_k`` on the error of column ``k``, scaled to
    matrix entries.  ``a`` and ``p`` are the l1 norms of the coefficients of
    ``psi`` and ``phi``; with the rounding level ``gamma = N eps / (1 - N
    eps)`` of a length-N dot product, ``e_psi = gamma a`` and ``e_phi =
    2 gamma p`` (its own recurrence and the products of the convolution).
    The factor 2 in ``2 k`` covers the squarings of ``_power_columns``.
    ``c_k = (k+1) N q**k (2**(e-511) + 2 a 2**-511)``, with ``q = max(1,
    p)``, covers the cut: each cut entry of ``psi`` or of a column block is
    below ``2**(e-511)`` in column scale, and each cut entry of a power of
    ``phi`` below ``2**-511``, and column ``k`` passes at most ``k+1`` cuts
    of either kind.
    """
    p.require_core()
    if n < 1:
        raise ParameterError("matrix size must be positive")
    if not phi.claims_self_map:
        raise PreconditionError(
            "phi is not a verified self-map of the disc; the operator "
            "truncation is only meaningful for self-maps"
        )
    psi_c = psi.coefficients(n - 1)
    phi_c = phi.coefficients(n - 1)
    # refused like a norm's input; the check's complex copy is not used, so
    # real symbols keep real matrices
    finite_coefficients(psi_c)
    finite_coefficients(phi_c)
    if not np.any(psi_c):
        raise PreconditionError(
            "psi has no nonzero Taylor coefficient below order %d; the zero "
            "operator is excluded" % n
        )
    abs_psi = np.abs(psi_c)
    e = math.frexp(float(np.max(abs_psi)))[1]
    cols = _power_columns(_scale_by_power_of_two(np.array(psi_c), -e), phi_c)
    a = float(np.sum(abs_psi))
    l1_phi = float(np.sum(np.abs(phi_c)))
    eps = np.finfo(np.float64).eps
    gamma = n * eps / (1.0 - n * eps)
    k = np.arange(n)
    with np.errstate(over="ignore"):  # inf once p**k leaves the float range
        growth = l1_phi**k
        shifted = np.concatenate(([0.0], growth[:-1]))
        err = gamma * a * growth + 2.0 * gamma * l1_phi * 2.0 * k * a * shifted
        cut = math.ldexp(1.0, e - 511) + 2.0 * a * _CUT
        err += cut * n * (k + 1.0) * np.maximum(growth, 1.0)  # max(1, p)**k
    wk = p.basis_scale(n)  # (k+1)^{(alpha-1)/2}
    wj = 1.0 / p.basis_scale(n)  # (j+1)^{(1-alpha)/2}
    # scaled in place: no N x N temporaries beside the columns; 2**e goes
    # last, so its one rounding is the only one a subnormal result sees
    entries = cols
    entries *= wk[None, :]
    entries *= wj[:, None]
    _scale_by_power_of_two(entries, e)
    if not np.all(np.isfinite(entries)):
        raise NumericsError("matrix assembly produced non-finite entries")
    return OperatorMatrix(
        entries=entries,
        params=p,
        col_errors=err * wk * np.max(wj),
    )


@dataclass(frozen=True)
class AdjointKernelReport:
    """Relative residual of the kernel intertwining identity at one point."""

    z: complex
    phi_z: complex
    residual: float
    kernel_tail_z: float
    kernel_tail_phi_z: float
    size: int


def adjoint_kernel_check(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    z,
    n: int,
    matrix: OperatorMatrix | None = None,
) -> AdjointKernelReport:
    """Check that the adjoint truncation sends the kernel at ``z`` to
    ``conj(psi(z))`` times the kernel at ``phi(z)`` in coordinates.
    """
    z = complex(z)
    if abs(z) > 0.8:
        raise PreconditionError(
            "adjoint kernel check requires |z| <= 0.8; truncation tails "
            "dominate nearer the boundary"
        )
    if matrix is None:
        matrix = assemble_matrix(psi, phi, p, n)
    jet = phi.jet(z)
    phi_z = complex(jet.v)
    v_z = kernel_coordinates(z, p, n)
    v_phi = kernel_coordinates(phi_z, p, n)
    lhs = matrix.entries.conj().T @ v_z
    rhs = np.conj(complex(psi.value(z))) * v_phi
    residual = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(v_phi))
    return AdjointKernelReport(
        z=z,
        phi_z=phi_z,
        residual=residual,
        kernel_tail_z=kernel_vector(z, p, n - 1).tail_bound,
        kernel_tail_phi_z=kernel_vector(phi_z, p, n - 1).tail_bound,
        size=n,
    )
