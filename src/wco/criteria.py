"""Boundedness and compactness criterion quantities on annular grids.

Six scalar fields of the pair ``(psi, phi)`` are evaluated on circles of
radius ``1 - 2**-m``; their per-annulus maxima drive a decay classification
that mirrors the sup/limit conditions of the theory.  The grid max is
reported as observed, never as a certified sup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import AnalyticFunction, find_fixed_point, mobius_auto
from .errors import ParameterError, PreconditionError
from .spaces import BLOCK_POINTS, SpaceParams

QUANTITY_TAGS = ("B1", "B2", "B3", "B4", "K_half_alpha", "K_half_alpha_plus1")

# Classification policy (recorded in every report): a sequence of per-annulus
# maxima tends to zero when the last value sits below 1e-3 of the peak with a
# nonincreasing tail; grows when the last value exceeds 10x the median; is a
# positive level when the last four values stay within a 20% band.
DECAY_FACTOR = 1e-3
GROWTH_FACTOR = 10.0
LEVEL_BAND = 0.2
TAIL_LENGTH = 4

VERDICT_ZERO = "tends_to_zero"
VERDICT_LEVEL = "bounded_positive"
VERDICT_GROWING = "growing"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AnnularGrid:
    """Circles ``|z| = 1 - 2**-m`` for ``m = 1..m_max``.

    Angle 0 is always a node, so radial peaks at boundary contact points on
    the positive axis (and, with even counts, at the negative axis) are
    sampled exactly.  The angular count doubles past the eighth annulus.
    Every evaluation walks :attr:`blocks`, built on first use.
    """

    m_max: int = 14
    t_base: int = 256

    def __post_init__(self):
        if self.m_max < 5:
            raise ParameterError("annular grid needs m_max >= 5")
        if self.t_base < 8 or self.t_base % 2:
            raise ParameterError("t_base must be an even count >= 8")

    def levels(self) -> range:
        return range(1, self.m_max + 1)

    def one_minus_r(self, m: int) -> float:
        return 2.0**-m

    def radius(self, m: int) -> float:
        return 1.0 - 2.0**-m

    def angular_count(self, m: int) -> int:
        return self.t_base if m <= 8 else 2 * self.t_base

    def one_minus_r_sq(self, m: int) -> float:
        u = self.one_minus_r(m)
        return u * (2.0 - u)

    def points(self, m: int) -> np.ndarray:
        t = self.angular_count(m)
        theta = 2.0 * np.pi * np.arange(t) / t
        return self.radius(m) * np.exp(1j * theta)

    def angular_counts(self) -> list[int]:
        return [self.angular_count(m) for m in self.levels()]

    @cached_property
    def blocks(self) -> tuple[tuple[range, np.ndarray, np.ndarray], ...]:
        """``(levels, z, one_minus_r_sq)`` triples covering ``levels()`` once,
        in order.  Each stacks consecutive levels of one angular count ``T``,
        as many as fit in ``BLOCK_POINTS`` points (one level when ``T`` alone
        exceeds it): ``z`` is the ``(len(levels), T)`` array whose rows are
        :meth:`points`, ``one_minus_r_sq`` the matching column.  Read-only."""
        out = []
        for t, group in itertools.groupby(self.levels(), self.angular_count):
            group = list(group)
            step = max(1, BLOCK_POINTS // t)
            for i in range(0, len(group), step):
                chunk = group[i : i + step]
                levels = range(chunk[0], chunk[-1] + 1)
                z = np.stack([self.points(m) for m in levels])
                om = np.array([[self.one_minus_r_sq(m)] for m in levels])
                z.setflags(write=False)
                om.setflags(write=False)
                out.append((levels, z, om))
        return tuple(out)


def _median(s: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, bit for bit, without the
    ``numpy.ma`` import (1.2 MB resident) that ``np.median`` makes on first
    use."""
    t = np.sort(s)
    if np.isnan(t[-1]):
        return math.nan
    h = t.size // 2
    return float(t[h] if t.size % 2 else (t[h - 1] + t[h]) / 2.0)


def classify_decay(annulus_max) -> str:
    s = np.asarray(annulus_max, dtype=float)
    peak = float(np.max(s))
    if peak == 0.0:
        return VERDICT_ZERO
    tail = s[-TAIL_LENGTH:]
    nonincreasing = bool(np.all(np.diff(tail) <= 1e-12 * peak))
    if s[-1] < DECAY_FACTOR * peak and nonincreasing:
        return VERDICT_ZERO
    if s[-1] > GROWTH_FACTOR * _median(s):
        return VERDICT_GROWING
    level = float(np.mean(tail))
    if level > 0.0 and bool(np.all(np.abs(tail - level) < LEVEL_BAND * level)):
        return VERDICT_LEVEL
    return VERDICT_INCONCLUSIVE


@dataclass(frozen=True)
class QuantitySummary:
    tag: str
    global_max: float
    annulus_max: np.ndarray
    verdict: str


@dataclass(frozen=True)
class CriteriaReport:
    alpha: float
    psi_label: str
    phi_label: str
    grid: AnnularGrid
    quantities: dict
    verdicts: dict
    assumed: tuple[str, ...]
    flagged_samples: int = 0

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "psi": self.psi_label,
            "phi": self.phi_label,
            "grid": {"M_max": self.grid.m_max, "T": self.grid.angular_counts()},
            "quantities": {
                tag: {
                    "global_max": q.global_max,
                    "annulus_max": [float(v) for v in q.annulus_max],
                    "verdict": q.verdict,
                }
                for tag, q in self.quantities.items()
            },
            "verdicts": dict(self.verdicts),
            "assumed": list(self.assumed),
            "flagged_samples": self.flagged_samples,
        }

    @property
    def spectral_hypotheses(self) -> bool:
        """Whether the decay hypotheses of the spectral characterization are
        certified: ``B1`` and ``K_half_alpha_plus1`` both tend to 0."""
        return all(
            self.quantities[tag].verdict == "tends_to_zero"
            for tag in ("B1", "K_half_alpha_plus1")
        )


def _row_peaks(arr: np.ndarray) -> np.ndarray:
    """Per-row maxima skipping NaN (flagged) samples, 0.0 for an all-NaN row."""
    peak = np.fmax.reduce(arr, axis=1)  # NaN only where a row is all NaN
    return np.where(np.isnan(peak), 0.0, peak)


def _rows_on_block(rows, z, om):
    """Per row of ``rows``, on one grid block: the per-level maxima of the
    six quantities (in ``QUANTITY_TAGS`` order), the flagged count and the
    per-level maxima of ``|phi''|``.

    A run of consecutive rows with the same ``psi`` object samples its jet
    once (and B1), a run with the same ``phi`` object its jet, the flags,
    the ratio ``(1 - r^2) / (1 - |phi|^2)`` and the ``|phi''|`` maxima once,
    and a run with the same pair B2 and B3 once; each row adds only its two
    powers of the ratio.  B1-B3 take ``max``, which keeps a nan, and the
    ratio quantities ``fmax``, which skips the flagged samples.
    """
    out = []
    psi = phi = None
    for r_psi, r_phi, p in rows:
        new_pair = r_psi is not psi or r_phi is not phi
        # a run's arrays are dropped before the next run's jet is sampled, so
        # the block holds one jet of each symbol at a time
        if new_pair:
            abs_f1_pv = None
        if r_psi is not psi:
            psi = r_psi
            pv = p1 = p2 = abs_pv = None
            pv, p1, p2 = psi.raw_jet(z)
            abs_pv = np.abs(pv)
            b1 = (np.abs(p2) * om).max(axis=1)
        if r_phi is not phi:
            phi = r_phi
            fv = f1 = f2 = omf = flagged = ratio = None
            fv, f1, f2 = phi.raw_jet(z)
            omf = 1.0 - np.abs(fv) ** 2
            if not math.isfinite(omf.min()):  # min keeps a nan
                raise ParameterError(
                    "%s is not finite on the criteria grid" % phi.label
                )
            flagged = omf < 1e-14
            ratio = np.where(flagged, np.nan, om / np.where(flagged, 1.0, omf))
            nflag = int(np.count_nonzero(flagged))
            dd_max = np.abs(f2).max(axis=1)
        if new_pair:
            abs_f1_pv = np.abs(f1 * pv)
            b2 = (np.abs(f1 * p1) * om).max(axis=1)
            b3 = (np.abs(f2 * pv) * om).max(axis=1)
        ratio_plus1 = ratio ** (p.alpha / 2.0 + 1.0)
        peaks = (
            b1,
            b2,
            b3,
            _row_peaks(abs_f1_pv * ratio_plus1),
            _row_peaks(abs_pv * ratio ** (p.alpha / 2.0)),
            _row_peaks(abs_pv * ratio_plus1),
        )
        out.append((peaks, nflag, dd_max))
    return out


def evaluate_rows(
    rows: list[tuple[AnalyticFunction, AnalyticFunction, SpaceParams]],
    grid: AnnularGrid | None = None,
) -> list[CriteriaReport]:
    """:func:`evaluate_quantities` for each ``(psi, phi, p)`` of ``rows``,
    in one walk over the grid blocks.

    Consecutive rows with the same ``psi`` or ``phi`` object share its jet
    and the arrays that do not depend on alpha (see ``_rows_on_block``);
    nothing is kept past a block.  Every report equals, bit for bit, that
    of its row alone.  A nan or inf in any jet reaches ``1 - |phi|^2`` or
    B1-B3 and is a :class:`ParameterError`, without numpy's warnings on the
    way (a weight such as ``psi_power:beta=1e300`` overflows).
    """
    if grid is None:
        grid = AnnularGrid()
    for _, phi, p in rows:
        p.require_core()
        if not phi.claims_self_map:
            raise PreconditionError(
                "phi is not a verified self-map of the disc; criterion "
                "quantities require 1 - |phi|^2 > 0"
            )
    # per row: the block maxima of each tag, the flagged counts and the
    # |phi''| maxima
    per_row = [([[] for _ in QUANTITY_TAGS], [], []) for _ in rows]
    with np.errstate(all="ignore"):
        for _, z, om in grid.blocks:
            on_block = _rows_on_block(rows, z, om)
            for (per_tag, flags, dd), (peaks, nflag, dd_max) in zip(per_row, on_block):
                for seq, peak in zip(per_tag, peaks):
                    seq.append(peak)
                flags.append(nflag)
                dd.append(dd_max)
    return [
        _report(psi, phi, p, grid, per_tag, sum(flags), dd)
        for (psi, phi, p), (per_tag, flags, dd) in zip(rows, per_row)
    ]


def evaluate_quantities(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    grid: AnnularGrid | None = None,
) -> CriteriaReport:
    """Evaluate all six criterion quantities and classify their decay."""
    return evaluate_rows([(psi, phi, p)], grid)[0]


def _report(psi, phi, p, grid, per_tag, flagged, phi_dd_max) -> CriteriaReport:
    """The report of one row from its per-block row maxima."""
    quantities = {}
    for tag, blocks in zip(QUANTITY_TAGS, per_tag):
        seq = np.concatenate(blocks)
        global_max = float(np.max(seq))
        if not math.isfinite(global_max):
            raise ParameterError(
                "%s with %s gives non-finite criterion quantities"
                % (psi.label, phi.label)
            )
        quantities[tag] = QuantitySummary(
            tag=tag,
            global_max=global_max,
            annulus_max=seq,
            verdict=classify_decay(seq),
        )

    def v(tag):
        return quantities[tag].verdict

    bounded_ok = {VERDICT_ZERO, VERDICT_LEVEL}
    b_tags = ("B1", "B2", "B3", "B4")
    sufficient_bounded = phi.claims_univalent and all(
        v(t) in bounded_ok for t in b_tags
    )
    sufficient_compact = phi.claims_univalent and all(
        v(t) == VERDICT_ZERO for t in b_tags
    )
    in_necessary_range = 0.0 < p.alpha < 1.0
    necessary_bounded_ok = (
        (v("K_half_alpha") != VERDICT_GROWING) if in_necessary_range else None
    )
    necessary_compact_ok = (
        (v("K_half_alpha") in (VERDICT_ZERO, VERDICT_INCONCLUSIVE))
        if in_necessary_range
        else None
    )
    # characterization hypotheses: bounded psi'' quantity and an H-infinity
    # proxy for phi'' (stable annulus maxima), univalent phi, alpha in (0,1)
    phi_dd_level = classify_decay(np.concatenate(phi_dd_max)) in (
        VERDICT_ZERO,
        VERDICT_LEVEL,
    )
    iff_bounded = None
    iff_compact = None
    if in_necessary_range and phi.claims_univalent and phi_dd_level:
        if v("B1") in bounded_ok:
            kv = v("K_half_alpha")
            iff_bounded = (
                None if kv == VERDICT_INCONCLUSIVE else kv != VERDICT_GROWING
            )
        if v("B1") == VERDICT_ZERO:
            kv = v("K_half_alpha")
            iff_compact = None if kv == VERDICT_INCONCLUSIVE else kv == VERDICT_ZERO

    verdicts = {
        "sufficient_bounded": sufficient_bounded,
        "sufficient_compact": sufficient_compact,
        "necessary_bounded_ok": necessary_bounded_ok,
        "necessary_compact_ok": necessary_compact_ok,
        "iff_bounded": iff_bounded,
        "iff_compact": iff_compact,
    }
    assumed = (
        "phi self-map: metadata (%s)" % phi.claims_self_map,
        "phi univalent: metadata (%s)" % phi.claims_univalent,
        "limit classification policy: decay below %.0e of peak, %gx median "
        "growth, %d%% level band over last %d annuli"
        % (DECAY_FACTOR, GROWTH_FACTOR, int(LEVEL_BAND * 100), TAIL_LENGTH),
    )
    return CriteriaReport(
        alpha=p.alpha,
        psi_label=psi.label,
        phi_label=phi.label,
        grid=grid,
        quantities=quantities,
        verdicts=verdicts,
        assumed=assumed,
        flagged_samples=flagged,
    )


@dataclass(frozen=True)
class AutomorphismReport:
    """No nonzero compact operator exists over an automorphism symbol."""

    a: complex
    lower_constant: float
    max_violation: float
    inequality_holds: bool
    outer_annulus_max_psi: float
    positivity_floor: float
    verdict: str


def check_corollary_automorphism(
    psi: AnalyticFunction,
    a,
    p: SpaceParams,
    grid: AnnularGrid | None = None,
    positivity_floor: float = 1e-6,
) -> AutomorphismReport:
    """Pointwise ``((1-|a|)/(1+|a|))**(alpha/2) |psi| <= K_half_alpha`` and a
    positivity witness for ``|psi|`` on the outermost annulus."""
    if not (0.0 < p.alpha < 1.0):
        raise ParameterError("the automorphism obstruction is stated for alpha in (0,1)")
    if grid is None:
        grid = AnnularGrid()
    a = complex(a)
    phi = mobius_auto(a)
    const = ((1.0 - abs(a)) / (1.0 + abs(a))) ** (p.alpha / 2.0)
    worst = -np.inf
    for _, z, om in grid.blocks:
        pv = np.abs(psi.raw_jet(z)[0])
        fv = phi.raw_jet(z)[0]
        k = pv * (om / (1.0 - np.abs(fv) ** 2)) ** (p.alpha / 2.0)
        worst = max(worst, float(np.max(const * pv - k)))
    # the last row of the last block is the outermost annulus
    outer = float(np.max(pv[-1]))
    return AutomorphismReport(
        a=a,
        lower_constant=const,
        max_violation=worst,
        inequality_holds=worst <= 1e-12,
        outer_annulus_max_psi=outer,
        positivity_floor=positivity_floor,
        verdict="not_compact" if outer > positivity_floor else "psi_vanishing",
    )


@dataclass(frozen=True)
class BoundaryZeroReport:
    """Witness for the boundary-vanishing obstruction when phi has no
    interior fixed point."""

    witness_count: int
    min_abs_psi: float | None
    threshold_radius: float
    floor: float
    verdict: str


def check_corollary_boundary_zero(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    grid: AnnularGrid | None = None,
    floor: float = 1e-2,
) -> BoundaryZeroReport:
    """Compactness forces the weight toward zero where the orbit and image
    cling to the boundary together; report ``min |psi|`` over those samples.

    Neither the witness search nor the verdict depends on alpha: a
    ``not_compact`` verdict is the paper's obstruction for every alpha in
    (0, 1) at once."""
    if grid is None:
        grid = AnnularGrid()
    if not psi.boundary_continuous:
        raise PreconditionError(
            "psi must be continuous up to the boundary for this obstruction"
        )
    if find_fixed_point(phi) is not None:
        raise PreconditionError(
            "phi has a fixed point in the disc; the boundary-zero obstruction "
            "assumes there is none"
        )
    thresh = 1.0 - 2.0 ** -(grid.m_max - 1)
    best = None
    count = 0
    for levels, z, _ in grid.blocks:
        outside = [grid.radius(m) > thresh for m in levels]
        if not any(outside):
            continue
        z = z[outside]
        fv = phi.raw_jet(z)[0]
        # the orbit and its image must cling to the same boundary point, so
        # a witness needs phi(z) close to z, not merely close to the circle
        mask = (np.abs(fv) > thresh) & (np.abs(fv - z) < 0.125)
        if not np.any(mask):
            continue
        count += int(np.count_nonzero(mask))
        pv = np.abs(psi.raw_jet(z[mask])[0])
        low = float(np.min(pv))
        best = low if best is None else min(best, low)
    if best is None:
        verdict = "inconclusive"
    else:
        verdict = "not_compact" if best > floor else "inconclusive"
    return BoundaryZeroReport(
        witness_count=count,
        min_abs_psi=best,
        threshold_radius=thresh,
        floor=floor,
        verdict=verdict,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise weighted comparison between two space parameters."""

    alpha: float
    beta: float
    origin_fixed: bool
    max_violation: float
    holds: bool
    conjugation_bounds: tuple[float, float] | None = None
    observed_quotient: tuple[float, float] | None = None


def comparison_monotonicity(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    alpha: float,
    beta: float,
    grid: AnnularGrid | None = None,
) -> ComparisonReport:
    """For ``phi(0) = 0``: ``K^beta <= K^alpha`` pointwise (Schwarz).  For an
    off-origin image of 0 the two sides are compared through the Mobius
    conjugate, whose derivative is pinched between explicit constants."""
    if not (0.0 < alpha < beta < 1.0):
        raise ParameterError("need 0 < alpha < beta < 1 for the comparison")
    if grid is None:
        grid = AnnularGrid()
    a = complex(phi.value(0.0))
    if abs(a) <= 1e-10:
        worst = -np.inf
        for _, z, om in grid.blocks:
            pv = np.abs(psi.raw_jet(z)[0])
            fv = phi.raw_jet(z)[0]
            ratio = om / (1.0 - np.abs(fv) ** 2)
            worst = max(
                worst,
                float(np.max(pv * ratio ** (beta / 2.0) - pv * ratio ** (alpha / 2.0))),
            )
        return ComparisonReport(
            alpha=alpha,
            beta=beta,
            origin_fixed=True,
            max_violation=worst,
            holds=worst <= 1e-12,
        )
    if not abs(a) < 1.0:
        raise ParameterError("phi(0) must lie inside the disc")
    lo = ((1.0 - abs(a) ** 2) / 4.0) ** (alpha / 2.0)
    hi = ((1.0 + abs(a)) / (1.0 - abs(a))) ** (alpha / 2.0)
    qmin, qmax = np.inf, -np.inf
    for _, z, _ in grid.blocks:
        fv = phi.raw_jet(z)[0]
        # 1 - |phi_a(w)|^2 = (1 - |a|^2)(1 - |w|^2) / |1 - conj(a) w|^2, so the
        # quotient of the plain and the conjugated factor needs no 1 - |fv|^2
        q = ((1.0 - abs(a) ** 2) / np.abs(1.0 - np.conj(a) * fv) ** 2) ** (alpha / 2.0)
        qmin = min(qmin, float(np.min(q)))
        qmax = max(qmax, float(np.max(q)))
    tol = 1e-12
    holds = (qmin >= lo - tol) and (qmax <= hi + tol)
    violation = max(lo - qmin, qmax - hi)
    return ComparisonReport(
        alpha=alpha,
        beta=beta,
        origin_fixed=False,
        max_violation=float(violation),
        holds=holds,
        conjugation_bounds=(lo, hi),
        observed_quotient=(qmin, qmax),
    )


def self_map_grid_max(f: AnalyticFunction, grid: AnnularGrid | None = None) -> float:
    """Largest ``|f|`` over the standard validation grid."""
    if grid is None:
        grid = AnnularGrid()
    return max(float(np.max(np.abs(f.raw_jet(z)[0]))) for _, z, _ in grid.blocks)
