"""Boundedness and compactness criterion quantities on annular grids.

Six scalar fields of the pair ``(psi, phi)`` are evaluated on circles of
radius ``1 - 2**-m``; their per-annulus maxima drive a decay classification
that mirrors the sup/limit conditions of the theory.  The grid max is
reported as observed, never as a certified sup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import AnalyticFunction, MobiusAutomorphism, find_fixed_point
from .errors import ParameterError, PreconditionError
from .spaces import SpaceParams

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


def classify_decay(annulus_max) -> str:
    s = np.asarray(annulus_max, dtype=float)
    peak = float(np.max(s))
    if peak == 0.0:
        return VERDICT_ZERO
    tail = s[-TAIL_LENGTH:]
    nonincreasing = bool(np.all(np.diff(tail) <= 1e-12 * peak))
    if s[-1] < DECAY_FACTOR * peak and nonincreasing:
        return VERDICT_ZERO
    if s[-1] > GROWTH_FACTOR * float(np.median(s)):
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
        }


def _quantities_on_annulus(psi, phi, alpha, grid, m):
    z = grid.points(m)
    om = grid.one_minus_r_sq(m)
    pv, p1, p2 = psi.raw_jet(z)
    fv, f1, f2 = phi.raw_jet(z)
    omf = 1.0 - np.abs(fv) ** 2
    flagged = omf < 1e-14
    ratio = np.where(flagged, np.nan, om / np.where(flagged, 1.0, omf))
    vals = {
        "B1": np.abs(p2) * om,
        "B2": np.abs(f1 * p1) * om,
        "B3": np.abs(f2 * pv) * om,
        "B4": np.abs(f1 * pv) * ratio ** (alpha / 2.0 + 1.0),
        "K_half_alpha": np.abs(pv) * ratio ** (alpha / 2.0),
        "K_half_alpha_plus1": np.abs(pv) * ratio ** (alpha / 2.0 + 1.0),
    }
    out = {}
    for tag, arr in vals.items():
        keep = arr[~np.isnan(arr)]
        out[tag] = float(np.max(keep)) if keep.size else 0.0
    return out, int(np.count_nonzero(flagged)), float(np.max(np.abs(f2)))


def evaluate_quantities(
    psi: AnalyticFunction,
    phi: AnalyticFunction,
    p: SpaceParams,
    grid: AnnularGrid | None = None,
) -> CriteriaReport:
    """Evaluate all six criterion quantities and classify their decay."""
    p.require_core()
    if grid is None:
        grid = AnnularGrid()
    if not phi.claims_self_map:
        raise PreconditionError(
            "phi is not a verified self-map of the disc; criterion quantities "
            "require 1 - |phi|^2 > 0"
        )
    per_tag = {tag: [] for tag in QUANTITY_TAGS}
    flagged = 0
    phi_dd_max = []
    for m in grid.levels():
        row, nflag, dd_max = _quantities_on_annulus(psi, phi, p.alpha, grid, m)
        flagged += nflag
        phi_dd_max.append(dd_max)
        for tag in QUANTITY_TAGS:
            per_tag[tag].append(row[tag])
    quantities = {}
    for tag in QUANTITY_TAGS:
        seq = np.array(per_tag[tag])
        quantities[tag] = QuantitySummary(
            tag=tag,
            global_max=float(np.max(seq)),
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
    phi_dd_level = classify_decay(np.array(phi_dd_max)) in (
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
    auto = MobiusAutomorphism(complex(a))
    phi = auto.as_function()
    const = ((1.0 - abs(auto.a)) / (1.0 + abs(auto.a))) ** (p.alpha / 2.0)
    worst = -np.inf
    for m in grid.levels():
        z = grid.points(m)
        om = grid.one_minus_r_sq(m)
        pv = np.abs(psi.raw_jet(z)[0])
        fv = phi.raw_jet(z)[0]
        k = pv * (om / (1.0 - np.abs(fv) ** 2)) ** (p.alpha / 2.0)
        worst = max(worst, float(np.max(const * pv - k)))
    outer = float(np.max(np.abs(psi.raw_jet(grid.points(grid.m_max))[0])))
    return AutomorphismReport(
        a=auto.a,
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
    p: SpaceParams,
    grid: AnnularGrid | None = None,
    floor: float = 1e-2,
) -> BoundaryZeroReport:
    """Compactness forces the weight toward zero where the orbit and image
    cling to the boundary together; report ``min |psi|`` over those samples."""
    if not (0.0 < p.alpha < 1.0):
        raise ParameterError("the boundary-zero obstruction is stated for alpha in (0,1)")
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
    for m in grid.levels():
        if grid.radius(m) <= thresh:
            continue
        z = grid.points(m)
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
        for m in grid.levels():
            z = grid.points(m)
            om = grid.one_minus_r_sq(m)
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
    auto = MobiusAutomorphism(a)
    lo = ((1.0 - abs(a) ** 2) / 4.0) ** (alpha / 2.0)
    hi = ((1.0 + abs(a)) / (1.0 - abs(a))) ** (alpha / 2.0)
    qmin, qmax = np.inf, -np.inf
    for m in grid.levels():
        z = grid.points(m)
        om = grid.one_minus_r_sq(m)
        fv = phi.raw_jet(z)[0]
        gv = auto(fv)
        r_plain = (om / (1.0 - np.abs(fv) ** 2)) ** (alpha / 2.0)
        r_conj = (om / (1.0 - np.abs(gv) ** 2)) ** (alpha / 2.0)
        q = r_plain / r_conj
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
    return max(
        float(np.max(np.abs(f.raw_jet(grid.points(m))[0]))) for m in grid.levels()
    )
