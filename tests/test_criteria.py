import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest

from wco import catalog
from wco.criteria import (
    QUANTITY_TAGS,
    AnnularGrid,
    _median,
    check_corollary_automorphism,
    check_corollary_boundary_zero,
    classify_decay,
    comparison_monotonicity,
    evaluate_quantities,
    evaluate_rows,
    self_map_grid_max,
)
from wco.errors import ParameterError, PreconditionError
from wco.reportio import render_json
from wco.spaces import BLOCK_POINTS, SpaceParams

DEEP = AnnularGrid(m_max=24, t_base=256)
ONE = catalog.polynomial([1.0])
REMARK_PSI = catalog.polynomial([2.0, 1.0])
REMARK_PHI = catalog.polynomial([0.5, 0.0, 0.5])
# image hugging the circle at 1e-15 puts 1-|phi|^2 under the 1e-14 guard
HUGGING_PHI = catalog.custom(
    "hugging_constant",
    lambda z: np.full(np.shape(z), 1.0 - 1e-15, complex),
    lambda z: np.zeros(np.shape(z), complex),
    lambda z: np.zeros(np.shape(z), complex),
    claims_self_map=True,
)


def ex1_pair(alpha):
    return catalog.psi_power(2.0 + alpha), catalog.mobius_self_map(0.5)


# --- classification rule ---------------------------------------------------------


def test_classify_identically_zero():
    assert classify_decay([0.0] * 10) == "tends_to_zero"


def test_classify_geometric_decay():
    s = [2.0 ** -m for m in range(1, 15)]
    assert classify_decay(s) == "tends_to_zero"


def test_classify_level():
    s = [1.0] * 10 + [1.01, 0.99, 1.0, 1.0]
    assert classify_decay(s) == "bounded_positive"


def test_classify_growth():
    s = [1.0] * 10 + [2, 4, 8, 100.0]
    assert classify_decay(s) == "growing"


def test_classify_slow_decay_is_inconclusive():
    # fast enough to leave the 20% level band, too slow for the decay gate
    s = [0.7 ** m for m in range(1, 15)]
    assert classify_decay(s) == "inconclusive"


def test_classify_creeping_decay_reads_as_level():
    # a 10%-per-annulus decay stays inside the band; the policy cannot
    # distinguish it from a plateau on four annuli
    s = [0.9 ** m for m in range(1, 15)]
    assert classify_decay(s) == "bounded_positive"


@pytest.mark.parametrize("size", [5, 6, 14, 24])
def test_median_equals_numpy_median(size):
    rng = np.random.default_rng(size)
    for s in (rng.random(size), rng.random(size) * 1e-300, np.zeros(size),
              np.r_[rng.random(size - 1), np.nan]):
        assert repr(_median(s)) == repr(float(np.median(s)))


# --- quantity evaluation -----------------------------------------------------------


def test_small_dilation_is_certified_compact():
    report = evaluate_quantities(ONE, catalog.affine(0, 0.5), SpaceParams(0.5))
    for tag in ("B1", "B2", "B3", "B4", "K_half_alpha_plus1"):
        assert report.quantities[tag].verdict == "tends_to_zero", tag
    # K_half_alpha decays like (1-r^2)^{alpha/2}: truly to zero but at a
    # rate the certification gate cannot reach on any admissible grid
    k_seq = report.quantities["K_half_alpha"].annulus_max
    assert np.all(np.diff(k_seq) < 0)
    assert k_seq[-1] < 0.2 * k_seq[0]
    assert report.verdicts["sufficient_compact"] is True
    assert report.verdicts["sufficient_bounded"] is True


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_power_weight_mobius_pair_certified_compact(alpha):
    psi, phi = ex1_pair(alpha)
    report = evaluate_quantities(psi, phi, SpaceParams(alpha), DEEP)
    assert report.verdicts["sufficient_compact"] is True


def test_power_weight_k_plus1_decay_envelope():
    alpha = 0.5
    psi, phi = ex1_pair(alpha)
    report = evaluate_quantities(psi, phi, SpaceParams(alpha), DEEP)
    seq = report.quantities["K_half_alpha_plus1"].annulus_max
    oms = np.array([DEEP.one_minus_r_sq(m) for m in DEEP.levels()])
    envelope = oms ** (alpha / 2.0 + 1.0)
    c = (seq[0] / envelope[0]) * 3.0
    assert np.all(seq <= c * envelope)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_remark_pair_fails_necessary_compactness(alpha):
    report = evaluate_quantities(REMARK_PSI, REMARK_PHI, SpaceParams(alpha), DEEP)
    assert report.quantities["K_half_alpha"].verdict == "bounded_positive"
    assert report.verdicts["necessary_compact_ok"] is False
    assert report.verdicts["sufficient_compact"] is False


def test_necessary_verdicts_absent_outside_zero_one():
    psi, phi = ex1_pair(-0.5)
    report = evaluate_quantities(psi, phi, SpaceParams(-0.5), DEEP)
    assert report.verdicts["necessary_bounded_ok"] is None
    assert report.verdicts["necessary_compact_ok"] is None


def test_exp_lft_bounded_with_level_quantity():
    report = evaluate_quantities(ONE, catalog.phi_r1(0.5), SpaceParams(0.5), DEEP)
    assert report.quantities["B4"].verdict == "bounded_positive"
    assert report.verdicts["sufficient_bounded"] is True
    assert report.verdicts["sufficient_compact"] is False


def test_iff_verdicts_emitted_when_hypotheses_detected():
    # alpha large enough that even the slow quantity certifies its decay:
    # characterization hypotheses hold and both directions come out true
    report = evaluate_quantities(ONE, catalog.affine(0, 0.5), SpaceParams(0.9), DEEP)
    assert report.verdicts["iff_bounded"] is True
    assert report.verdicts["iff_compact"] is True
    # boundary-touching univalent symbol: quantity levels off, so the
    # characterization reports bounded but refutes compact
    report = evaluate_quantities(ONE, catalog.phi_r1(0.5), SpaceParams(0.5), DEEP)
    assert report.verdicts["iff_bounded"] is True
    assert report.verdicts["iff_compact"] is False


def test_iff_verdicts_suppressed_without_hypotheses():
    # non-univalent symbol: the characterization does not apply
    report = evaluate_quantities(REMARK_PSI, REMARK_PHI, SpaceParams(0.5), DEEP)
    assert report.verdicts["iff_bounded"] is None
    assert report.verdicts["iff_compact"] is None


def test_spectral_hypotheses_need_decaying_B1_and_K_half_alpha_plus1():
    # the spectral characterization assumes B1 and K_half_alpha_plus1 tend to
    # 0; for the remark pair and phi_r1 only B1 does
    grid = AnnularGrid(m_max=14)
    for psi, phi, want in [
        (*ex1_pair(0.5), True),
        (REMARK_PSI, REMARK_PHI, False),
        (ONE, catalog.phi_r1(0.6), False),
    ]:
        report = evaluate_quantities(psi, phi, SpaceParams(0.5), grid)
        assert report.quantities["B1"].verdict == "tends_to_zero"
        k_plus1 = report.quantities["K_half_alpha_plus1"].verdict
        assert k_plus1 == ("tends_to_zero" if want else "bounded_positive")
        assert report.spectral_hypotheses is want


def test_non_self_map_rejected():
    with pytest.raises(PreconditionError):
        evaluate_quantities(ONE, catalog.psi_power(2.5), SpaceParams(0.5))


def test_unit_modulus_samples_flagged_not_fatal():
    report = evaluate_quantities(ONE, HUGGING_PHI, SpaceParams(0.5))
    assert report.flagged_samples > 0
    assert report.quantities["B1"].verdict == "tends_to_zero"


def test_sufficient_requires_univalence_metadata():
    # (1+z^2)/2 is an even map, so the sufficient-side theory is inapplicable
    report = evaluate_quantities(ONE, REMARK_PHI, SpaceParams(0.5))
    assert report.verdicts["sufficient_bounded"] is False


# --- grid blocks ---------------------------------------------------------------------

# t_base 600 splits each angular count over several blocks (3 levels of 600
# points, then 1 level of 1200), t_base 1500 gives one-level blocks above the
# cap (3000 points), and 256 at M-max 24 splits only the doubled count
BLOCK_GRIDS = [
    AnnularGrid(m_max=14),
    AnnularGrid(m_max=20),
    DEEP,
    AnnularGrid(m_max=14, t_base=600),
    AnnularGrid(m_max=10, t_base=1500),
]


def _grid_id(grid):
    return "M%d_T%d" % (grid.m_max, grid.t_base)


BLOCK_PAIRS = {
    "ex1": ex1_pair(0.5),
    "remark": (REMARK_PSI, REMARK_PHI),
    "phi_r1": (ONE, catalog.phi_r1(0.6)),
    "hugging": (ONE, HUGGING_PHI),
}


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=_grid_id)
def test_blocks_cover_each_level_once_within_the_cap(grid):
    levels = [m for block_levels, _, _ in grid.blocks for m in block_levels]
    assert levels == list(grid.levels())
    for block_levels, z, om in grid.blocks:
        counts = {grid.angular_count(m) for m in block_levels}
        assert len(counts) == 1
        assert z.shape == (len(block_levels), counts.pop())
        assert z.size <= BLOCK_POINTS or len(block_levels) == 1
        assert om.shape == (len(block_levels), 1)
        for row, m in enumerate(block_levels):
            assert np.array_equal(z[row], grid.points(m))
            assert om[row, 0] == grid.one_minus_r_sq(m)
        assert not z.flags.writeable and not om.flags.writeable
    assert grid.blocks is grid.blocks


def _per_level_quantities(psi, phi, alpha, grid):
    """The six quantities one annulus at a time, flagged samples dropped."""
    per_tag = {tag: [] for tag in QUANTITY_TAGS}
    flagged = 0
    for m in grid.levels():
        z = grid.points(m)
        om = grid.one_minus_r_sq(m)
        pv, p1, p2 = psi.raw_jet(z)
        fv, f1, f2 = phi.raw_jet(z)
        omf = 1.0 - np.abs(fv) ** 2
        bad = omf < 1e-14
        flagged += int(np.count_nonzero(bad))
        ratio = np.where(bad, np.nan, om / np.where(bad, 1.0, omf))
        vals = {
            "B1": np.abs(p2) * om,
            "B2": np.abs(f1 * p1) * om,
            "B3": np.abs(f2 * pv) * om,
            "B4": np.abs(f1 * pv) * ratio ** (alpha / 2.0 + 1.0),
            "K_half_alpha": np.abs(pv) * ratio ** (alpha / 2.0),
            "K_half_alpha_plus1": np.abs(pv) * ratio ** (alpha / 2.0 + 1.0),
        }
        for tag, arr in vals.items():
            keep = arr[~np.isnan(arr)]
            per_tag[tag].append(float(np.max(keep)) if keep.size else 0.0)
    return per_tag, flagged


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=_grid_id)
@pytest.mark.parametrize("pair", list(BLOCK_PAIRS))
def test_block_quantities_equal_per_level_loop(pair, grid):
    psi, phi = BLOCK_PAIRS[pair]
    report = evaluate_quantities(psi, phi, SpaceParams(0.5), grid)
    per_tag, flagged = _per_level_quantities(psi, phi, 0.5, grid)
    assert report.flagged_samples == flagged
    if pair == "hugging":
        # every sample is flagged, so the ratio quantities read 0.0 per level
        assert flagged == sum(grid.angular_counts())
        assert per_tag["B4"] == [0.0] * grid.m_max
    for tag in QUANTITY_TAGS:
        q = report.quantities[tag]
        assert q.annulus_max.tolist() == per_tag[tag], tag
        assert q.global_max == max(per_tag[tag])
        assert q.verdict == classify_decay(per_tag[tag]), tag


@pytest.mark.parametrize("grid", BLOCK_GRIDS[2:], ids=_grid_id)
def test_block_corollary_checks_equal_per_level_loops(grid):
    alpha, beta = 0.25, 0.75
    psi, phi = ex1_pair(0.5)
    levels = [(grid.points(m), grid.one_minus_r_sq(m)) for m in grid.levels()]

    def quotient(f, z, om, a):
        return (om / (1.0 - np.abs(f(z)) ** 2)) ** (a / 2.0)

    rep = comparison_monotonicity(psi, phi, alpha, beta, grid)
    want = max(
        float(np.max(np.abs(psi(z)) * quotient(phi, z, om, beta)
                     - np.abs(psi(z)) * quotient(phi, z, om, alpha)))
        for z, om in levels
    )
    assert rep.origin_fixed and rep.max_violation == want

    # 1 - |phi_a(w)|^2 = (1 - |a|^2)(1 - |w|^2) / |1 - conj(a) w|^2 turns the
    # quotient of the plain and the conjugated factor into this
    off = catalog.affine(0.5, 0.3)
    rep = comparison_monotonicity(ONE, off, alpha, beta, grid)
    q = [((1.0 - 0.5**2) / np.abs(1.0 - 0.5 * off(z)) ** 2) ** (alpha / 2.0)
         for z, _ in levels]
    assert rep.observed_quotient == (
        min(float(np.min(v)) for v in q), max(float(np.max(v)) for v in q)
    )

    auto = catalog.mobius_auto(0.5)
    rep = check_corollary_automorphism(psi, 0.5, SpaceParams(0.5), grid)
    const = rep.lower_constant
    want = max(
        float(np.max(const * np.abs(psi(z))
                     - np.abs(psi(z)) * quotient(auto, z, om, 0.5)))
        for z, om in levels
    )
    assert rep.max_violation == want
    assert rep.outer_annulus_max_psi == float(np.max(np.abs(psi(levels[-1][0]))))

    assert self_map_grid_max(phi, grid) == max(
        float(np.max(np.abs(phi(z)))) for z, _ in levels
    )

    rep = check_corollary_boundary_zero(REMARK_PSI, REMARK_PHI, grid)
    z = levels[-1][0]
    fv = REMARK_PHI(z)
    mask = (np.abs(fv) > rep.threshold_radius) & (np.abs(fv - z) < 0.125)
    assert rep.witness_count == int(np.count_nonzero(mask))
    assert rep.min_abs_psi == float(np.min(np.abs(REMARK_PSI(z[mask]))))


# --- report invariants ----------------------------------------------------------------


def test_monotone_annulus_tail_when_all_tend_to_zero():
    # at alpha = 0.9 even the slowest quantity decays ~2^(-0.45 m), so all
    # six certify on the deep grid and their tails must be nonincreasing
    report = evaluate_quantities(ONE, catalog.affine(0, 0.5), SpaceParams(0.9), DEEP)
    for tag, q in report.quantities.items():
        assert q.verdict == "tends_to_zero", tag
        tail = q.annulus_max[-4:]
        assert np.all(np.diff(tail) <= 1e-12 * max(q.global_max, 1e-300)), tag


@pytest.mark.parametrize(
    "psi,phi",
    [
        (ONE, catalog.affine(0, 0.5)),
        (catalog.psi_power(2.5), catalog.mobius_self_map(0.5)),
        (ONE, catalog.phi_r1(0.5)),
        (catalog.polynomial([1.0, 0.5]), catalog.affine(0.25, 0.5)),
    ],
)
def test_sufficient_bounded_implies_necessary_ok(psi, phi):
    report = evaluate_quantities(psi, phi, SpaceParams(0.5), DEEP)
    if report.verdicts["sufficient_bounded"]:
        assert report.verdicts["necessary_bounded_ok"] is True


@pytest.mark.parametrize(
    "psi,phi",
    [
        (ONE, catalog.affine(0, 0.5)),
        (catalog.psi_power(2.5), catalog.mobius_self_map(0.5)),
        (catalog.polynomial([1.0, 0.5]), catalog.affine(0.25, 0.5)),
    ],
)
def test_schwarz_pick_verdict_implication(psi, phi):
    report = evaluate_quantities(psi, phi, SpaceParams(0.5), DEEP)
    if report.quantities["K_half_alpha"].verdict == "tends_to_zero":
        assert report.quantities["K_half_alpha_plus1"].verdict == "tends_to_zero"


def test_report_json_is_deterministic():
    psi, phi = ex1_pair(0.5)
    grid = AnnularGrid(m_max=10, t_base=64)
    a = render_json(
        evaluate_quantities(psi, phi, SpaceParams(0.5), grid).to_json_dict()
    )
    b = render_json(
        evaluate_quantities(psi, phi, SpaceParams(0.5), grid).to_json_dict()
    )
    assert a == b
    head = a.splitlines()[1].strip()
    assert head.startswith('"alpha"')  # fixed key order


# --- one block walk for many rows ------------------------------------------------


def _row_sets():
    """Row lists as the CLI builds them: shared objects in consecutive rows."""
    mobius = catalog.mobius_self_map(0.5)
    r1 = catalog.phi_r1(0.6)
    return {
        "alpha_sweep": [
            (REMARK_PSI, REMARK_PHI, SpaceParams(a)) for a in (-0.5, 0.25, 0.9)
        ],
        "mobius_phis": [
            (catalog.psi_power(2.5), catalog.mobius_self_map(lam), SpaceParams(0.5))
            for lam in (0.5, 0.6, 0.7, 0.8)
        ],
        "ex1": [
            (catalog.psi_power(2.0 + a), mobius, SpaceParams(a))
            for a in (-0.5, 0.0, 0.5)
        ],
        # flags must not leak from one phi's run into the next
        "hugging": [
            (ONE, HUGGING_PHI, SpaceParams(0.25)),
            (ONE, HUGGING_PHI, SpaceParams(0.5)),
            (ONE, r1, SpaceParams(0.5)),
            (ONE, r1, SpaceParams(0.75)),
            (ONE, HUGGING_PHI, SpaceParams(0.75)),
        ],
    }


@pytest.mark.parametrize("grid", [AnnularGrid(), DEEP], ids=_grid_id)
@pytest.mark.parametrize("rows", list(_row_sets()))
def test_evaluate_rows_equals_each_row_alone(rows, grid):
    rows = _row_sets()[rows]
    reports = evaluate_rows(rows, grid)
    assert len(reports) == len(rows)
    for (psi, phi, p), report in zip(rows, reports):
        alone = evaluate_quantities(psi, phi, p, grid)
        assert report.to_json_dict() == alone.to_json_dict()
        assert report.flagged_samples == alone.flagged_samples
        for tag in QUANTITY_TAGS:
            a = report.quantities[tag].annulus_max
            b = alone.quantities[tag].annulus_max
            assert a.tobytes() == b.tobytes(), tag
    if rows[0][1] is HUGGING_PHI:
        assert reports[0].flagged_samples == sum(grid.angular_counts())
        assert reports[2].flagged_samples == 0


def _counting(f, calls):
    def raw_jet(z):
        calls[f.label] += 1
        return f.raw_jet(z)

    return dataclasses.replace(f, raw_jet=raw_jet)


@pytest.mark.parametrize("grid", [AnnularGrid(), DEEP], ids=_grid_id)
def test_alpha_sweep_samples_each_jet_once_per_block(grid):
    calls = Counter()
    psi, phi = (_counting(f, calls) for f in ex1_pair(0.5))
    rows = [(psi, phi, SpaceParams(a)) for a in (0.1, 0.3, 0.5, 0.7)]
    reports = evaluate_rows(rows, grid)
    assert calls == {psi.label: len(grid.blocks), phi.label: len(grid.blocks)}
    assert [r.alpha for r in reports] == [0.1, 0.3, 0.5, 0.7]


def test_shared_phi_is_sampled_once_while_psi_varies():
    calls = Counter()
    grid = AnnularGrid()
    phi = _counting(catalog.mobius_self_map(0.5), calls)
    psis = [_counting(catalog.psi_power(2.0 + a), calls) for a in (0.1, 0.5)]
    evaluate_rows([(psi, phi, SpaceParams(0.5)) for psi in psis], grid)
    assert calls[phi.label] == len(grid.blocks)
    assert all(calls[psi.label] == len(grid.blocks) for psi in psis)


def test_evaluate_rows_validates_every_row_before_sampling():
    calls = Counter()
    psi = _counting(ONE, calls)
    rows = [(psi, catalog.phi_r1(0.5), SpaceParams(0.5)),
            (psi, catalog.polynomial([0.0, 2.0]), SpaceParams(0.5))]
    with pytest.raises(PreconditionError):
        evaluate_rows(rows)
    assert not calls


def test_overflowing_weight_is_a_parameter_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy does not warn on the way
        with pytest.raises(ParameterError, match="non-finite criterion quantities"):
            evaluate_quantities(
                catalog.psi_power(1e300), catalog.mobius_self_map(0.5), SpaceParams(0.5)
            )


def _poisoned(f, k, bad):
    """``f`` with entry ``k`` of its jet set to ``bad`` at one sample per block."""

    def raw_jet(z):
        jet = [np.array(d, dtype=complex) for d in f.raw_jet(z)]
        jet[k].flat[-1] = bad
        return tuple(jet)

    return dataclasses.replace(f, raw_jet=raw_jet)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("k", [0, 1, 2], ids=["value", "d1", "d2"])
@pytest.mark.parametrize("which", ["psi", "phi"])
@pytest.mark.parametrize("pair", ["ex1", "hugging"])
def test_any_non_finite_jet_entry_is_refused(pair, which, k, bad):
    # the hugging pair has zero derivatives, so a bad entry meets zeros
    psi, phi = BLOCK_PAIRS[pair]
    if which == "psi":
        psi = _poisoned(psi, k, bad)
    else:
        phi = _poisoned(phi, k, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="not finite|non-finite"):
            evaluate_quantities(psi, phi, SpaceParams(0.5))


# --- corollary checks --------------------------------------------------------------------


def test_automorphism_inequality_tight_at_zero_parameter():
    rep = check_corollary_automorphism(ONE, 0.0, SpaceParams(0.5))
    assert rep.inequality_holds
    assert rep.max_violation <= 1e-12
    assert rep.lower_constant == 1.0


def test_automorphism_lower_bound_constant():
    rep = check_corollary_automorphism(ONE, 0.5, SpaceParams(0.5))
    assert abs(rep.lower_constant - (1.0 / 3.0) ** 0.25) <= 1e-15
    assert rep.inequality_holds
    assert rep.verdict == "not_compact"


def test_automorphism_cube_weight_witness():
    rep = check_corollary_automorphism(
        catalog.polynomial([1, -3, 3, -1.0]), 0.5, SpaceParams(0.5)
    )
    assert rep.outer_annulus_max_psi >= 1.0
    assert rep.verdict == "not_compact"


def test_automorphism_requires_alpha_in_zero_one():
    with pytest.raises(ParameterError):
        check_corollary_automorphism(ONE, 0.5, SpaceParams(-0.5))


def test_boundary_zero_obstruction_for_remark_pair():
    rep = check_corollary_boundary_zero(REMARK_PSI, REMARK_PHI, DEEP)
    assert rep.witness_count > 0
    assert rep.min_abs_psi > 2.9
    assert rep.verdict == "not_compact"


def test_boundary_zero_inconclusive_when_weight_vanishes():
    rep = check_corollary_boundary_zero(
        catalog.polynomial([1.0, -1.0]), REMARK_PHI, DEEP
    )
    assert rep.verdict == "inconclusive"
    assert rep.min_abs_psi < 1e-2


def test_boundary_zero_rejects_symbols_with_fixed_points():
    with pytest.raises(PreconditionError, match="fixed point"):
        check_corollary_boundary_zero(REMARK_PSI, catalog.affine(0, 0.5))


# --- comparison monotonicity ----------------------------------------------------------------


def test_comparison_pointwise_for_origin_fixing_map():
    rep = comparison_monotonicity(ONE, catalog.affine(0, 0.5), 0.25, 0.75)
    assert rep.origin_fixed and rep.holds
    assert rep.max_violation <= 1e-12


def test_comparison_for_power_weight_pair():
    psi, phi = ex1_pair(0.5)
    rep = comparison_monotonicity(psi, phi, 0.25, 0.75)
    assert rep.holds


def test_comparison_conjugation_constants_off_origin():
    phi = catalog.affine(0.5, 0.3)
    rep = comparison_monotonicity(ONE, phi, 0.5, 0.75)
    assert not rep.origin_fixed
    lo, hi = rep.conjugation_bounds
    assert abs(lo - (0.75 / 4.0) ** 0.25) <= 1e-15
    assert abs(hi - 3.0**0.25) <= 1e-15
    qmin, qmax = rep.observed_quotient
    assert lo - 1e-12 <= qmin and qmax <= hi + 1e-12
    assert rep.holds


def test_comparison_rejects_bad_exponents():
    with pytest.raises(ParameterError):
        comparison_monotonicity(ONE, catalog.affine(0, 0.5), 0.75, 0.25)
    # phi(0) outside the disc has no conjugating automorphism
    with pytest.raises(ParameterError):
        comparison_monotonicity(ONE, catalog.affine(1.5, 0.1), 0.25, 0.75)
