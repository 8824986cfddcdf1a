import numpy as np
import pytest

from wco import catalog
from wco.criteria import (
    AnnularGrid,
    check_corollary_automorphism,
    check_corollary_boundary_zero,
    classify_decay,
    comparison_monotonicity,
    evaluate_quantities,
)
from wco.errors import ParameterError, PreconditionError
from wco.reportio import render_json
from wco.spaces import SpaceParams

DEEP = AnnularGrid(m_max=24, t_base=256)
ONE = catalog.polynomial([1.0])
REMARK_PSI = catalog.polynomial([2.0, 1.0])
REMARK_PHI = catalog.polynomial([0.5, 0.0, 0.5])


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


def test_non_self_map_rejected():
    with pytest.raises(PreconditionError):
        evaluate_quantities(ONE, catalog.psi_power(2.5), SpaceParams(0.5))


def test_unit_modulus_samples_flagged_not_fatal():
    # image hugging the circle at 1e-15 puts 1-|phi|^2 under the 1e-14 guard
    hug = 1.0 - 1e-15
    phi = catalog.custom(
        "hugging_constant",
        lambda z: np.full(np.shape(z), hug, complex),
        lambda z: np.zeros(np.shape(z), complex),
        lambda z: np.zeros(np.shape(z), complex),
        claims_self_map=True,
    )
    report = evaluate_quantities(ONE, phi, SpaceParams(0.5))
    assert report.flagged_samples > 0
    assert report.quantities["B1"].verdict == "tends_to_zero"


def test_sufficient_requires_univalence_metadata():
    # (1+z^2)/2 is an even map, so the sufficient-side theory is inapplicable
    report = evaluate_quantities(ONE, REMARK_PHI, SpaceParams(0.5))
    assert report.verdicts["sufficient_bounded"] is False


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
