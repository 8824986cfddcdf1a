"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Criterion 5 applies its [0.9, 1.1] window to the kernel norm
divided by the two-term expansion of the sum, not by the leading term alone;
the comment above that test says why.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from wco import catalog
from wco.criteria import AnnularGrid, comparison_monotonicity, evaluate_quantities
from wco.operator import adjoint_kernel_check, assemble_matrix
from wco.spaces import (
    QuadratureGrid,
    SpaceParams,
    growth_bound_check,
    inner_product,
    kernel_norm_sq,
    kernel_vector,
    norm_sq_coeff,
)
from wco.spectral import (
    conjugation_invariance_check,
    eigenpairs_as_series,
    predict_spectrum,
    schroder_residual,
    truncated_eigenvalues,
)

DEEP_GRID = AnnularGrid(m_max=24, t_base=256)


def verdict(num, name, ok, detail=""):
    line = "ACCEPTANCE %d %-28s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "   (%s)" % detail
    print(line)
    assert ok, line


# --- criterion 1: triangular spectrum of the worked geometric example -------------


def test_criterion_1_triangular_spectrum():
    start = time.monotonic()
    p = SpaceParams(0.5)
    psi = catalog.psi_power(2.5)
    phi = catalog.mobius_self_map(0.5)
    m = assemble_matrix(psi, phi, p, 64)

    upper_ok = all(
        float(np.max(np.abs(np.triu(m.entries, 1)[:, k]))) <= m.col_errors[k]
        for k in range(64)
    )
    diag_err = float(np.max(np.abs(np.diag(m.entries) - 0.5 ** np.arange(64.0))))
    eig = truncated_eigenvalues(m)
    eig_err = max(abs(eig[i] - 0.5**i) for i in range(6))
    elapsed = time.monotonic() - start
    verdict(
        1,
        "triangular-spectrum",
        upper_ok and diag_err <= 1e-8 and eig_err <= 1e-8 and elapsed < 10.0,
        "diag %.1e, eig6 %.1e, %.1fs" % (diag_err, eig_err, elapsed),
    )


# --- criterion 2: fixed point away from the origin --------------------------------

_case2_errors = {}


def _case2(alpha):
    if alpha not in _case2_errors:
        p = SpaceParams(alpha)
        psi = catalog.polynomial([0, 0, 1.0])
        phi = catalog.affine(0.25, 0.5)
        pred = predict_spectrum(psi, phi, p, count=12)
        want = [0.25 * 0.5**n for n in range(12)]
        assert np.max(np.abs(np.array(pred.predicted[:12]) - want)) <= 1e-12
        per_n = {}
        for n in (24, 48, 96):
            eig = truncated_eigenvalues(assemble_matrix(psi, phi, p, n))
            errs = []
            used = np.zeros(eig.size, bool)
            for target in want[:6]:
                free = np.flatnonzero(~used)
                flat = np.abs(eig[free] - target)
                pick = free[int(np.argmin(flat))]
                used[pick] = True
                errs.append(float(np.min(flat)))
            per_n[n] = errs
        _case2_errors[alpha] = per_n
    return _case2_errors[alpha]


def test_criterion_2_off_origin_convergence():
    start = time.monotonic()
    ok = True
    details = []
    for alpha in (-0.5, 0.5):
        per_n = _case2(alpha)
        worst = {n: max(errs) for n, errs in per_n.items()}
        # nonincreasing up to the machine-noise floor of 1e-9
        mono = all(
            worst[b] <= max(worst[a], 1e-9)
            for a, b in ((24, 48), (48, 96))
        )
        ok = ok and mono and worst[96] <= 1e-5
        details.append("alpha=%g err96=%.1e" % (alpha, worst[96]))
    elapsed = time.monotonic() - start
    verdict(2, "off-origin-convergence", ok and elapsed < 30.0,
            "; ".join(details) + ", %.1fs" % elapsed)


# --- criterion 3: conjugation coherence --------------------------------------------


def test_criterion_3_conjugation_coherence():
    p = SpaceParams(0.5)
    psi = catalog.polynomial([0, 0, 1.0])
    phi = catalog.affine(0.25, 0.5)
    eig = truncated_eigenvalues(assemble_matrix(psi, phi, p, 96))
    rep = conjugation_invariance_check(psi, phi, predict_spectrum(psi, phi, p), p, eig)
    want = 0.25 * 0.5 ** np.arange(12.0)
    diag_err = float(np.max(np.abs(rep.diagonal[:12] - want)))
    # per-index envelope derived from the criterion-2 convergence table
    errs96 = _case2(0.5)[96]
    agree_ok = True
    for i in range(6):
        envelope = max(1e-8, 4.0 * errs96[i])
        agree_ok = agree_ok and abs(rep.diagonal[i] - eig[i]) <= envelope
    verdict(
        3,
        "conjugation-coherence",
        diag_err <= 1e-8 and agree_ok and rep.coherent,
        "diag %.1e" % diag_err,
    )


# --- criterion 4: compactness verdicts reproduce the worked conclusions -------------


def test_criterion_4_verdict_reproduction():
    start = time.monotonic()
    ok = True
    for alpha in (-0.5, 0.0, 0.5):
        report = evaluate_quantities(
            catalog.psi_power(2.0 + alpha),
            catalog.mobius_self_map(0.5),
            SpaceParams(alpha),
            DEEP_GRID,
        )
        ok = ok and report.verdicts["sufficient_compact"] is True
    for alpha in (0.25, 0.5, 0.75):
        report = evaluate_quantities(
            catalog.polynomial([2.0, 1.0]),
            catalog.polynomial([0.5, 0.0, 0.5]),
            SpaceParams(alpha),
            DEEP_GRID,
        )
        ok = ok and report.verdicts["necessary_compact_ok"] is False
    for r in (0.3, 0.6):
        for alpha in (-0.5, 0.0, 0.5):
            report = evaluate_quantities(
                catalog.polynomial([1.0]),
                catalog.phi_r1(r),
                SpaceParams(alpha),
                DEEP_GRID,
            )
            ok = ok and report.verdicts["sufficient_bounded"] is True
    elapsed = time.monotonic() - start
    verdict(4, "compactness-verdicts", ok and elapsed < 60.0, "%.1fs" % elapsed)


# --- criterion 5: kernel-norm asymptotics --------------------------------------------


def test_criterion_5_kernel_asymptotics():
    # Window: [0.9, 1.1] for alpha in {0.25, 0.5, 0.75} and |w| in
    # {0.9, 0.99, 0.999}.  With x = |w|^2 and t = -ln x the certified sum is
    # Li_{1-alpha}(x)/x, and the singular expansion of the polylogarithm
    #   Li_s(e^-t) = Gamma(1-s) t^(s-1) + sum_k zeta(s-k) (-t)^k / k!
    # (Flajolet & Sedgewick, Analytic Combinatorics, 2009, Thm VI.7) gives
    #   sum = (Gamma(alpha) t^-alpha + zeta(1-alpha) - zeta(-alpha) t + ...)/x.
    # The leading-order ratio res.ratio = sum/(Gamma(alpha)(1-x)^-alpha)
    # therefore tends to 1 only like 1 + zeta(1-alpha)/Gamma(alpha)(1-x)^alpha,
    # from below since zeta(1-alpha) < 0; at alpha = 0.25 that gap is still
    # about -0.2 at |w| = 0.999, so no finite |w| here puts it in the window.
    # The window is applied to sum/A2 with the two-term value
    #   A2 = (Gamma(alpha) t^-alpha + zeta(1-alpha)) / x,
    # whose error must also shrink towards the boundary; the leading-order
    # ratio must rise strictly towards 1 and stay at or below it.
    mp = pytest.importorskip("mpmath")
    rows = []
    ok = True
    for alpha in (0.25, 0.5, 0.75):
        p = SpaceParams(alpha)
        zeta = float(mp.zeta(1.0 - alpha))
        ratios = []
        two_term = []
        for absw in (0.9, 0.99, 0.999):
            order = int(80.0 / (1.0 - absw * absw))
            res = kernel_norm_sq(absw, p, order)
            assert res.tail_bound <= 1e-12 * res.partial_sum
            x = absw * absw
            a2 = (math.gamma(alpha) * (-math.log(x)) ** (-alpha) + zeta) / x
            ratios.append(res.ratio)
            two_term.append(res.partial_sum / a2)
        errors = [abs(r - 1.0) for r in two_term]
        leading = ratios[0] < ratios[1] < ratios[2] <= 1.0
        shrinking = errors[0] > errors[1] > errors[2]
        window = all(0.9 <= r <= 1.1 for r in two_term)
        ok = ok and leading and shrinking and window
        rows.append(
            "alpha=%g: leading %s, two-term %s"
            % (alpha, ["%.3f" % r for r in ratios], ["%.6f" % r for r in two_term])
        )
    verdict(5, "kernel-asymptotics", ok, "; ".join(rows))


# --- criterion 6: adjoint kernel identity ---------------------------------------------


def test_criterion_6_adjoint_kernel_identity():
    p = SpaceParams(0.5)
    psi = catalog.psi_power(2.5)
    phi = catalog.mobius_self_map(0.5)
    matrix = assemble_matrix(psi, phi, p, 512)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        radius = 0.7 * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        z = radius * complex(math.cos(theta), math.sin(theta))
        rep = adjoint_kernel_check(psi, phi, p, z, 512, matrix=matrix)
        worst = max(worst, rep.residual)
    verdict(6, "adjoint-kernel-identity", worst <= 1e-6, "max res %.1e" % worst)


# --- criterion 7: property suites -------------------------------------------------------


def test_criterion_7_property_suite():
    ok = True
    notes = []
    p = SpaceParams(0.5)
    grid = AnnularGrid(m_max=12, t_base=128)

    # Schwarz-Pick quotient bound for catalog self-maps
    sp_ok = True
    for f in (catalog.mobius_self_map(0.5), catalog.phi_rk(0.5, 2.0),
              catalog.affine(0.25, 0.5), catalog.polynomial([0.5, 0, 0.5])):
        bound = (1 + abs(f.value(0.0))) / (1 - abs(f.value(0.0)))
        for m in grid.levels():
            z = grid.points(m)
            quotient = grid.one_minus_r(m) / (1 - np.abs(f.value(z)))
            sp_ok = sp_ok and float(np.max(quotient)) <= bound + 1e-9
    ok &= sp_ok
    notes.append("schwarz-pick %s" % sp_ok)

    # automorphism identity
    auto_ok = True
    for a in (0.0, 0.5, 0.3 + 0.4j):
        f = catalog.mobius_auto(a)
        for m in grid.levels():
            z = grid.points(m)
            jet = f.jet(z)
            lhs = grid.one_minus_r_sq(m) * np.abs(jet.d1)
            rhs = 1 - np.abs(jet.v) ** 2
            auto_ok = auto_ok and float(np.max(np.abs(lhs - rhs))) <= 1e-12
    ok &= auto_ok
    notes.append("automorphism %s" % auto_ok)

    # jets against central differences
    h = 1e-5
    rng = np.random.default_rng(5)
    pts = 0.9 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
    fd_ok = True
    for f in (catalog.psi_power(2.5), catalog.mobius_self_map(0.5),
              catalog.phi_r1(0.5)):
        jet = f.jet(pts)
        d1 = (f.value(pts + h) - f.value(pts - h)) / (2 * h)
        d2 = (
            f.value(pts + h) + f.value(pts - h)
            - f.value(pts + 1j * h) - f.value(pts - 1j * h)
        ) / (2 * h * h)
        noise = 16 * 2.2e-16 * np.abs(jet.v) / (h * h)
        fd_ok = fd_ok and bool(
            np.all(np.abs(d1 - jet.d1) <= 1e-6 * np.abs(jet.d1) + 1e-10)
        )
        fd_ok = fd_ok and bool(
            np.all(np.abs(d2 - jet.d2) <= 1e-6 * np.abs(jet.d2) + noise + 1e-10)
        )
    ok &= fd_ok
    notes.append("jets-vs-fd %s" % fd_ok)

    # the product convolution of the catalog against the schoolbook oracle,
    # integer coefficients
    rng = np.random.default_rng(6)
    conv_ok = True
    for _ in range(25):
        a = rng.integers(-8, 9, size=9) + 1j * rng.integers(-8, 9, size=9)
        b = rng.integers(-8, 9, size=9) + 1j * rng.integers(-8, 9, size=9)
        prod = catalog.product(catalog.polynomial(a), catalog.polynomial(b))
        got = prod.coefficients(8)
        want = [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(9)]
        conv_ok = conv_ok and list(got) == want
    ok &= conv_ok
    notes.append("cauchy-oracle %s" % conv_ok)

    # reproducing property
    rep_ok = True
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        theta = 2 * math.pi * rng.random()
        w = 0.9 * math.sqrt(rng.random()) * complex(math.cos(theta), math.sin(theta))
        k = kernel_vector(w, p, 16)
        got = inner_product(coeffs, k.coeffs, p)
        fw = sum(c * w**n for n, c in enumerate(coeffs))
        budget = k.tail_bound * math.sqrt(norm_sq_coeff(coeffs, p)) + 1e-12 * (1 + abs(fw))
        rep_ok = rep_ok and abs(got - fw) <= budget
    ok &= rep_ok
    notes.append("reproducing %s" % rep_ok)

    # basis Gram identity
    gram_ok = True
    for alpha in (-0.5, 0.0, 0.5):
        pp = SpaceParams(alpha)
        basis = []
        for n in range(16):
            c = np.zeros(16, complex)
            c[n] = (n + 1.0) ** ((alpha - 1) / 2.0)
            basis.append(c)
        gram = np.array([[inner_product(a, b, pp) for b in basis] for a in basis])
        gram_ok = gram_ok and float(np.max(np.abs(gram - np.eye(16)))) <= 1e-14
    ok &= gram_ok
    notes.append("gram %s" % gram_ok)

    # comparison monotonicity for an origin-fixing symbol
    comp = comparison_monotonicity(
        catalog.psi_power(2.5), catalog.mobius_self_map(0.5), 0.25, 0.75
    )
    ok &= comp.holds
    notes.append("comparison %s" % comp.holds)

    # growth bound slack
    gb = growth_bound_check(catalog.psi_power(2.5), QuadratureGrid(200, 128))
    ok &= gb.max_violation <= 1e-9
    notes.append("growth-bound %s" % (gb.max_violation <= 1e-9))

    # functional-equation ladder for converged eigenpairs
    psi = catalog.psi_power(2.5)
    phi = catalog.mobius_self_map(0.5)
    m = assemble_matrix(psi, phi, p, 64)
    pred = predict_spectrum(psi, phi, p, count=64)
    ladder = np.array(pred.predicted)
    ladder_ok = True
    for lam, vec in eigenpairs_as_series(m):
        if schroder_residual(psi, phi, lam, vec) <= 1e-6:
            ladder_ok = ladder_ok and float(np.min(np.abs(ladder - lam))) <= 1e-4
    ok &= ladder_ok
    notes.append("schroder-ladder %s" % ladder_ok)

    verdict(7, "property-suite", bool(ok), ", ".join(notes))


# --- criterion 8: determinism across BLAS thread caps --------------------------------------


def test_criterion_8_thread_determinism():
    base = [sys.executable, "-m", "wco"]
    args_sets = [
        ["analyze", "--alpha", "0.5", "--psi", "psi_power:beta=2.5",
         "--phi", "mobius_self_map:lambda=0.5", "--M-max", "10"],
        ["spectrum", "--alpha", "0.5", "--psi", "psi_power:beta=2.5",
         "--phi", "mobius_self_map:lambda=0.5", "--N", "24"],
    ]
    ok = True
    for extra in args_sets:
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            proc = subprocess.run(
                base + extra, capture_output=True, env=env, timeout=300
            )
            ok = ok and proc.returncode == 0
            outputs.append(proc.stdout)
        ok = ok and outputs[0] == outputs[1]
    verdict(8, "thread-determinism", ok)
