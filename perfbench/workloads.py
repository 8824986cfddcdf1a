"""Seeded op lists for the three workloads.

An op is a dict: ``argv`` (what ``wco.cli.main`` receives, nothing else),
``kind`` and ``expect`` (what the check needs), and ``matrices``: the
truncations the op assembles at its requested size, as
``[psi, phi, alpha, N]`` lists, which the check rebuilds in coefficient
space.  Ops are drawn in cycles with a fixed mix of kinds so that medians
and percentiles fall inside one kind's cluster on every seed; the seed picks
parameters and the order inside each cycle.  The first op of each workload
has a fixed kind, so ``first_op_s`` compares like with like across seeds.

Parameter ranges stay where the seed program's verdicts agree with the
paper: ex1 with alpha in [0, 1) (alpha < 0 needs the deep grid that only
``paper-examples`` uses), lambda <= 0.9, and phi_r1 with r <= 0.8 (at
r >= 0.85 the default 14-level grid no longer certifies boundedness).
"""

from __future__ import annotations

import random

from refs import spec

WORKLOADS = ("spectrum_large", "small_studies", "short_reports")

EX1 = (("psi_power", 2.5), ("mobius_self_map", 0.5))
EXX2 = (("polynomial", (0.0, 0.0, 1.0)), ("phi_rk", 0.5, 2.0))
LARGE_N = 512
SWEEP_N = 48  # cmd_sweep truncates at min(--N, 48); --N defaults to 64
SWEEP_STEPS = 4


def _u(rng: random.Random, lo: float, hi: float, digits: int = 2) -> float:
    return round(lo + (hi - lo) * rng.random(), digits)


def _shuffled(rng: random.Random, items: list) -> list:
    # Fisher-Yates on rng.random() only, so the order is stable across
    # Python versions
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _op(argv, kind, expect=None, matrices=()):
    return {
        "argv": [str(a) for a in argv],
        "kind": kind,
        "expect": expect or {},
        "matrices": [list(m) for m in matrices],
    }


def spectrum_op(pair, n=LARGE_N, alpha=0.5):
    psi, phi = pair
    argv = ["spectrum", "--N", n, "--alpha", repr(alpha),
            "--psi", spec(psi), "--phi", spec(phi)]
    return _op(argv, "spectrum", {"psi": psi, "phi": phi},
               [(psi, phi, alpha, n)])


def paper_examples_op():
    # the default run checks exx1 and exx2 spectra at N = 64
    return _op(["paper-examples"], "paper-examples",
               matrices=[(EX1[0], EX1[1], 0.5, 64), (EXX2[0], EXX2[1], 0.5, 64)])


def _linspace(lo, hi, steps):
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _sweep_op(vary, lo, hi, alpha, psi, phi, family, phi_at):
    """``phi_at(value)`` gives the symbol of one row, or None when the row's
    symbol has no interior fixed point (no matrix is assembled)."""
    argv = ["sweep", "--vary", vary, "--range", "%r:%r:%d" % (lo, hi, SWEEP_STEPS),
            "--psi", spec(psi), "--phi", spec(phi)]
    if alpha is not None:
        argv += ["--alpha", repr(alpha)]
    values = _linspace(lo, hi, SWEEP_STEPS)
    matrices = []
    for v in values:
        row_alpha = v if vary == "alpha" else alpha
        row_phi = phi_at(v)
        if row_phi is not None:
            matrices.append((psi, row_phi, row_alpha, SWEEP_N))
    return _op(argv, "sweep", {"vary": vary, "family": family}, matrices)


def _ex1(alpha, lam):
    return ("psi_power", round(2.0 + alpha, 10)), ("mobius_self_map", lam)


REMARK = (("polynomial", (2.0, 1.0)), ("polynomial", (0.5, 0.0, 0.5)))
PHI_R1_PSI = ("polynomial", (1.0,))


def small_studies_cycle(rng):
    a = _u(rng, 0.0, 0.95)
    psi, phi = _ex1(a, 0.5)
    lam_sweep = _sweep_op(
        "lambda", _u(rng, 0.5, 0.6), _u(rng, 0.8, 0.9), a, psi, phi, "ex1",
        lambda v: ("mobius_self_map", v))
    r0 = _u(rng, 0.2, 0.3)
    a_r = _u(rng, 0.05, 0.95)
    r_sweep = _sweep_op(
        "r", r0, _u(rng, 0.6, 0.8), a_r, PHI_R1_PSI, ("phi_r1", r0), "phi_r1",
        lambda v: ("phi_r1", v))
    r1 = _u(rng, 0.2, 0.8)
    alpha_r1 = _sweep_op(
        "alpha", _u(rng, 0.05, 0.3), _u(rng, 0.7, 0.95), None, PHI_R1_PSI,
        ("phi_r1", r1), "phi_r1", lambda v: ("phi_r1", r1))
    alpha_remark = _sweep_op(
        "alpha", _u(rng, 0.05, 0.3), _u(rng, 0.7, 0.95), None, REMARK[0],
        REMARK[1], "remark_c0c2", lambda v: None)
    return _shuffled(rng, [paper_examples_op(), lam_sweep, r_sweep,
                           alpha_r1, alpha_remark])


ANALYZE_FAMILIES = ("ex1", "remark_c0c2", "phi_r1")


def analyze_op(rng, family):
    if family == "ex1":
        alpha = _u(rng, 0.0, 0.95)
        psi, phi = _ex1(alpha, _u(rng, 0.5, 0.9))
    elif family == "remark_c0c2":
        alpha = _u(rng, 0.05, 0.95)
        psi, phi = REMARK
    else:
        alpha = _u(rng, 0.05, 0.95)
        psi, phi = PHI_R1_PSI, ("phi_r1", _u(rng, 0.2, 0.8))
    argv = ["analyze", "--M-max", "20", "--alpha", repr(alpha),
            "--psi", spec(psi), "--phi", spec(phi)]
    return _op(argv, "analyze", {"family": family, "alpha": alpha})


def norm_check_op(rng):
    alpha = _u(rng, 0.05, 0.95)
    f = ("polynomial", tuple(_u(rng, -1.0, 1.0, 3) for _ in range(3)))
    argv = ["norm-check", "--alpha", repr(alpha), "--f", spec(f)]
    return _op(argv, "norm-check", {"f": f, "alpha": alpha, "N": 64})


def iter_cycles(workload: str, seed: int):
    """The op list of one run as an endless iterator of cycles; the same seed
    gives the same cycles.

    The first cycle holds the single first op.  Every later cycle has the
    same mix of kinds in a seeded order, and runs measure whole cycles only,
    so the mix behind every median is the same on every seed.  Cycles are
    drawn as the run consumes them, so set-up generates only the first op and
    a run lasts its ``--seconds`` however fast the program is.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (known: %s)"
                         % (workload, ", ".join(WORKLOADS)))
    return _cycles(workload, random.Random("%s:%d" % (workload, seed)))


def _cycles(workload, rng):
    if workload == "spectrum_large":
        # exx2 twice per cycle: medians sit in the exx2 cluster, which
        # exercises both the DFT and a dense non-triangular eigensolve
        yield [spectrum_op(EX1)]
        while True:
            yield _shuffled(rng, [spectrum_op(EX1), spectrum_op(EXX2), spectrum_op(EXX2)])
    elif workload == "small_studies":
        yield [paper_examples_op()]
        while True:
            yield small_studies_cycle(rng)
    else:
        # short_reports: one analyze per family and one norm-check, so the
        # median is an analyze op (criteria) and the 90th percentile a
        # norm-check op (quadrature)
        yield [analyze_op(rng, "ex1")]
        while True:
            yield _shuffled(rng, [analyze_op(rng, f) for f in ANALYZE_FAMILIES]
                            + [norm_check_op(rng)])
