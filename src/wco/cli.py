"""Command-line front door.

Each command returns its report body; :func:`main` validates the options
first, adds the schema tag ``wco-report/1`` and the run configuration, and
emits the report.  Exit codes: 0 success, 1 an inconsistent
``paper-examples`` run, otherwise the ``exit_code`` of the package error
that stopped the command (2 usage or parameter range, 3 violated
mathematical precondition, 4 the requested characterization does not apply,
for example no interior fixed point, 1 a numerical failure).  Reports are
byte-stable for fixed inputs and a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import catalog, criteria, spectral
from .errors import InapplicableError, ParameterError, PreconditionError, WcoError
from .operator import adjoint_kernel_check, assemble_matrix
from .reportio import csv_line, render_json
from .spaces import (
    QUAD_ANGULAR_COUNT,
    QUAD_RADIAL_COUNT,
    QuadratureGrid,
    SpaceParams,
    norm_sq_coeff,
    norm_sq_quadrature,
)

SCHEMA = "wco-report/1"

SWEEP_HEADER = (
    "vary",
    "value",
    "alpha",
    "psi",
    "phi",
    "sufficient_bounded",
    "sufficient_compact",
    "necessary_bounded_ok",
    "necessary_compact_ok",
    "iff_bounded",
    "iff_compact",
    "fixed_point_re",
    "fixed_point_im",
    "spectrum_max_err_first6",
)

_SCENARIO_NAMES = ("ex1", "remark_c0c2", "phi_r1_bounded", "exx1", "exx2")
# deep grid: the slowest compactness quantity of the weight family decays one
# annulus-halving per two levels at alpha = -1/2, so certifying three decades
# needs more levels than the CLI-facing grids allow
_SCENARIO_GRID = criteria.AnnularGrid(m_max=24, t_base=256)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wco",
        description="Weighted composition operators on weighted Dirichlet "
        "spaces: criteria, matrices, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, symbols=True, size=True, grid=True):
        sp.add_argument("--alpha", type=float, default=0.5)
        if symbols:
            sp.add_argument("--psi")
            sp.add_argument("--phi")
        if size:
            sp.add_argument("--N", type=int, default=64, dest="n")
        if grid:
            sp.add_argument("--M-max", type=int, default=14, dest="m_max")
            sp.add_argument("--T", type=int, default=256, dest="t_base")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("analyze", help="criterion quantities and verdicts")
    common(sp, size=False)
    sp.set_defaults(run=cmd_analyze)

    sp = sub.add_parser("spectrum", help="predicted vs truncated spectrum")
    common(sp)
    sp.add_argument("--count", type=int, default=12)
    sp.set_defaults(run=cmd_spectrum)

    sp = sub.add_parser("kernel-check", help="adjoint kernel identity residuals")
    common(sp, grid=False)
    sp.add_argument("--points", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--z-cap", type=float, default=0.7)
    sp.set_defaults(run=cmd_kernel_check)

    sp = sub.add_parser("norm-check", help="coefficient vs quadrature norms")
    common(sp, symbols=False, grid=False)
    sp.add_argument("--f", required=True, dest="func")
    sp.add_argument("--quad-R", type=int, default=QUAD_RADIAL_COUNT, dest="quad_r")
    sp.add_argument("--quad-T", type=int, default=QUAD_ANGULAR_COUNT, dest="quad_t")
    sp.set_defaults(run=cmd_norm_check)

    sp = sub.add_parser("sweep", help="parameter sweeps to CSV")
    common(sp)
    sp.add_argument("--vary", required=True, choices=("lambda", "alpha", "r"))
    sp.add_argument("--range", required=True, dest="range_spec", metavar="START:STOP:STEPS")
    sp.set_defaults(run=cmd_sweep)

    sp = sub.add_parser(
        "paper-examples", help="run the named worked scenarios end to end"
    )
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--only", choices=_SCENARIO_NAMES, default=None)
    sp.add_argument("--r", type=float, default=0.5)
    sp.add_argument("--k", type=float, default=2.0)
    sp.set_defaults(run=cmd_paper_examples)
    return parser


# (option, predicate, message), checked in this order
_OPTION_RANGES = (
    # None: paper-examples runs its default alphas
    ("alpha", lambda v: v is None or -1.0 < v < 1.0, "alpha must lie in (-1, 1)"),
    ("n", lambda v: 8 <= v <= 4096, "N must lie in [8, 4096]"),
    ("m_max", lambda v: 6 <= v <= 20, "M-max must lie in [6, 20]"),
    # gauss_jacobi builds dense R x R matrices, and norm-check also 2R x 2R
    ("quad_r", lambda v: v <= 1024, "quad-R must be at most 1024"),
    # a grid holds whole circles of T points (2T past the eighth annulus)
    ("t_base", lambda v: v <= 65536, "T must be at most 65536"),
    ("quad_t", lambda v: v <= 65536, "quad-T must be at most 65536"),
    # no truncation has more than 4096 eigenvalues to match
    ("count", lambda v: 1 <= v <= 4096, "count must lie in [1, 4096]"),
    ("z_cap", lambda v: 0.0 < v <= 0.8, "z-cap must lie in (0, 0.8]"),
    ("points", lambda v: v >= 1, "points must be positive"),
    ("seed", lambda v: v >= 0, "seed must be nonnegative"),
    ("r", lambda v: 0.0 < v < 1.0, "r must lie in (0, 1)"),
    ("k", lambda v: v > 1.0, "k must exceed 1"),
)


def _validate_run_config(config: dict) -> None:
    """Refuse the first out-of-range option of ``config``, in table order;
    options it does not hold are skipped."""
    for option, ok, message in _OPTION_RANGES:
        if option in config and not ok(config[option]):
            raise ParameterError(message)


def _config_dict(args) -> dict:
    """The subcommand and its options, in declaration order."""
    return {k: v for k, v in vars(args).items() if k != "run"}


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ParameterError(
                "cannot write --out %s: %s" % (out, exc.strerror)
            ) from exc
    else:
        sys.stdout.write(text + "\n")


def _functions(args):
    if not args.psi or not args.phi:
        raise ParameterError("both --psi and --phi specs are required")
    return catalog.from_spec(args.psi), catalog.from_spec(args.phi)


def cmd_analyze(args) -> dict:
    psi, phi = _functions(args)
    grid = criteria.AnnularGrid(m_max=args.m_max, t_base=args.t_base)
    report = criteria.evaluate_quantities(psi, phi, SpaceParams(args.alpha), grid)
    return report.to_json_dict()


def cmd_spectrum(args) -> dict:
    psi, phi = _functions(args)
    p = SpaceParams(args.alpha)
    grid = criteria.AnnularGrid(m_max=args.m_max, t_base=args.t_base)
    crit = criteria.evaluate_quantities(psi, phi, p, grid)
    body = spectral.spectrum_study(psi, phi, p, args.n, count=args.count).to_json_dict()
    body["hypotheses_satisfied"] = crit.spectral_hypotheses
    return body


def cmd_kernel_check(args) -> dict:
    psi, phi = _functions(args)
    p = SpaceParams(args.alpha)
    matrix = assemble_matrix(psi, phi, p, args.n)
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for _ in range(args.points):
        radius = args.z_cap * float(np.sqrt(rng.random()))
        theta = 2.0 * np.pi * float(rng.random())
        z = radius * complex(np.cos(theta), np.sin(theta))
        rep = adjoint_kernel_check(psi, phi, p, z, args.n, matrix=matrix)
        worst = max(worst, rep.residual)
        rows.append(
            {
                "z": [z.real, z.imag],
                "phi_z": [rep.phi_z.real, rep.phi_z.imag],
                "residual": rep.residual,
                "kernel_tail_z": rep.kernel_tail_z,
                "kernel_tail_phi_z": rep.kernel_tail_phi_z,
            }
        )
    return {"residuals": rows, "max_residual": worst}


def cmd_norm_check(args) -> dict:
    func = catalog.from_spec(args.func)
    p = SpaceParams(args.alpha)
    grid = QuadratureGrid(args.quad_r, args.quad_t)
    coeff = norm_sq_coeff(func.coefficients(args.n - 1), p)
    body = {"coefficient_norm_sq": coeff}
    ratios = {}
    for name, res in norm_sq_quadrature(func, p, grid).items():
        body["quad_" + name] = dataclasses.asdict(res)
        order = name.split("_")[0]
        ratios["ratio_%s_over_coeff" % order] = res.value / coeff if coeff else None
    body.update(ratios)
    return body


def _parse_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError("range must be START:STOP:STEPS")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ParameterError("malformed range %r" % spec) from exc
    if steps <= 0:
        raise ParameterError("empty range: STEPS must be positive")
    if steps == 1:
        return [start]
    return [float(v) for v in np.linspace(start, stop, steps)]


def _substitute(args, vary: str, value: float):
    if vary == "alpha":
        return value, args.psi, args.phi
    if vary == "lambda":
        if not args.phi or not args.phi.startswith("mobius_self_map"):
            raise ParameterError(
                "--vary lambda expects --phi from the mobius_self_map family"
            )
        return args.alpha, args.psi, "mobius_self_map:lambda=%r" % value
    if not args.phi or not args.phi.startswith(("phi_r1", "phi_rk")):
        raise ParameterError("--vary r expects --phi from phi_r1 or phi_rk")
    if args.phi.startswith("phi_rk"):
        base = catalog.from_spec(args.phi)
        k = base.label.split("k=")[1].split(",")[0]
        return args.alpha, args.psi, "phi_rk:r=%r,k=%s" % (value, k)
    return args.alpha, args.psi, "phi_r1:r=%r" % value


def cmd_sweep(args) -> str:
    values = _parse_range(args.range_spec)
    # every row is built before any is evaluated, with one psi and one phi
    # per distinct spec, so the rows share one walk over one grid's blocks
    grid = criteria.AnnularGrid(m_max=args.m_max, t_base=args.t_base)
    psi = None
    phis = {}
    rows = []
    for value in values:
        alpha, psi_spec, phi_spec = _substitute(args, args.vary, value)
        _validate_run_config({"alpha": alpha})
        if psi is None:
            psi = catalog.from_spec(psi_spec)
        if phi_spec not in phis:
            phis[phi_spec] = catalog.from_spec(phi_spec)
        rows.append((psi, phis[phi_spec], SpaceParams(alpha)))
    reports = criteria.evaluate_rows(rows, grid)
    lines = [csv_line(SWEEP_HEADER)]
    for value, (psi, phi, p), report in zip(values, rows, reports):
        fp_re = fp_im = None
        spec_err = None
        try:
            study = spectral.spectrum_study(psi, phi, p, min(args.n, 48))
            fp_re = study.prediction.a.real
            fp_im = study.prediction.a.imag
            spec_err = study.max_err_first6
        except (InapplicableError, PreconditionError):
            pass
        v = report.verdicts
        lines.append(
            csv_line(
                (
                    args.vary,
                    float(value),
                    p.alpha,
                    psi.label,
                    phi.label,
                    v["sufficient_bounded"],
                    v["sufficient_compact"],
                    v["necessary_bounded_ok"],
                    v["necessary_compact_ok"],
                    v["iff_bounded"],
                    v["iff_compact"],
                    fp_re,
                    fp_im,
                    spec_err,
                )
            )
        )
    return "\n".join(lines)


# --- worked scenarios ----------------------------------------------------------


def _verdict_scenario(name: str, verdict: str, cases) -> dict:
    """Each case ``(head, psi, phi)`` must get the ``verdict`` True; its
    ``head`` keys, the alpha first, lead its entry."""
    cases = list(cases)
    reports = criteria.evaluate_rows(
        [(psi, phi, SpaceParams(head["alpha"])) for head, psi, phi in cases],
        _SCENARIO_GRID,
    )
    entries = []
    ok = True
    for (head, psi, phi), report in zip(cases, reports):
        good = report.verdicts[verdict] is True
        ok = ok and good
        entries.append(
            {
                **head,
                "psi": psi.label,
                "phi": phi.label,
                "expected": verdict,
                "observed": report.verdicts[verdict],
                "consistent": good,
            }
        )
    return {"name": name, "cases": entries, "status": _status(ok)}


def _scenario_remark(alphas) -> dict:
    psi = catalog.polynomial([2.0, 1.0])
    phi = catalog.polynomial([0.5, 0.0, 0.5])
    # the witness search does not depend on alpha, so one serves them all
    boundary = criteria.check_corollary_boundary_zero(psi, phi, _SCENARIO_GRID)
    reports = criteria.evaluate_rows(
        [(psi, phi, SpaceParams(alpha)) for alpha in alphas], _SCENARIO_GRID
    )
    cases = []
    ok = True
    for alpha, report in zip(alphas, reports):
        good = (
            report.verdicts["necessary_compact_ok"] is False
            and boundary.verdict == "not_compact"
        )
        ok = ok and good
        cases.append(
            {
                "alpha": alpha,
                "psi": psi.label,
                "phi": phi.label,
                "expected": "not compact (necessary condition violated)",
                "necessary_compact_ok": report.verdicts["necessary_compact_ok"],
                "boundary_zero_verdict": boundary.verdict,
                "min_abs_psi_near_contact": boundary.min_abs_psi,
                "consistent": good,
            }
        )
    return {"name": "remark_c0c2", "cases": cases, "status": _status(ok)}


def _scenario_exx1(alphas) -> dict:
    alpha = alphas[0] if len(alphas) == 1 else 0.5
    psi = catalog.psi_power(2.0 + alpha)
    phi = catalog.mobius_self_map(0.5)
    study = spectral.spectrum_study(psi, phi, SpaceParams(alpha), 64)
    worst = study.max_err_first6
    lam = study.prediction.phi_prime_a
    good = (
        abs(study.prediction.psi_a - 1.0) <= 1e-10
        and abs(lam - 0.5) <= 1e-10
        and worst <= 1e-8
    )
    return {
        "name": "exx1",
        "cases": [
            {
                "alpha": alpha,
                "psi": psi.label,
                "phi": phi.label,
                "expected": "spectrum {0.5^n} u {0}",
                "max_err_first6": worst,
                "consistent": good,
            }
        ],
        "status": _status(good),
    }


def _scenario_exx2(alphas, r: float, k: float) -> dict:
    alpha = alphas[0] if len(alphas) == 1 else 0.5
    psi = catalog.polynomial([0.0, 0.0, 1.0])
    phi = catalog.phi_rk(r, k)
    p = SpaceParams(alpha)
    study = spectral.spectrum_study(psi, phi, p, 64)
    a = study.prediction.a
    conj = spectral.conjugation_invariance_check(
        psi, phi, study.prediction, p, study.eigenvalues
    )
    worst = study.max_err_first6
    expected_lead = a * a
    good = (
        abs(study.prediction.psi_a - expected_lead) <= 1e-10
        and worst <= 1e-6
        and conj.coherent
    )
    return {
        "name": "exx2",
        "cases": [
            {
                "alpha": alpha,
                "r": r,
                "k": k,
                "psi": psi.label,
                "phi": phi.label,
                "expected": "spectrum {a^2 phi'(a)^n} u {0}",
                "fixed_point": [a.real, a.imag],
                "max_err_first6": worst,
                "conjugated_diagonal_max_err": conj.diagonal_max_err,
                "consistent": good,
            }
        ],
        "status": _status(good),
    }


def _status(ok: bool) -> str:
    return "consistent-with-paper" if ok else "inconsistent"


def cmd_paper_examples(args) -> dict:
    default_alphas = [-0.5, 0.0, 0.5]
    alphas = [args.alpha] if args.alpha is not None else default_alphas
    remark_alphas = (
        [args.alpha]
        if args.alpha is not None and 0.0 < args.alpha < 1.0
        else [0.25, 0.5, 0.75]
    )

    # generators, so that a case's functions are built inside its scenario's
    # error handling; one phi (and for phi_r1 one psi) serves every alpha
    def ex1_cases():
        phi = catalog.mobius_self_map(0.5)
        for a in alphas:
            yield {"alpha": a}, catalog.psi_power(2.0 + a), phi

    def phi_r1_cases():
        psi = catalog.polynomial([1.0])
        for r in (0.3, 0.6):
            phi = catalog.phi_r1(r)
            for a in alphas:
                yield {"alpha": a, "r": r}, psi, phi

    runners = {
        "ex1": lambda: _verdict_scenario("ex1", "sufficient_compact", ex1_cases()),
        "remark_c0c2": lambda: _scenario_remark(remark_alphas),
        "phi_r1_bounded": lambda: _verdict_scenario(
            "phi_r1_bounded", "sufficient_bounded", phi_r1_cases()
        ),
        "exx1": lambda: _scenario_exx1(alphas),
        "exx2": lambda: _scenario_exx2(alphas, args.r, args.k),
    }
    names = [args.only] if args.only else list(_SCENARIO_NAMES)
    scenarios = []
    for name in names:
        try:
            scenarios.append(runners[name]())
        except WcoError as exc:
            scenarios.append(
                {"name": name, "cases": [], "status": "error: %s" % exc}
            )
    all_ok = all(s["status"] == _status(True) for s in scenarios)
    return {"scenarios": scenarios, "status": _status(all_ok)}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: in-process callers run main many times, and
    # parsing leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = _config_dict(args)
    try:
        _validate_run_config(config)
        body = args.run(args)
        if isinstance(body, str):  # sweep's CSV rows
            _emit(args, body)
            return 0
        _emit(args, render_json({"schema": SCHEMA, "config": config, **body}))
    except WcoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    return 1 if body.get("status") == _status(False) else 0


if __name__ == "__main__":
    sys.exit(main())
