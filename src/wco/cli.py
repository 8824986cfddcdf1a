"""Command-line front door.

Exit codes: 0 success, 2 usage or parameter range, 3 violated mathematical
precondition, 4 the requested characterization does not apply (for example
no interior fixed point).  All reports embed the run configuration and the
schema tag ``wco-report/1`` and are byte-stable for fixed inputs and a
fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import catalog, criteria, spectral
from .errors import (
    InapplicableError,
    ParameterError,
    PreconditionError,
    WcoError,
)
from .operator import adjoint_kernel_check, assemble_matrix
from .reportio import csv_line, render_json
from .series import TaylorSeries
from .spaces import (
    QUAD_ANGULAR_COUNT,
    QUAD_RADIAL_COUNT,
    QuadratureGrid,
    SpaceParams,
    norm_sq_coeff,
    norm_sq_quadrature,
)

SCHEMA = "wco-report/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INAPPLICABLE = 4

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


def _positive_power_of_two(text: str) -> int:
    value = int(text)
    if value <= 0 or value & (value - 1):
        raise argparse.ArgumentTypeError("expected a positive power of two")
    return value


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
    sp.add_argument("--only", choices=_SCENARIO_NAMES, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--r", type=float, default=0.5)
    sp.add_argument("--k", type=float, default=2.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(run=cmd_paper_examples)
    return parser


def _validate_run_config(args) -> None:
    if not (-1.0 < args.alpha < 1.0):
        raise ParameterError("alpha must lie in (-1, 1)")
    if hasattr(args, "n") and not (8 <= args.n <= 4096):
        raise ParameterError("N must lie in [8, 4096]")
    if hasattr(args, "m_max") and not (6 <= args.m_max <= 20):
        raise ParameterError("M-max must lie in [6, 20]")
    # gauss_jacobi builds dense R x R matrices, and norm-check also 2R x 2R
    if hasattr(args, "quad_r") and args.quad_r > 1024:
        raise ParameterError("quad-R must be at most 1024")


def _config_dict(args, command: str) -> dict:
    cfg = {"command": command}
    for key in ("alpha", "psi", "phi", "n", "m_max", "t_base", "out",
                "count", "points", "seed", "z_cap", "func", "quad_r",
                "quad_t", "vary", "range_spec", "only", "r", "k"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _functions(args):
    if not args.psi or not args.phi:
        raise ParameterError("both --psi and --phi specs are required")
    return catalog.from_spec(args.psi), catalog.from_spec(args.phi)


def cmd_analyze(args) -> int:
    _validate_run_config(args)
    psi, phi = _functions(args)
    grid = criteria.AnnularGrid(m_max=args.m_max, t_base=args.t_base)
    report = criteria.evaluate_quantities(psi, phi, SpaceParams(args.alpha), grid)
    doc = {"schema": SCHEMA, "config": _config_dict(args, "analyze")}
    doc.update(report.to_json_dict())
    _emit(args, render_json(doc))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    _validate_run_config(args)
    psi, phi = _functions(args)
    p = SpaceParams(args.alpha)
    grid = criteria.AnnularGrid(m_max=args.m_max, t_base=args.t_base)
    crit = criteria.evaluate_quantities(psi, phi, p, grid)
    report = spectral.spectrum_study(
        psi, phi, p, args.n, count=args.count, criteria_report=crit
    )
    doc = {"schema": SCHEMA, "config": _config_dict(args, "spectrum")}
    doc.update(report.to_json_dict())
    doc["hypotheses_satisfied"] = report.prediction.hypotheses_satisfied
    _emit(args, render_json(doc))
    return EXIT_OK


def cmd_kernel_check(args) -> int:
    _validate_run_config(args)
    if not (0.0 < args.z_cap <= 0.8):
        raise ParameterError("z-cap must lie in (0, 0.8]")
    if args.points < 1:
        raise ParameterError("points must be positive")
    if args.seed < 0:
        raise ParameterError("seed must be nonnegative")
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
    doc = {
        "schema": SCHEMA,
        "config": _config_dict(args, "kernel-check"),
        "residuals": rows,
        "max_residual": worst,
    }
    _emit(args, render_json(doc))
    return EXIT_OK


def cmd_norm_check(args) -> int:
    _validate_run_config(args)
    func = catalog.from_spec(args.func)
    p = SpaceParams(args.alpha)
    grid = QuadratureGrid.make(args.quad_r, args.quad_t)
    coeff = norm_sq_coeff(TaylorSeries(func.coefficients(args.n - 1)), p, "dirichlet")
    doc = {
        "schema": SCHEMA,
        "config": _config_dict(args, "norm-check"),
        "coefficient_norm_sq": coeff,
    }
    ratios = {}
    for name, res in norm_sq_quadrature(func, p, grid).items():
        doc["quad_" + name] = dataclasses.asdict(res)
        order = name.split("_")[0]
        ratios["ratio_%s_over_coeff" % order] = res.value / coeff if coeff else None
    doc.update(ratios)
    _emit(args, render_json(doc))
    return EXIT_OK


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


def cmd_sweep(args) -> int:
    _validate_run_config(args)
    values = _parse_range(args.range_spec)
    # one grid for every row, so the rows share its blocks
    grid = criteria.AnnularGrid(m_max=args.m_max, t_base=args.t_base)
    lines = [csv_line(SWEEP_HEADER)]
    for value in values:
        alpha, psi_spec, phi_spec = _substitute(args, args.vary, value)
        if not (-1.0 < alpha < 1.0):
            raise ParameterError("alpha must lie in (-1, 1)")
        psi = catalog.from_spec(psi_spec)
        phi = catalog.from_spec(phi_spec)
        p = SpaceParams(alpha)
        report = criteria.evaluate_quantities(psi, phi, p, grid)
        fp_re = fp_im = None
        spec_err = None
        try:
            study = spectral.spectrum_study(
                psi, phi, p, min(args.n, 48), criteria_report=report
            )
            fp_re = study.prediction.a.real
            fp_im = study.prediction.a.imag
            spec_err = max(
                (m.error for m in study.matches[: spectral.LEADING_COUNT]),
                default=None,
            )
        except (InapplicableError, PreconditionError):
            pass
        v = report.verdicts
        lines.append(
            csv_line(
                (
                    args.vary,
                    float(value),
                    float(alpha),
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
    _emit(args, "\n".join(lines))
    return EXIT_OK


# --- worked scenarios ----------------------------------------------------------


def _scenario_ex1(alphas) -> dict:
    cases = []
    ok = True
    for alpha in alphas:
        psi = catalog.psi_power(2.0 + alpha)
        phi = catalog.mobius_self_map(0.5)
        report = criteria.evaluate_quantities(
            psi, phi, SpaceParams(alpha), _SCENARIO_GRID
        )
        good = report.verdicts["sufficient_compact"] is True
        ok = ok and good
        cases.append(
            {
                "alpha": alpha,
                "psi": psi.label,
                "phi": phi.label,
                "expected": "sufficient_compact",
                "observed": report.verdicts["sufficient_compact"],
                "consistent": good,
            }
        )
    return {"name": "ex1", "cases": cases, "status": _status(ok)}


def _scenario_remark(alphas) -> dict:
    psi = catalog.polynomial([2.0, 1.0])
    phi = catalog.polynomial([0.5, 0.0, 0.5])
    # the witness search does not depend on alpha, so one serves them all
    boundary = criteria.check_corollary_boundary_zero(psi, phi, _SCENARIO_GRID)
    cases = []
    ok = True
    for alpha in alphas:
        report = criteria.evaluate_quantities(
            psi, phi, SpaceParams(alpha), _SCENARIO_GRID
        )
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


def _scenario_phi_r1(alphas) -> dict:
    cases = []
    ok = True
    for r in (0.3, 0.6):
        for alpha in alphas:
            psi = catalog.polynomial([1.0])
            phi = catalog.phi_r1(r)
            report = criteria.evaluate_quantities(
                psi, phi, SpaceParams(alpha), _SCENARIO_GRID
            )
            good = report.verdicts["sufficient_bounded"] is True
            ok = ok and good
            cases.append(
                {
                    "alpha": alpha,
                    "r": r,
                    "psi": psi.label,
                    "phi": phi.label,
                    "expected": "sufficient_bounded",
                    "observed": report.verdicts["sufficient_bounded"],
                    "consistent": good,
                }
            )
    return {"name": "phi_r1_bounded", "cases": cases, "status": _status(ok)}


def _scenario_exx1(alphas) -> dict:
    alpha = alphas[0] if len(alphas) == 1 else 0.5
    psi = catalog.psi_power(2.0 + alpha)
    phi = catalog.mobius_self_map(0.5)
    study = spectral.spectrum_study(psi, phi, SpaceParams(alpha), 64)
    worst = max(m.error for m in study.matches[: spectral.LEADING_COUNT])
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
        psi, phi, a, p, study.eigenvalues
    )
    worst = max(m.error for m in study.matches[: spectral.LEADING_COUNT])
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


def cmd_paper_examples(args) -> int:
    if args.alpha is not None and not (-1.0 < args.alpha < 1.0):
        raise ParameterError("alpha must lie in (-1, 1)")
    if not (0.0 < args.r < 1.0):
        raise ParameterError("r must lie in (0, 1)")
    if not args.k > 1.0:
        raise ParameterError("k must exceed 1")
    default_alphas = [-0.5, 0.0, 0.5]
    alphas = [args.alpha] if args.alpha is not None else default_alphas
    remark_alphas = (
        [args.alpha]
        if args.alpha is not None and 0.0 < args.alpha < 1.0
        else [0.25, 0.5, 0.75]
    )
    runners = {
        "ex1": lambda: _scenario_ex1(alphas),
        "remark_c0c2": lambda: _scenario_remark(remark_alphas),
        "phi_r1_bounded": lambda: _scenario_phi_r1(alphas),
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
    all_ok = all(s["status"] == "consistent-with-paper" for s in scenarios)
    doc = {
        "schema": SCHEMA,
        "config": _config_dict(args, "paper-examples"),
        "scenarios": scenarios,
        "status": _status(all_ok),
    }
    _emit(args, render_json(doc))
    return EXIT_OK if all_ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: in-process callers run main many times, and
    # parsing leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except ParameterError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    except InapplicableError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INAPPLICABLE
    except WcoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
