"""Checks of each op's report against the benchmark's own references.

``check_output`` returns None for a correct report and a one-line reason
otherwise.  ``check_matrix`` compares one program truncation with the
coefficient-space reference of :mod:`refs`.
"""

from __future__ import annotations

import csv
import io
import json

import refs
from workloads import SWEEP_STEPS

LEADING = 6
SPECTRUM_TOL = 1e-6
FIXED_POINT_TOL = 1e-10
NORM_REL_TOL = 1e-10

# Verdicts the paper predicts for each family (CSV cells in sweeps).
EXPECTED_VERDICTS = {
    "ex1": {"sufficient_bounded": True, "sufficient_compact": True},
    "phi_r1": {"sufficient_bounded": True},
    "remark_c0c2": {"necessary_compact_ok": False},
}


def _pair(v) -> complex:
    return complex(v[0], v[1])


def _check_spectrum(op, text):
    doc = json.loads(text)
    if doc.get("passed") is not True:
        return "spectrum report did not pass"
    errs = [m["err"] for m in doc["matches"][:LEADING]]
    if len(errs) < LEADING or max(errs) > SPECTRUM_TOL:
        return "leading spectrum errors %r exceed %g" % (errs, SPECTRUM_TOL)
    psi, phi = op["expect"]["psi"], op["expect"]["phi"]
    a = _pair(doc["fixed_point"])
    if phi[0] == "mobius_self_map":
        if abs(a) > FIXED_POINT_TOL:  # closed form: the map fixes 0
            return "fixed point %r is not 0" % a
    phi_a, slope = refs.value_and_slope(phi, a)
    if abs(phi_a - a) > FIXED_POINT_TOL or not abs(slope) < 1.0:
        return "fixed point %r not confirmed (|phi(a)-a| = %.3e, |phi'(a)| = %.3g)" % (
            a, abs(phi_a - a), abs(slope))
    psi_a, _ = refs.value_and_slope(psi, a)
    lead = _pair(doc["prediction"][0])
    if abs(lead - psi_a) > FIXED_POINT_TOL * max(1.0, abs(psi_a)):
        return "prediction[0] %r differs from psi(a) %r" % (lead, psi_a)
    return None


def _check_paper_examples(op, text):
    doc = json.loads(text)
    bad = [s["name"] for s in doc["scenarios"] if s["status"] != "consistent-with-paper"]
    if doc["status"] != "consistent-with-paper" or bad:
        return "paper-examples inconsistent: %s" % ", ".join(bad)
    return None


def _verdict_mismatch(family, verdicts):
    for key, want in EXPECTED_VERDICTS[family].items():
        if verdicts.get(key) is not want:
            return "%s: %s is %r, expected %r" % (family, key, verdicts.get(key), want)
    return None


def _csv_bool(cell):
    return {"true": True, "false": False, "": None}[cell]


def _check_sweep(op, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != SWEEP_STEPS:
        return "sweep gave %d rows, expected %d" % (len(rows), SWEEP_STEPS)
    expect = op["expect"]
    lo, hi, _ = op["argv"][op["argv"].index("--range") + 1].split(":")
    lo, hi = float(lo), float(hi)
    for i, row in enumerate(rows):
        want = lo + (hi - lo) * i / (SWEEP_STEPS - 1)
        if row["vary"] != expect["vary"] or abs(float(row["value"]) - want) > 1e-12:
            return "sweep row %d varies %s=%s, expected %s=%r" % (
                i, row["vary"], row["value"], expect["vary"], want)
        verdicts = {k: _csv_bool(row[k]) for k in EXPECTED_VERDICTS[expect["family"]]}
        reason = _verdict_mismatch(expect["family"], verdicts)
        if reason:
            return "sweep row %d: %s" % (i, reason)
    return None


def _check_analyze(op, text):
    doc = json.loads(text)
    if doc["grid"]["M_max"] != 20 or doc["alpha"] != op["expect"]["alpha"]:
        return "analyze report has the wrong grid or alpha"
    return _verdict_mismatch(op["expect"]["family"], doc["verdicts"])


def _check_norm(op, text):
    doc = json.loads(text)
    e = op["expect"]
    want = refs.dirichlet_norm_sq(e["f"], e["alpha"], e["N"])
    got = doc["coefficient_norm_sq"]
    if abs(got - want) > NORM_REL_TOL * abs(want):
        return "coefficient norm %r differs from sum (n+1)^(1-alpha)|a_n|^2 = %r" % (got, want)
    return None


_CHECKS = {
    "spectrum": _check_spectrum,
    "paper-examples": _check_paper_examples,
    "sweep": _check_sweep,
    "analyze": _check_analyze,
    "norm-check": _check_norm,
}


def check_output(op, exit_code, text):
    """None when the op's exit code and report are correct, else the reason."""
    if exit_code != 0:
        return "exit code %r, expected 0" % (exit_code,)
    try:
        return _CHECKS[op["kind"]](op, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "malformed %s report: %s: %s" % (op["kind"], type(exc).__name__, exc)


def check_matrix(entries, psi, phi, alpha, n):
    """``(untrusted, deviation, scale)`` of one program truncation."""
    dev, scale = refs.matrix_deviation(entries, refs.reference_matrix(psi, phi, alpha, n))
    return dev > refs.UNTRUSTED_REL * scale, dev, scale
