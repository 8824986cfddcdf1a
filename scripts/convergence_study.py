#!/usr/bin/env python3
"""Truncation-size convergence study for the spectral verification.

For a chosen symbol pair, assembles truncations across a ladder of sizes,
matches their eigenvalues (``truncated_eigenvalues``: only the smallest
leading block with a negligible upper tail goes to LAPACK, the rest is the
diagonal) against the fixed-point prediction, and prints the
per-size worst error over the leading modes together with the conjugated
triangular diagonal as the second route.

Usage:
  python scripts/convergence_study.py
  python scripts/convergence_study.py --psi "polynomial:0,0,1" \
      --phi "affine:c0=0.25,c1=0.5" --alpha -0.5 --sizes 12,24,48,96
"""

import argparse
import sys

import numpy as np

from wco import catalog
from wco.operator import assemble_matrix
from wco.spaces import SpaceParams
from wco.spectral import (
    conjugation_invariance_check,
    match_spectra,
    predict_spectrum,
    truncated_eigenvalues,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--psi", default="psi_power:beta=2.5")
    ap.add_argument("--phi", default="mobius_self_map:lambda=0.5")
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--sizes", default="12,24,48,96,192")
    args = ap.parse_args(argv)

    psi = catalog.from_spec(args.psi)
    phi = catalog.from_spec(args.phi)
    p = SpaceParams(args.alpha)
    sizes = [int(s) for s in args.sizes.split(",")]

    pred = predict_spectrum(psi, phi, p, count=12)
    print("fixed point a = %s" % pred.a)
    print("psi(a) = %s,  phi'(a) = %s" % (pred.psi_a, pred.phi_prime_a))
    print()
    print("%6s  %14s  %14s" % ("N", "max_err_first6", "spectral_radius"))
    for n in sizes:
        eig = truncated_eigenvalues(assemble_matrix(psi, phi, p, n))
        report = match_spectra(pred, eig, tol_profile=(np.inf,) * 6)
        print("%6d  %14.3e  %14.10f" % (n, report.max_err_first6, float(np.max(np.abs(eig)))))

    print()
    rep = conjugation_invariance_check(psi, phi, pred, p, eig)
    print("conjugated triangular route at N=%d:" % sizes[-1])
    print("  diagonal vs prediction max err: %.3e" % rep.diagonal_max_err)
    print("  leading eigenvalue agreement:   %.3e" % max(rep.eigenvalue_agreement))
    print("  coherent: %s" % rep.coherent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
