"""Walk through the spectral story of the invariant two-slot operator.

Builds C for the requested parity and rank, prints its eigenvalue ladder with
the attached one-column labels and quantum dimensions, and (even parity) the
tridiagonal profile of the second embedded copy on the third-power
highest-weight space, whose off-diagonal products are ratios of quantum
integers to curly brackets.

Usage:
    python3 scripts/spectrum_demo.py --parity even --rank 2
"""

from __future__ import annotations

import argparse

from spincheck.invariant import build_c, spectrum_check, third_power_profile
from spincheck.scalar import render_q
from spincheck.weights import RootData, qdimension


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parity", choices=("even", "odd"), default="even")
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--skip-checks", action="store_true",
                    help="print the ladder only, no verification suites")
    args = ap.parse_args()

    k = args.rank
    c = build_c(k, args.parity)
    entries = sum(len(rw) for rw in c.mat.rows.values())
    print(f"C ({args.parity}, rank {k}): {c.dim}^2 x {c.dim}^2 matrix, "
          f"{entries} nonzero entries")

    print("\neigenvalue ladder:")
    if args.parity == "even":
        rd = RootData("D", k)
        for eig, r, lbl in zip(c.eigenvalues(), c.eigen_label_heights(),
                               c.eigen_labels()):
            print(f"  [{render_q(eig):>24}]  height {r}  label {lbl}  "
                  f"qdim {render_q(qdimension(lbl, rd))}")
    else:
        for eig in c.eigenvalues():
            print(f"  [{render_q(eig):>24}]")

    if args.skip_checks:
        return

    print("\nspectral verification:")
    print(spectrum_check(c).summary())
    if args.parity == "even":
        print("\nthird-power highest-weight profile:")
        print(third_power_profile(k).summary())


if __name__ == "__main__":
    main()
