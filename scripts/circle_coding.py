#!/usr/bin/env python3
"""Export itineraries of x -> kx mod 1 through the generating partition.

Either a single exact orbit of a rational starting point, or Lebesgue-typical
blocks (a fresh high-precision random point every 40 symbols).
"""

import argparse
import sys
from fractions import Fraction

from ergolab.circle import sample_lebesgue_coding, symbolic_coding, times_k


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--x0", default=None, help="rational start, e.g. 1/3; omit for random")
    ap.add_argument("--symbols", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()
    if args.symbols < 1:
        ap.error(f"--symbols must be >= 1, got {args.symbols}")

    sys_k = times_k(args.k)
    sink = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        if args.x0 is not None:
            word = symbolic_coding(sys_k, Fraction(args.x0), args.symbols)
            sink.write("".join(str(int(s)) for s in word) + "\n")
        else:
            for block in sample_lebesgue_coding(sys_k, args.symbols, args.seed):
                sink.write("".join(str(s) for s in block) + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
