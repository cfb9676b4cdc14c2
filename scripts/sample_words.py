#!/usr/bin/env python3
"""Sample words from a shift-measure descriptor and write them as text lines.

The measure descriptor uses the same JSON dialect as scenario configs, e.g.

    {"kind": "convolution",
     "left": {"kind": "bernoulli", "marginal": ["3/4", "1/4"]},
     "right": {"kind": "periodic_orbit", "word": [0, 1]}}
"""

import argparse
import json
import sys

from ergolab import cyclic
from ergolab.scenarios import parse_measure
from ergolab.shifts import shift_space


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("measure", help="measure descriptor JSON (string or @file)")
    ap.add_argument("--alphabet", type=int, default=2, help="cyclic alphabet order")
    ap.add_argument("--length", type=int, default=1000)
    ap.add_argument("--count", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-", help="output path or - for stdout")
    args = ap.parse_args()
    if args.length < 1:
        ap.error(f"--length must be >= 1, got {args.length}")
    if args.count < 0:
        ap.error(f"--count must be >= 0, got {args.count}")

    text = args.measure
    if text.startswith("@"):
        text = open(text[1:]).read()
    system = shift_space(cyclic(args.alphabet))
    mu = parse_measure(json.loads(text), system, "measure")

    sink = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        for i in range(args.count):
            word = mu.sample(args.length, args.seed + i)
            sink.write("".join(str(int(s)) for s in word) + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
