#!/usr/bin/env python3
"""Exact minimum values of the constrained weighted square integral.

Prints M(n) for the degree-n problem with value 1 at the origin. The value
plateaus at odd n: odd members vanish at the origin, so raising the degree
by one buys nothing there.

Usage:
    python scripts/extremal_profile.py [--max-n 16]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from intlegendre.approx import minimize_constrained


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=16, dest="top")
    args = parser.parse_args()

    print(f"{'n':>4}  {'M (exact)':>24}  {'M (float)':>12}")
    for n in range(2, args.top + 1):
        solution = minimize_constrained(n)
        print(f"{n:>4}  {str(solution.min_value):>24}  {float(solution.min_value):>12.8f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
