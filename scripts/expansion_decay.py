#!/usr/bin/env python3
"""Residual decay of partial expansions for the named smooth functions.

Both registry functions vanish at the endpoints, so their coefficients decay
spectrally; this prints sup and weighted-L2 residuals against the truncation
degree.

Usage:
    python scripts/expansion_decay.py [--max-N 16]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from intlegendre.approx import FUNCTIONS, expand


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-N", type=int, default=16, dest="top")
    args = parser.parse_args()

    for name in sorted(FUNCTIONS):
        print(f"\n{name}")
        print(f"{'N':>4}  {'residual_sup':>14}  {'residual_weighted_l2':>20}")
        for top in range(2, args.top + 1, 2):
            report = expand(name, top)
            print(f"{top:>4}  {report.residual_sup:>14.3e}  "
                  f"{report.residual_weighted_l2:>20.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
