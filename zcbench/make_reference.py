"""Regenerate reference_zeros.csv: ordinates of the first nontrivial zeta
zeros from mpmath, to 30 significant digits, through the first zero above
T_MAX_REFERENCE.

The benchmark itself only reads the CSV; this script needs mpmath:

    python3 zcbench/make_reference.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath

T_MAX_REFERENCE = 252.0
OUT = Path(__file__).resolve().parent / "reference_zeros.csv"


def main() -> None:
    mpmath.mp.dps = 30
    rows = []
    n = 1
    while True:
        t = mpmath.zetazero(n).imag
        rows.append(f"{n},{mpmath.nstr(t, 25)}")
        if t > T_MAX_REFERENCE:
            break
        n += 1
    OUT.write_text("index,ordinate\n" + "\n".join(rows) + "\n")
    print(f"wrote {len(rows)} ordinates to {OUT}")


if __name__ == "__main__":
    main()
