"""Write reg_gamma_mpmath.csv, the reference table of the accuracy budget.

Each row is (s, x, P, Q): a shape and an argument, exact doubles written by
repr, and the regularized incomplete gammas P(s, x) and Q(s, x) that mpmath
computes at 40 significant digits, written to 25. s is log-uniform on 0.05
to 2000 and x / s log-uniform on e^-2 to e^1.2, so deep lower tails (P far
below 1) and deep upper tails (Q far below 1) both occur at large s. Rows
whose P or Q falls below 1e-300 are skipped, so every value has a normal
float's ulp. mpmath is not a dependency of recrange; the table is committed
and the tests read it, so only this script needs mpmath:

    python tests/data/make_reg_gamma_table.py
"""

import csv
import math
import random
from pathlib import Path

import mpmath

ROWS = 300
TINY = 1e-300


def main() -> None:
    mpmath.mp.dps = 40
    draw = random.Random(20).uniform
    rows = []
    while len(rows) < ROWS:
        s = math.exp(draw(math.log(0.05), math.log(2000.0)))
        x = s * math.exp(draw(-2.0, 1.2))
        p = mpmath.gammainc(s, 0, x, regularized=True)
        q = mpmath.gammainc(s, x, mpmath.inf, regularized=True)
        if min(p, q) >= TINY:
            rows.append((repr(s), repr(x), mpmath.nstr(p, 25), mpmath.nstr(q, 25)))
    path = Path(__file__).with_name("reg_gamma_mpmath.csv")
    with path.open("w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(("s", "x", "P", "Q"))
        out.writerows(sorted(rows, key=lambda row: float(row[0])))


if __name__ == "__main__":
    main()
