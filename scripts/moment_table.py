#!/usr/bin/env python3
"""Print the Taylor table of U_4 that vdwcp.potentials._moments evaluates for 2 <= A < 100.

    python3 scripts/moment_table.py > src/vdwcp/moment_table.py

With z = -i A, U_4(z) = M_5 + i A M_4 = 6 - 2z + z^2 - z^3 + z^4 e^z E_1(z),
M_n(A) = int_0^inf t^n e^-t / (A^2 + t^2) dt. Band j is
[2 * 1.25^j, 2 * 1.25^(j + 1)); about its centre A_j, the double nearest
2 * 1.25^(j + 1/2), every A of the band has |A - A_j| <= 0.118 A_j, and
TERMS terms reach double precision. The Taylor coefficients c_m = U_4^(m)(z_j) / m!
follow from z U' = (z + 4) U - 24:

    z_j (m + 1) c_(m+1) = (z_j + 4 - m) c_m + c_(m-1) - 24 [m = 0].

That recurrence cancels in double precision, so it runs in mpmath at DIGITS
digits. Each coefficient is stored times (-i)^m, so that
U_4(A) = sum_m COEFFICIENTS[m][j] (A - A_j)^m in the real offset. Needs mpmath.
"""
from fractions import Fraction

import mpmath as mp

FIRST = 2  # potentials._SERIES_BELOW
RATIO = 1.25
BANDS = 18  # 2 * 1.25^18 = 111 covers [2, 100)
TERMS = 18
DIGITS = 80


def table():
    """(EDGES, CENTRES, COEFFICIENTS): the inner band edges, the centres, and one row per power m."""
    edges = tuple(float(FIRST * Fraction(RATIO) ** j) for j in range(1, BANDS))
    rows = [[] for _ in range(TERMS)]
    centres = []
    with mp.workdps(DIGITS):
        for j in range(BANDS):
            centre = float(FIRST * mp.mpf(RATIO) ** (j + 0.5))
            centres.append(centre)
            z = mp.mpc(0, -centre)
            c = [6 - 2 * z + z**2 - z**3 + z**4 * mp.exp(z) * mp.e1(z)]
            for m in range(TERMS - 1):
                previous = c[m - 1] if m else -24
                c.append(((z + 4 - m) * c[m] + previous) / (z * (m + 1)))
            for m, row in enumerate(rows):
                row.append(complex(c[m] * mp.mpc(0, -1) ** m))
    return edges, tuple(centres), tuple(map(tuple, rows))


def _lines(values, indent):
    line, lines = indent, []
    for text in (repr(v) + "," for v in values):
        if len(line) + len(text) + 1 > 100:
            lines.append(line.rstrip())
            line = indent
        line += text + " "
    return lines + [line.rstrip()]


def source() -> str:
    """The text of src/vdwcp/moment_table.py."""
    edges, centres, rows = table()
    lines = [
        '"""Taylor table of U_4 = M_5 + i A M_4 for potentials._moments, 2 <= A < 100.',
        "",
        "Generated by scripts/moment_table.py, which derives it; do not edit. Band j is",
        "[EDGES[j - 1], EDGES[j]) (from 2, up to 111), CENTRES[j] its centre A_j, and",
        "U_4(A) = sum_m COEFFICIENTS[m][j] (A - A_j)^m.",
        '"""',
        "",
        "EDGES = (",
        *_lines(edges, "    "),
        ")",
        "CENTRES = (",
        *_lines(centres, "    "),
        ")",
        "COEFFICIENTS = (",
    ]
    for m, row in enumerate(rows):
        lines += [f"    (  # m = {m}", *_lines(row, "        "), "    ),"]
    return "\n".join(lines + [")", ""])


if __name__ == "__main__":
    print(source(), end="")
