"""Dispersion potentials: single atom at a perfect mirror, two atoms in free space.

Every value is an imaginary-frequency integral in closed form: with
t = 2 d xi / c, d the distance, a response over its static value is a sum of
poles v_k A_k^2 / (A_k^2 + t^2), A_k = 2 omega_k d / c, and each kernel is a
polynomial in t times e^-t (Abramowitz & Stegun 5.2). Each atom builds its
poles (omega_k, v_k) once (AtomModel.poles); a curve lays them out in two
arrays, its lines and the Gauss-Legendre nodes of its close pole pairs, see
_channel_integrals; _moments takes each pole's moments from a series, a
Taylor table or an asymptotic series, at a fixed cost per element.
The frequency-independent diamagnetic channels integrate the bare kernels,
3 (mirror d) and 23/4 (pair dd). A channel whose static response vanishes is
exactly zero; a channel value outside the float range is a ValueError naming
the channel and the distance. Every value is a point of a PotentialCurve. A
QuadratureSpec bounds only the quadrature oracles (vdw_pair_total_direct, selftest).

One rule builds every channel of both geometries (_channel_values):

    s_geom (-1)^n_e prefactor(d) unit c^(2 n_e) statics integral

n_e counts the channel's electric letters. At a mirror s_geom is plate.sign
(the magnetic trace is positive at a conductor, the electric trace its
negative), unit is mu0 and the prefactor hbar c / (32 pi^2 z^4); in free
space s_geom is -1, unit 1 and the prefactor hbar mu0^2 c / (16 pi^3 l^7).
statics is the product of the channel's static responses, the smaller
first, and integral that of their ratios against the kernel: mirror at a
mirror; in free space cross, times x^2, for n_e = 1 and same otherwise.
Every other sign is that of the statics (alpha, beta_p >= 0, beta_d <= 0).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import moment_table
# mirror_kernel and beta_para_iso are not used here; bench/tracer.py wraps the kernels and the
# responses where this module binds them
from .green import PlateKind, mirror_kernel, pair_kernel_cross, pair_kernel_same  # noqa: F401
from .quad import QuadratureSpec, integrate_semiinf
from .response import AtomModel, DiamagneticSpec, alpha_iso, beta_total, diamagnetisability
from .response import beta_para_iso  # noqa: F401
from .units import Constants, UnitSystem, constants_for

ELECTRIC_LETTER = "e"
PARA_LETTER = "p"
DIA_LETTER = "d"

# Bare kernel moments: int mirror_kernel dx and int pair_kernel_same dx.
MIRROR_D_MOMENT = 3.0
PAIR_DD_MOMENT = 23.0 / 4.0

# _moments: series below _SERIES_BELOW, Taylor table up to _ASYMPTOTIC_FROM, asymptotic beyond.
_SERIES_BELOW = 2.0
_ASYMPTOTIC_FROM = 100.0
# _moments' coefficients are float64 0-d arrays: a ufunc converts a Python float operand to an array
# on every call, which costs a 50-element in-place add about half its time again.


def _horner(coefficients) -> tuple:
    """A polynomial's coefficients, highest power first, as its top one and a list of the rest."""
    top, *rest = (np.array(float(c)) for c in coefficients)
    return top, rest


# (Ci(x) - gamma - ln x) / x^2 and Si(x) / x - 1 as polynomials in x^2
_CI_SERIES = _horner((-1) ** m / (2 * m * math.factorial(2 * m)) for m in range(14, 0, -1))
_SI_SERIES = _horner((-1) ** m / ((2 * m + 1) * math.factorial(2 * m + 1)) for m in range(14, 0, -1))
# (n + 2k)! of M_n = sum_k (n + 2k)! (-1/a^2)^(k + 1), n = 4 and 5, as polynomials in -1/a^2
_ASYMPTOTIC_SERIES = tuple((n, *_horner(math.factorial(n + 2 * k) for k in range(13, -1, -1))) for n in (4, 5))
# n! of the recurrences M_(n+2) = n! - a^2 M_n, n = 0..3
_FACTORIALS = tuple(np.array(float(math.factorial(n))) for n in range(4))
_EULER_GAMMA, _HALF_PI = np.array(0.5772156649015329), np.array(0.5 * math.pi)
# U_4 by bands of a: band edges, centres, and one coefficient row per power of a - centre, highest
# first; the top row stands apart, as slicing the tuple in every call raised the memory peak
_TAYLOR_EDGES = np.array(moment_table.EDGES)
_TAYLOR_CENTRES = np.array(moment_table.CENTRES)
_TAYLOR_TOP, *_TAYLOR_ROWS = (np.array(row) for row in reversed(moment_table.COEFFICIENTS))
# From here on every term has reached its limit in double precision; a^2 stays finite.
_A_LIMIT = 1e100
# Pole pairs whose squared frequencies differ by at most this share of their sum are double poles.
_CLOSE = 1e-2
# 4-point Gauss-Legendre nodes on [-1, 1] and half their weights, which sum to 1.
_GAUSS_NODES = (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526)
_GAUSS_WEIGHTS = (0.1739274225687269, 0.3260725774312731, 0.3260725774312731, 0.1739274225687269)
# Elements of the longest side or of the nodes in a block of distances, or one distance where that is longer;
# a block makes one _moments call per array.
_BLOCK = 32
# q_n of the sums sum_n q_n M_n of _term_values per unit of x (for a pair dx = dt/2, x^2 = t^2/4):
# e^-t (1 + t + t^2/2), (3 + 3t + 5t^2/4 + t^3/4 + t^4/16) e^-t / 2, t^2 (1 + t/2)^2 e^-t / 8 and
# that with t^2 out; same2, cross2 are double poles, N_n = ((1 - n) M_n + M_(n+1)) / (2 A^2),
# cross2_near is cross2 by N_(n+2) = M_n - A^2 N_n, which does not cancel below _SERIES_BELOW.
_KERNELS = {
    "mirror": (1.0, 1.0, 0.5),
    "same": (1.5, 1.5, 0.625, 0.125, 0.03125),
    "same2": (0.75, 0.75, 0.4375, 0.1875, 0.015625, 0.015625),
    "cross": (0.0, 0.0, 0.125, 0.125, 0.03125),
    "cross_out": (0.125, 0.125, 0.03125),
    "cross2": (0.0, 0.0, -0.0625, -0.0625, 0.015625, 0.015625),
    "cross2_near": (0.0625, 0.0625, -0.015625, -0.015625),
}


class Channel(Enum):
    """Interaction channels: three single-atom ones, nine two-atom pairs.

    Letters: e = electric, p = paramagnetic, d = diamagnetic. For pairs the
    first letter is atom A's response, the second atom B's.
    """

    E = "e"
    P = "p"
    D = "d"
    EE = "ee"
    EP = "ep"
    ED = "ed"
    PE = "pe"
    PP = "pp"
    PD = "pd"
    DE = "de"
    DP = "dp"
    DD = "dd"

    @property
    def is_pair(self) -> bool:
        return len(self.value) == 2


MIRROR_CHANNELS = (Channel.E, Channel.P, Channel.D)
PAIR_CHANNELS = (
    Channel.EE,
    Channel.EP,
    Channel.ED,
    Channel.PE,
    Channel.PP,
    Channel.PD,
    Channel.DE,
    Channel.DP,
    Channel.DD,
)


def _layout(channels) -> tuple:
    """Each channel's row, letters, the row of its swap (its own at a mirror) and its electric letters."""
    return tuple(
        (row, ch.value, channels.index(Channel(ch.value[::-1])), ch.value.count(ELECTRIC_LETTER))
        for row, ch in enumerate(channels)
    )


# what _live reads of each geometry's channels, so that no walk looks up an Enum member
_MIRROR_LAYOUT, _PAIR_LAYOUT = _layout(MIRROR_CHANNELS), _layout(PAIR_CHANNELS)


class Regime(Enum):
    NONRETARDED = "nonretarded"
    RETARDED = "retarded"


class UnsupportedAsymptoteError(ValueError):
    """No closed asymptotic coefficient is implemented for this channel/regime."""


_STATIC_NAMES = {
    ELECTRIC_LETTER: "polarisability alpha(0)",
    PARA_LETTER: "paramagnetisability beta_p(0)",
    DIA_LETTER: "diamagnetisability beta_d",
}


def _response(atom: AtomModel, letter: str, hbar: float):
    """Static response of one letter and the poles of its ratio to the static value.

    The poles are the atom's own (AtomModel.poles); None for the constant
    diamagnetic ratio 1 and for a zero static response. A static response
    outside the float range is a ValueError naming the atom and the response.
    """
    if letter == DIA_LETTER:
        static, poles = diamagnetisability(atom.diamagnetic), None
    else:
        static, poles = atom.poles[0 if letter == ELECTRIC_LETTER else 1]
        static *= 2.0 / (3.0 * hbar)  # alpha_iso / beta_para_iso at xi = 0 bit for bit
    return _finite_static(atom, letter, static), poles


def _finite_static(atom: AtomModel, letter: str, static: float) -> float:
    """static, or a ValueError naming the atom and the response if it is not a finite float."""
    if not math.isfinite(static):
        raise ValueError(
            f"atom {atom.label!r}: the static {_STATIC_NAMES[letter]} is {static!r}; "
            "it must be a finite float"
        )
    return static


def _grid(distances) -> np.ndarray:
    """distances as a float array, checked: 1-d, non-empty, positive and strictly increasing."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("distances must be a non-empty 1d array")
    if not np.all(d > 0.0):
        raise ValueError("distances must be positive")
    if not np.all(np.diff(d) > 0.0):
        raise ValueError("distances must be strictly increasing")
    return d


def _prefactors(
    numerator: float, coefficient: float, distances: np.ndarray, power: int, name: str
) -> np.ndarray:
    """numerator / (coefficient * d**power) for every positive distance d, checking each d first.

    A distance whose power leaves the float range, so that the prefactor
    would be zero, infinite or raise, is a ValueError naming it.
    """
    prefactors = []
    for d in distances.tolist():
        try:
            value = numerator / (coefficient * d**power)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"{name} {d!r} is out of range: 1/{name[-1]}^{power} is not a finite non-zero float"
            )
        prefactors.append(value)
    return np.array(prefactors)


def _moments(a: np.ndarray) -> np.ndarray:
    """M_n(a) = int_0^inf t^n e^-t / (a^2 + t^2) dt for n = 0..5, one row per n, elementwise.

    Below _SERIES_BELOW upward by M_(n+2) = n! - a^2 M_n from a M_0 = f(a), M_1 = g(a)
    of the series of Ci and Si; above it downward from a U_4 = M_5 + i a M_4, the
    Taylor polynomial of moment_table about the centre of a's band (degree 17,
    |a - centre| <= 0.118 centre), or from _ASYMPTOTIC_FROM on
    M_n = sum_k (-1)^k (n + 2k)! / a^(2k + 2). Each element's route depends on its
    own a only. At tens of elements a call costs its numpy calls, not its arithmetic,
    so each Horner loop starts from its top coefficient (0 y + c = c, bit for bit)
    and every coefficient is a float64 0-d array. In place on 1d
    arrays, where numpy takes no hidden buffers; the series route, whose working set
    is the largest, keeps its temporaries in one scratch row.
    """
    moments = np.empty((6, a.size))
    near = (a < _SERIES_BELOW).nonzero()[0]
    if near.size:
        x = a.take(near)
        y = x * x
        (ci_top, ci_series), (si_top, si_series) = _CI_SERIES, _SI_SERIES
        ci, si = np.full(x.size, ci_top), np.full(x.size, si_top)
        for ci_term, si_term in zip(ci_series, si_series):
            ci *= y
            ci += ci_term
            si *= y
            si += si_term
        # one scratch row serves ln x, y x, pi/2 - x, sin x and cos x: the series route sets a call's peak
        ci *= y
        scratch = np.log(x)
        scratch += _EULER_GAMMA
        ci += scratch  # Ci(x)
        np.multiply(y, x, out=scratch)
        si *= scratch
        np.subtract(_HALF_PI, x, out=scratch)
        np.subtract(scratch, si, out=si)  # pi/2 - Si(x)
        np.sin(x, out=scratch)
        f, g = ci * scratch, si * scratch
        np.cos(x, out=scratch)
        si *= scratch
        f += si  # ci sin + si cos
        ci *= scratch
        g -= ci  # si sin - ci cos
        del ci, si, scratch
        moments[0].put(near, f / x)
        moments[1].put(near, g)
        for n, row, factor in ((2, f, x), (3, g, y), (4, f, y), (5, g, y)):
            row *= factor
            np.subtract(_FACTORIALS[n - 2], row, out=row)
            moments[n].put(near, row)
    asymptotic = (a >= _ASYMPTOTIC_FROM).nonzero()[0]
    if asymptotic.size:
        w = a.take(asymptotic)
        w *= w
        np.divide(-1.0, w, out=w)
        for n, top, series in _ASYMPTOTIC_SERIES:
            total = np.full(w.size, top)
            for factorial in series:
                total *= w
                total += factorial
            moments[n].put(asymptotic, -w * total)
        del w, total
    taylor = ((a >= _SERIES_BELOW) & (a < _ASYMPTOTIC_FROM)).nonzero()[0]
    if taylor.size:
        x = a.take(taylor)
        band = _TAYLOR_EDGES.searchsorted(x, "right")
        offset = x - _TAYLOR_CENTRES.take(band)
        # one gathered row per step: gathering all rows at once raised the manyline memory peak by half
        u4 = _TAYLOR_TOP.take(band)
        for row in _TAYLOR_ROWS:
            u4 *= offset
            u4 += row.take(band)
        del band, offset
        moments[4].put(taylor, u4.imag / x)
        moments[5].put(taylor, u4.real)  # put copies a strided source whole; [] = would take a hidden buffer
        del u4, x
    far = (a >= _SERIES_BELOW).nonzero()[0]
    if far.size:
        x = a.take(far)
        x *= x
        np.divide(1.0, x, out=x)
        for n in (3, 2, 1, 0):
            row = moments[n + 2].take(far)
            np.subtract(_FACTORIALS[n], row, out=row)
            row *= x
            moments[n].put(far, row)
    return moments


def _term_values(kind: str, a: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """The integral of a pole at each a against a kind of kernel: a^2 sum q_n M_n.

    That holds for a simple pole a^2 / (a^2 + t^2) and a double pole a^4 / (a^2 + t^2)^2;
    cross_out, t^2 = (a^2 + t^2) - a^2 without the constant, gives -a^4 sum q_n M_n.
    """
    def combine(kind):
        terms = ((q, row) for q, row in zip(_KERNELS[kind], moments) if q)
        q, row = next(terms)
        # no 0 + before the first product: 0 + s differs from s only where s is -0.0, and the sum is
        # -0.0 only where every term is; every kind has a positive q, whose term is -0.0 only over a
        # moment that is -0.0 or negative, and no M_n, the integral of a positive integrand, is
        total = q * row
        for q, row in terms:
            total += q * row
        return total

    a2 = a * a
    values = combine(kind)
    if kind == "cross2":
        near = (a < _SERIES_BELOW).nonzero()[0]
        if near.size:
            values[near] = (a2 * combine("cross2_near"))[near]
    elif kind == "cross_out":
        values *= -a2
    values *= a2
    return values


def _partial_fractions(sides) -> list:
    """The product of the sides' response ratios as groups (kind suffix, frequencies, index, c).

    One side gives its own poles ("", omegas, None, v). Of two, squared
    frequencies W, N with shares v, u give v u N/(N - W) to the simple
    pole W/(W + xi^2), and the mirror image to N/(N + xi^2); closer than _CLOSE
    they give v u W N times the Gauss-Legendre mean of 1/(rho + xi^2)^2 over rho
    between W and N: double poles c A^4 / (A^2 + t^2)^2, A = 2 sqrt(rho) d / c,
    one at the first side's frequency of index if W = N. Each depends on W + N,
    |N - W| and products, so swapping the sides changes no bit. The close
    pairs' results are Python floats (a float's ** is C pow, numpy's x ** 2 is
    x * x, and the two differ in the last bit now and then), gathered in flat
    lists: tuples to unzip would stay in CPython's free lists, within the
    curve's memory peak.
    """
    (omegas, shares), *other = sides
    if not other:
        return [("", omegas, None, shares)]
    [(others, other_shares)] = other

    def residues(squares, partners, partner_shares):
        sums, close, weights = np.empty(squares.size), [], partner_shares * partners
        for j, square in enumerate(squares.tolist()):
            gap = partners - square
            near = np.abs(gap) <= _CLOSE * (partners + square)
            far = (~near).nonzero()[0]
            sums[j] = (weights[far] / gap[far]).sum()
            close += [(j, k) for k in near.nonzero()[0].tolist()]
        return sums, close

    sums, close = residues(omegas**2, others**2, other_shares)
    if others is omegas:  # a self-pair: the other side's terms are the same, a close pair's both ways too
        groups = [("", omegas, None, 2.0 * shares * sums)]
        close = [(j, k) for j, k in close if j <= k]
    else:
        other_sums = residues(others**2, omegas**2, shares)[0]
        groups = [("", omegas, None, shares * sums), ("", others, None, other_shares * other_sums)]
    index, coincident, frequencies, coefficients = [], [], [], []
    for j, k in close:
        w, n = omegas[j].item() ** 2, others[k].item() ** 2
        product = shares[j].item() * other_shares[k].item() * (2.0 if others is omegas and k > j else 1.0)
        middle, half = 0.5 * (w + n), 0.5 * abs(n - w)
        if not half:
            index.append(j)
            coincident.append(product)
        for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS) if half else ():
            rho = middle + half * node
            frequencies.append(math.sqrt(rho))
            coefficients.append(product * (w * n / rho**2) * weight)
    if index:
        groups.append(("2", omegas, np.array(index), np.array(coincident)))
    if frequencies:
        groups.append(("2", np.array(frequencies), None, np.array(coefficients)))
    return groups


def _row_sums(points: np.ndarray, width: int, out: np.ndarray) -> None:
    """out[i] = math.fsum(points[i, :width]) for every row i, width >= 1.

    Rows of one or two terms go by column: one IEEE addition rounds once, as
    fsum does, and adding 0.0 turns a -0.0 into the 0.0 that fsum returns.
    Where fsum raises instead (inf - inf, or a sum past the float range), such
    a row reads nan or inf, which _channel_values names as not finite.
    """
    if width > 2:
        for i in range(out.size):  # .data: the row's floats one at a time, without a list of them
            out[i] = math.fsum(points[i, :width].data)
    else:
        np.add(points[:, 0], points[:, 1] if width == 2 else 0.0, out=out)
        out += 0.0


def _channel_integrals(channels, scales: np.ndarray):
    """The integral over x of each channel at every scale 2 d / c, an iterator of rows.

    A channel is (kernel, sides): "mirror", "same" or "cross" and the poles of
    _response of the sides whose ratio is not 1. Its row integrates their
    product times the kernel (times x^2 for cross) as math.fsum of its terms,
    which a block of distances lays out as one row per distance: a distance
    gets the same bits in a curve as alone, and a swap changes no bit. A row
    of one or two terms is one rounding, so _row_sums takes it by column with
    fsum's bits. The lines (every side's frequencies once) and the
    Gauss-Legendre nodes of all channels' close pairs form two arrays, which
    take their moments in one call per array per block of distances. A block
    holds at most max(1, _BLOCK // widest) distances, widest being the longest
    side or the nodes, and blocks differ by at most one distance. A call is
    whole rows, an array's elements at one distance: at most 2 _BLOCK elements
    at a mirror, 4 _BLOCK for a pair's lines (one per side) and _BLOCK for the
    nodes, or one row where widest is longer than _BLOCK, so a call's working
    set never grows with the grid. A two-sided
    crossed channel takes t^2 out (cross_out) where all its simple poles have
    A < _SERIES_BELOW: keeping it in cancels to the order of A there, taking
    it out to A^-2 elsewhere.
    """
    lines, starts = [], {}
    for _, sides in channels:
        for omegas, _ in sides:
            if id(omegas) not in starts:
                starts[id(omegas)] = sum(placed.size for placed in lines)
                lines.append(omegas)
    kinds, nodes, plans = ([], []), [], []  # kinds: of the terms on the lines and on the nodes
    for kernel, sides in channels:
        crossed_pair = kernel == "cross" and len(sides) == 2
        terms, width = [], 0  # (array, row of its kind, row with t^2 out, positions, column, coefficients)
        for suffix, frequencies, index, coefficients in _partial_fractions(sides):
            r = int(bool(suffix) and index is None)  # the Gauss-Legendre nodes are array 1
            start = sum(node.size for node in nodes) if r else starts[id(frequencies)]
            if r:
                nodes.append(frequencies)
            kind = kernel + suffix
            t2_kind = "cross_out" if crossed_pair and kind == "cross" else kind
            for needed in (kind, t2_kind):
                if needed not in kinds[r]:
                    kinds[r].append(needed)
            positions = slice(start, start + frequencies.size) if index is None else index + start
            terms.append((r, kinds[r].index(kind), kinds[r].index(t2_kind), positions, width, coefficients))
            width += coefficients.size
        switch = 0  # the first distances take t^2 out, until the top pole's A reaches _SERIES_BELOW
        if crossed_pair:  # bisected as floats, several times faster than as numpy scalars
            top = max(float(omegas.max()) for omegas, _ in sides)
            switch = bisect_left(scales.tolist(), True, key=lambda s: top * s >= _SERIES_BELOW)
        plans.append((switch, width, terms))
    if not plans:
        return iter(())
    widest = max([omegas.size for omegas in lines] + [sum(node.size for node in nodes)])
    arrays = [np.concatenate(group) if len(group) > 1 else group[0] for group in (lines, nodes) if group]
    del lines, starts, nodes
    blocks = -(-scales.size // max(1, _BLOCK // widest))
    step = -(-scales.size // blocks)
    tables = [np.empty((len(names), step, f.size)) for f, names in zip(arrays, kinds)]
    most_terms = max(width for _, width, _ in plans)

    integrals = np.empty((len(plans), scales.size))
    bounds = [-(-i * scales.size // blocks) for i in range(blocks + 1)]  # blocks of step or step - 1 distances
    for first, last in zip(bounds, bounds[1:]):
        block = scales[first:last]
        for frequencies, names, table in zip(arrays, kinds, tables):
            a = np.minimum(np.multiply.outer(block, frequencies), _A_LIMIT).ravel()
            moments = _moments(a)
            for kind, row in zip(names, table.reshape(len(names), -1)):
                row[: a.size] = _term_values(kind, a, moments)
            del moments
        # a channel's terms, a row per distance; allocated after the moments, to keep out of their peak
        points = np.empty((block.size, most_terms))
        for out, (switch, width, terms) in zip(integrals, plans):
            switch = min(max(switch - first, 0), block.size)  # the block's distances with t^2 out
            for r, row, row_out, positions, column, c in terms:
                # c as a row: numpy broadcasts a 1d operand slowly; made here, where it costs no memory peak
                columns, table, c = slice(column, column + c.size), tables[r], c[None]
                if switch:
                    np.multiply(table[row_out][:switch, positions], c, out=points[:switch, columns])
                if switch < block.size:
                    np.multiply(table[row][switch : block.size, positions], c, out=points[switch:, columns])
            _row_sums(points, width, out[first:last])
        del points
    return iter(integrals)


def _finite_channel(value: float, channel: Channel, name: str, d: float) -> float:
    """value, or a ValueError naming the channel and the distance d if it is not a finite float."""
    if not math.isfinite(value):
        raise ValueError(f"channel {channel.value!r} at {name} {d!r} is {value!r}; it must be a finite float")
    return value


def _live(layout: tuple, responses: list, self_pair: bool):
    """Each channel of a _layout without a zero static: rows it fills, electric letters, statics and poles.

    The statics come smaller first; the poles are those of the sides whose ratio is not 1.
    A self-pair's rows are a channel's and its swap's: ep, de and dp fill pe, ed and pd
    too. A generator, which _channel_values takes twice: a list of every channel raised
    the verify memory peak.
    """
    for row, letters, swap, electric in layout:
        if not (self_pair and letters[0] > letters[1]):
            picked = [side[letter] for side, letter in zip(responses, letters)]
            statics = sorted(static for static, _ in picked)
            if 0.0 not in statics:
                sides = [poles for _, poles in picked if poles is not None]
                yield [row, swap] if self_pair else row, electric, statics, sides


def _channel_values(
    atoms: tuple[AtomModel, ...], distances: np.ndarray, plate: PlateKind | None, consts: Constants
) -> np.ndarray:
    """Every channel of one geometry at every distance, one row per channel.

    The one evaluation path: one atom at a plate (MIRROR_CHANNELS) or two atoms
    in free space (plate None, PAIR_CHANNELS), by the channel rule of the module
    docstring; the all-diamagnetic channel integrates MIRROR_D_MOMENT or
    PAIR_DD_MOMENT. A zero static response leaves its channel zero. The
    channels are built under one np.errstate, and one scan of all their values
    names the first channel, in channel order, and its first distance where a
    value is not a finite float.
    """
    hbar, c = consts.hbar, consts.c
    if plate is None:
        channels, layout, name, kernel = PAIR_CHANNELS, _PAIR_LAYOUT, "separation l", None
        moment, sign, unit = PAIR_DD_MOMENT, -1.0, 1.0
        bases = _prefactors(hbar * consts.mu0**2 * c, 16.0 * np.pi**3, distances, 7, name)
    else:
        channels, layout, name, kernel = MIRROR_CHANNELS, _MIRROR_LAYOUT, "mirror distance z", "mirror"
        moment, sign, unit = MIRROR_D_MOMENT, plate.sign, consts.mu0
        bases = _prefactors(hbar * c, 32.0 * np.pi**2, distances, 4, name)
    self_pair = len(atoms) == 2 and atoms[1] is atoms[0]
    responses = [
        {letter: _response(atom, letter, hbar) for letter in _STATIC_NAMES}
        for atom in (atoms[:1] if self_pair else atoms)
    ] * (1 + self_pair)  # a self-pair looks its atom up once, for both sides
    integrals = _channel_integrals(
        [
            (kernel or ("cross" if electric == 1 else "same"), sides)
            for _, electric, _, sides in _live(layout, responses, self_pair)
            if sides
        ],
        2.0 * distances / c,
    )
    values = np.zeros((len(channels), distances.size))
    with np.errstate(over="ignore", invalid="ignore"):  # the scan below names what left the float range
        for rows, electric, statics, sides in _live(layout, responses, self_pair):
            integral = next(integrals) if sides else moment
            value = bases * (sign * (-1) ** electric * unit * c ** (2 * electric))
            for static in statics:  # the smaller first: no product of statics leaves the float range
                value *= static
            values[rows] = value * integral
    if not np.isfinite(values).all():  # the first channel, in channel order, at its first distance
        row, i = divmod(int(np.argmin(np.isfinite(values))), distances.size)
        _finite_channel(float(values[row, i]), channels[row], name, float(distances[i]))
    return values


def cp_mirror_diamagnetic_closed(
    beta_d: float, z: float, plate: PlateKind, consts: Constants
) -> float:
    """Closed form of the diamagnetic mirror channel: sign * 3 hbar mu0 c beta_d / (32 pi^2 z^4).

    A single quartic law at every distance; attractive in front of a
    conductor (beta_d <= 0), repulsive at a permeable mirror. z must be a
    distance that mirror_curve accepts, and beta_d obey the Lenz rule. A value
    outside the float range is mirror_curve's ValueError naming channel d and z.
    plate is a PlateKind or its value ("conducting"); anything else is a ValueError.
    """
    plate = PlateKind(plate)
    if not z > 0.0:
        raise ValueError(f"mirror distance z must be positive, got {z!r}")
    # mirror_curve's check of z only
    _prefactors(consts.hbar * consts.c, 32.0 * np.pi**2, np.array([z], dtype=float), 4, "mirror distance z")
    DiamagneticSpec(direct_beta_d=beta_d)  # finite and <= 0
    value = plate.sign * 3.0 * consts.hbar * consts.mu0 * consts.c * beta_d / (32.0 * np.pi**2 * z**4)
    return _finite_channel(value, Channel.D, "mirror distance z", float(z))


def _pair_base(l: float, consts: Constants) -> float:
    """hbar mu0^2 c / (16 pi^3 l^7), by pair_curve's range check of l."""
    if not l > 0.0:
        raise ValueError(f"separation l must be positive, got {l!r}")
    numerator = consts.hbar * consts.mu0**2 * consts.c
    [base] = _prefactors(numerator, 16.0 * np.pi**3, np.array([l], dtype=float), 7, "separation l").tolist()
    return base


def vdw_pair_total_direct(
    atom_a: AtomModel,
    atom_b: AtomModel,
    l: float,
    consts: Constants,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Total two-atom potential evaluated without the channel split.

    Independent path used to check channel additivity: the full responses
    (alpha and total beta = beta_p + beta_d) enter one unfactored integrand,
    c^2 x^2 (alpha_A beta_B + beta_A alpha_B) K_cross - (c^4 alpha_A alpha_B
    + beta_A beta_B) K_same with x = l xi / c, taken by one integrate_semiinf
    call and times hbar mu0^2 c / (16 pi^3 l^7). So agreement with the summed
    pair_curve channels is a real cross-check rather than an identity, and
    spec.rel_tol binds the total returned; where the like and crossed parts
    cancel it to near zero, that tolerance may be out of reach and the call
    raises ConvergenceError.
    """
    base = _pair_base(l, consts)
    hbar, c = consts.hbar, consts.c
    scale = c / l

    def integrand(x):
        x = np.asarray(x, dtype=float)
        xi = scale * x
        alpha_a, alpha_b = alpha_iso(atom_a, xi, hbar), alpha_iso(atom_b, xi, hbar)
        beta_a, beta_b = beta_total(atom_a, xi, hbar), beta_total(atom_b, xi, hbar)
        cross = c**2 * x**2 * (alpha_a * beta_b + beta_a * alpha_b) * pair_kernel_cross(x)
        return cross - (c**4 * alpha_a * alpha_b + beta_a * beta_b) * pair_kernel_same(x)

    return base * integrate_semiinf(integrand, spec, decay_scale=0.5).value


def vdw_asymptote(
    channel: Channel,
    atom_a: AtomModel,
    atom_b: AtomModel,
    l: float,
    regime: Regime,
    consts: Constants,
) -> float:
    """Closed-form asymptotic value of a pair channel at separation l.

    Retarded, every response sits at its static value S, and a channel with
    n_e electric letters is k hbar mu0^2 c^(1 + 2 n_e) S_A S_B / (64 pi^3 l^7),
    k = 7 for a crossed channel (n_e = 1) and -23 for a like one (Casimir &
    Polder 1948; Feinberg & Sucher, PRA 2, 2395 (1970)). dd follows that law
    at every separation. Nonretarded, ed/de go as l^-5 and dp/pd as l^-6;
    ee, ep, pe and pp have no closed nonretarded coefficient and raise
    UnsupportedAsymptoteError. l must be a separation that pair_curve accepts
    and the channel's statics finite, as there; a value outside the float
    range is pair_curve's ValueError naming the channel and l. channel and
    regime are a Channel and a Regime or their values ("ed", "nonretarded");
    anything else is a ValueError.
    """
    channel, regime = Channel(channel), Regime(regime)
    if not channel.is_pair:
        raise ValueError(f"asymptotes are defined for pair channels, got {channel}")
    _pair_base(l, consts)  # pair_curve's checks of l only
    hbar, c, mu0, pi = consts.hbar, consts.c, consts.mu0, np.pi
    letters = channel.value
    nonretarded = regime is Regime.NONRETARDED and channel is not Channel.DD
    if nonretarded and DIA_LETTER not in letters:
        raise UnsupportedAsymptoteError(f"no closed nonretarded coefficient for channel {letters!r}")
    statics = [_response(atom, letter, hbar)[0] for letter, atom in zip(letters, (atom_a, atom_b))]
    electric = letters.count(ELECTRIC_LETTER)
    if not nonretarded:
        k = 7.0 if electric == 1 else -23.0
        value = k * hbar * mu0**2 * c ** (1 + 2 * electric) * (statics[0] * statics[1]) / (64.0 * pi**3 * l**7)
    else:
        # one side diamagnetic, the other electric (l^-5) or paramagnetic (l^-6)
        beta_d, sides = statics[letters.index(DIA_LETTER)], dict(zip(letters, (atom_a, atom_b)))
        if electric:
            weighted = sum(t.omega * t.dipole_sq for t in sides[ELECTRIC_LETTER].electric_transitions)
            value = 5.0 * mu0**2 * c * (beta_d * weighted) / (96.0 * pi**3 * l**5)
        else:
            m_sq = sum(t.dipole_sq for t in sides[PARA_LETTER].magnetic_transitions)
            value = -(mu0**2) * (beta_d * m_sq) / (16.0 * pi**2 * l**6)
    return _finite_channel(value, channel, "separation l", float(l))


@dataclass(frozen=True, slots=True, kw_only=True)
class PotentialCurve:
    """Per-channel potential values over a distance grid.

    A mirror curve has a plate and carries MIRROR_CHANNELS, a two-atom curve
    has plate None and carries PAIR_CHANNELS; a plate is a PlateKind or its
    value ("conducting"), anything else a ValueError. total is derived from the
    channels: electric + (paramagnetic + diamagnetic) at a mirror, the
    math.fsum of the nine channels per separation for a pair.
    """

    distances: np.ndarray
    values: dict[Channel, np.ndarray]
    plate: PlateKind | None = None
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.plate is not None:
            object.__setattr__(self, "plate", PlateKind(self.plate))
        expected = PAIR_CHANNELS if self.plate is None else MIRROR_CHANNELS
        if set(self.values.keys()) != set(expected):
            raise ValueError(f"curve must carry channels {[c.value for c in expected]}")
        d = _grid(self.distances)
        object.__setattr__(self, "distances", d)
        values = {ch: np.asarray(self.values[ch], dtype=float) for ch in expected}
        for ch, vals in values.items():
            if vals.shape != d.shape:
                raise ValueError(f"channel {ch.value} length does not match distances")
        object.__setattr__(self, "values", values)
        if self.plate is None:
            # per column of one (9, n) array, its floats read through .data: .tolist() and zip raised the
            # verify memory peak by half, and iterating the column itself makes a numpy scalar per float
            total = np.array([math.fsum(point.data) for point in np.array(list(values.values())).T])
        else:
            total = values[Channel.E] + (values[Channel.P] + values[Channel.D])
        object.__setattr__(self, "total", total)


def mirror_curve(
    atom: AtomModel,
    distances,
    plate: PlateKind,
    units: UnitSystem,
    spec: QuadratureSpec = QuadratureSpec(),
) -> PotentialCurve:
    """Ground-state potential of an atom at each distance z from a perfect mirror.

    Electric channel: (hbar/2 pi eps0) int dxi alpha(i xi) Tr Gee1(z, z, i xi);
    paramagnetic and diamagnetic channels carry (hbar mu0 / 2 pi) and the
    magnetic trace instead. After x = 2 z xi / c each channel becomes an
    analytic prefactor ~1/z^4 times int response_ratio * mirror_kernel dx.
    In front of a conductor the electric channel is attractive and both
    magnetic ones repulsive for paramagnetic / attractive for diamagnetic
    response; a permeable mirror flips every sign. The total is
    electric + (paramagnetic + diamagnetic). plate and units are a PlateKind
    and a UnitSystem or their values ("conducting", "natural"); anything else
    is a ValueError. spec bounds no part of the closed forms; only
    bench/workloads.py still passes one, and ROADMAP item 1 unblocks its
    deletion.
    """
    plate = PlateKind(plate)
    d = _grid(distances)
    values = _channel_values((atom,), d, plate, constants_for(units))
    return PotentialCurve(distances=d, values=dict(zip(MIRROR_CHANNELS, values)), plate=plate)


def pair_curve(
    atom_a: AtomModel,
    atom_b: AtomModel,
    distances,
    units: UnitSystem,
    spec: QuadratureSpec = QuadratureSpec(),
) -> PotentialCurve:
    """Two-atom dispersion potential at each separation l, split into nine channels.

    With x = l xi / c, like-response channels (ee, pp, pd, dp, dd) are

        -hbar mu0^2 c W / (16 pi^3 l^7) * int R_A R_B pair_kernel_same dx

    with W = c^4 for ee and 1 otherwise, while the crossed channels
    (ep, ed, pe, de) are

        +hbar mu0^2 c^3 / (16 pi^3 l^7) * int x^2 R_e R_m pair_kernel_cross dx,

    R denoting the response evaluated at xi = c x / l (the static magnitudes
    are inside the prefactor). Like channels inherit their sign from the
    product of static responses, crossed ones the opposite. The total is the
    math.fsum of the nine channels. units is a UnitSystem or its value
    ("natural"). spec bounds no part of the closed forms;
    only bench/workloads.py still passes one, and ROADMAP item 1 unblocks its
    deletion.
    """
    d = _grid(distances)
    values = _channel_values((atom_a, atom_b), d, None, constants_for(units))
    return PotentialCurve(distances=d, values=dict(zip(PAIR_CHANNELS, values)))


def force_from_curve(curve: PotentialCurve) -> np.ndarray:
    """Force -dU/dr on the curve's grid: central differences inside, one-sided edges."""
    if curve.distances.size < 3:
        raise ValueError("force needs at least 3 grid points")
    return -np.gradient(curve.total, curve.distances, edge_order=2)
