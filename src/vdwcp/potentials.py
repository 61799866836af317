"""Dispersion potentials: single atom at a perfect mirror, two atoms in free space.

Every value is an imaginary-frequency integral in closed form: with
t = 2 d xi / c, d the distance, a response over its static value is a sum of
poles v_k A_k^2 / (A_k^2 + t^2), A_k = 2 omega_k d / c, and each kernel is a
polynomial in t times e^-t (Abramowitz & Stegun 5.2), see _channel_integrals;
_moments takes each pole's moments from a series, a Taylor table or an
asymptotic series, at a fixed cost per element.
The frequency-independent diamagnetic channels integrate the bare kernels,
3 (mirror d) and 23/4 (pair dd). A channel whose static response vanishes is
exactly zero; a channel value outside the float range is a ValueError naming
the channel and the distance. Every value is a point of a PotentialCurve. A
QuadratureSpec bounds only the quadrature oracles (vdw_pair_total_direct, selftest).

Sign conventions that the whole module hangs on: the mirror magnetic trace is
positive for a conducting plate and the electric trace is its negative; in
free space the like-response kernel enters with a minus sign and the crossed
electric-magnetic kernel with a plus sign. Everything else follows from the
signs of the static responses themselves (alpha, beta_p >= 0, beta_d <= 0).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import moment_table
# mirror_kernel is not used here; bench/tracer.py wraps the kernels where this module binds them
from .green import PlateKind, mirror_kernel, pair_kernel_cross, pair_kernel_same  # noqa: F401
from .quad import QuadratureSpec, integrate_semiinf
from .response import AtomModel, alpha_iso, beta_para_iso, beta_total, diamagnetisability
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
# (Ci(x) - gamma - ln x) / x^2 and Si(x) / x - 1 as polynomials in x^2, highest power first
_CI_SERIES = tuple((-1) ** m / (2 * m * math.factorial(2 * m)) for m in range(14, 0, -1))
_SI_SERIES = tuple((-1) ** m / ((2 * m + 1) * math.factorial(2 * m + 1)) for m in range(14, 0, -1))
# (n + 2k)! of M_n = sum_k (n + 2k)! (-1/a^2)^(k + 1), n = 4 and 5, highest k first
_ASYMPTOTIC_SERIES = tuple(tuple(float(math.factorial(n + 2 * k)) for k in range(13, -1, -1)) for n in (4, 5))
# U_4 by bands of a: band edges, centres, and one coefficient row per power of a - centre, highest
# first; the top row stands apart, as slicing the tuple in every call raised the memory peak
_TAYLOR_EDGES = np.array(moment_table.EDGES)
_TAYLOR_CENTRES = np.array(moment_table.CENTRES)
_TAYLOR_TOP, *_TAYLOR_ROWS = (np.array(row) for row in reversed(moment_table.COEFFICIENTS))
# From here on every term has reached its limit in double precision; a^2 stays finite.
_A_LIMIT = 1e100
_EULER_GAMMA = 0.5772156649015329
# Pole pairs whose squared frequencies differ by at most this share of their sum are double poles.
_CLOSE = 1e-2
# 4-point Gauss-Legendre nodes on [-1, 1] and half their weights, which sum to 1.
_GAUSS_NODES = (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526)
_GAUSS_WEIGHTS = (0.1739274225687269, 0.3260725774312731, 0.3260725774312731, 0.1739274225687269)
# Elements per _moments call, and of a block of distances where several fit.
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

    The poles are arrays (omega_k, v_k) of R(xi) = sum v_k omega_k^2 / (omega_k^2 + xi^2),
    v_k the share of transition k in the static value; None for the constant
    diamagnetic ratio 1 and for a zero static response. A static response
    outside the float range is a ValueError naming the atom and the response.
    """
    if letter == DIA_LETTER:
        static, shares = diamagnetisability(atom.diamagnetic), []
    else:
        transitions = atom.electric_transitions if letter == ELECTRIC_LETTER else atom.magnetic_transitions
        shares = [(t.omega, t.omega * t.dipole_sq / t.omega**2) for t in transitions if t.dipole_sq]
        # alpha_iso / beta_para_iso at xi = 0 bit for bit: the same operations in the
        # same order (a loop, as sum() compensates its float sums since Python 3.12)
        static = 0.0
        for _, share in shares:
            static += share
        static *= 2.0 / (3.0 * hbar)
    if not math.isfinite(static):
        raise ValueError(
            f"atom {atom.label!r}: the static {_STATIC_NAMES[letter]} is {static!r}; "
            "it must be a finite float"
        )
    if not shares or static == 0.0:
        return static, None
    terms = np.array([share for _, share in shares])
    return static, (np.array([omega for omega, _ in shares]), terms / math.fsum(terms))


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
    own a only. In place on 1d arrays, where numpy takes no hidden buffers.
    """
    moments = np.empty((6, a.size))
    near = np.flatnonzero(a < _SERIES_BELOW)
    if near.size:
        x = a[near]
        y = x * x
        ci, si = np.zeros(x.size), np.zeros(x.size)
        for ci_term, si_term in zip(_CI_SERIES, _SI_SERIES):
            ci *= y
            ci += ci_term
            si *= y
            si += si_term
        ci *= y
        ci += np.log(x) + _EULER_GAMMA  # Ci(x)
        si *= -y * x
        si += 0.5 * math.pi - x  # pi/2 - Si(x)
        sin, cos = np.sin(x), np.cos(x)
        f, g = ci * sin + si * cos, si * sin - ci * cos
        del ci, si, sin, cos
        moments[0][near] = f / x
        moments[1][near] = g
        for n, row, factor in ((2, f, x), (3, g, y), (4, f, y), (5, g, y)):
            row *= -factor
            row += math.factorial(n - 2)
            moments[n][near] = row
    asymptotic = np.flatnonzero(a >= _ASYMPTOTIC_FROM)
    if asymptotic.size:
        w = -1.0 / a[asymptotic] ** 2
        for n, series in zip((4, 5), _ASYMPTOTIC_SERIES):
            total = np.zeros(w.size)
            for factorial in series:
                total *= w
                total += factorial
            moments[n][asymptotic] = -w * total
        del w, total
    taylor = np.flatnonzero((a >= _SERIES_BELOW) & (a < _ASYMPTOTIC_FROM))
    if taylor.size:
        band = _TAYLOR_EDGES.searchsorted(a[taylor], "right")
        offset = a[taylor] - _TAYLOR_CENTRES[band]
        # one gathered row per step: gathering all rows at once raised the manyline memory peak by half
        u4 = _TAYLOR_TOP[band]
        for row in _TAYLOR_ROWS:
            u4 *= offset
            u4 += row[band]
        del band, offset
        moments[4][taylor] = u4.imag / a[taylor]
        moments[5][taylor] = u4.real.copy()  # a strided source takes a hidden buffer
        del u4
    far = np.flatnonzero(a >= _SERIES_BELOW)
    if far.size:
        x = a[far]
        x *= x
        np.divide(1.0, x, out=x)
        for n in (3, 2, 1, 0):
            row = moments[n + 2][far]
            np.subtract(math.factorial(n), row, out=row)
            row *= x
            moments[n][far] = row
    return moments


def _term_values(kind: str, a: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """The integral of a pole at each a against a kind of kernel: a^2 sum q_n M_n.

    That holds for a simple pole a^2 / (a^2 + t^2) and a double pole a^4 / (a^2 + t^2)^2;
    cross_out, t^2 = (a^2 + t^2) - a^2 without the constant, gives -a^4 sum q_n M_n.
    """
    def combine(kind):
        return sum(q * row for q, row in zip(_KERNELS[kind], moments) if q)

    a2 = a * a
    values = combine(kind)
    if kind == "cross2":
        near = np.flatnonzero(a < _SERIES_BELOW)
        values[near] = (a2 * combine("cross2_near"))[near]
    elif kind == "cross_out":
        values *= -a2
    values *= a2
    return values


def _partial_fractions(sides) -> list:
    """The product of two sides' response ratios as groups (kind suffix, frequencies, index, c).

    Squared frequencies W, N with shares v, u give v u N/(N - W) to the simple
    pole W/(W + xi^2), and the mirror image to N/(N + xi^2); closer than _CLOSE
    they give v u W N times the Gauss-Legendre mean of 1/(rho + xi^2)^2 over rho
    between W and N: double poles c A^4 / (A^2 + t^2)^2, A = 2 sqrt(rho) d / c,
    one at the first side's frequency of index if W = N. Each depends on W + N,
    |N - W| and products, so swapping the sides changes no bit.
    """
    (omegas, shares), (others, other_shares) = sides

    def residues(squares, partners, partner_shares):
        sums, close = np.empty(squares.size), []
        for j, square in enumerate(squares.tolist()):
            gap = partners - square
            near = np.abs(gap) <= _CLOSE * (partners + square)
            far = np.flatnonzero(~near)
            sums[j] = np.sum(partner_shares[far] * partners[far] / gap[far])
            close += [(j, k) for k in np.flatnonzero(near).tolist()]
        return sums, close

    sums, close = residues(omegas**2, others**2, other_shares)
    if others is omegas:  # a self-pair: the other side's terms are the same, a close pair's both ways too
        groups = [("", omegas, None, 2.0 * shares * sums)]
        close = [(j, k) for j, k in close if j <= k]
    else:
        other_sums = residues(others**2, omegas**2, shares)[0]
        groups = [("", omegas, None, shares * sums), ("", others, None, other_shares * other_sums)]
    coincident, nodes = [], []
    for j, k in close:
        w, n = omegas[j].item() ** 2, others[k].item() ** 2
        product = shares[j].item() * other_shares[k].item() * (2.0 if others is omegas and k > j else 1.0)
        middle, half = 0.5 * (w + n), 0.5 * abs(n - w)
        if not half:
            coincident.append((j, product))
        for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS) if half else ():
            rho = middle + half * node
            nodes.append((math.sqrt(rho), product * (w * n / rho**2) * weight))
    if coincident:
        index, coefficients = zip(*coincident)
        groups.append(("2", omegas, np.array(index), np.array(coefficients)))
    if nodes:
        frequencies, coefficients = map(np.array, zip(*nodes))
        groups.append(("2", frequencies, None, coefficients))
    return groups


def _channel_integrals(channels, scales: np.ndarray):
    """The integral over x of each channel at every scale 2 d / c, an iterator of rows.

    A channel is (kernel, sides): "mirror", "same" or "cross" and the poles of
    _response of the sides whose ratio is not 1. Its row integrates their
    product times the kernel (times x^2 for cross) as math.fsum of its terms:
    a distance gets the same bits in a curve as alone, and a swap changes no
    bit. Every frequency array takes its moments once per distance, at most
    _BLOCK of its elements per _moments call; the Gauss-Legendre nodes of all
    channels form one array, so up to _BLOCK of them add one call. A two-sided
    crossed channel takes t^2 out (cross_out) where all its simple poles have
    A < _SERIES_BELOW: keeping it in cancels to the order of A there, taking it
    out to A^-2 elsewhere.
    """
    ranges, plans, nodes = [], [], []  # ranges: (frequencies, kinds of terms)
    for kernel, sides in channels:
        (omegas, shares), *other = sides
        crossed_pair = kernel == "cross" and bool(other)
        terms = []
        for suffix, frequencies, index, coefficients in (
            _partial_fractions(sides) if other else [("", omegas, None, shares)]
        ):
            if suffix and index is None:  # Gauss-Legendre nodes: the list nodes stands for their one range
                index = np.arange(frequencies.size) + sum(node.size for node in nodes)
                nodes.append(frequencies)
                frequencies = nodes
            r = next((r for r, (placed, _) in enumerate(ranges) if placed is frequencies), len(ranges))
            if r == len(ranges):
                ranges.append((frequencies, []))
            kind = kernel + suffix
            for needed in [kind] + ["cross_out"] * (crossed_pair and kind == "cross"):
                if needed not in ranges[r][1]:
                    ranges[r][1].append(needed)
            terms.append((kind, r, index, coefficients))
        plans.append((crossed_pair, max(float(omegas.max()) for omegas, _ in sides), terms))
    if not plans:
        return iter(())
    ranges = [(np.concatenate(nodes) if placed is nodes else placed, kinds) for placed, kinds in ranges]

    # values: per range and kind a segment of term values of a block of distances, distance-major
    sizes = [frequencies.size for frequencies, _ in ranges]
    step = min(max(1, _BLOCK // max(sizes)), scales.size)
    offsets, total = [], 0
    for size, (_, kinds) in zip(sizes, ranges):
        offsets.append({kind: total + n * size * step for n, kind in enumerate(kinds)})
        total += len(kinds) * size * step
    values = np.empty(total)
    integrals = np.empty((len(plans), scales.size))
    for first in range(0, scales.size, step):
        block = scales[first : first + step]
        for (frequencies, kinds), at in zip(ranges, offsets):
            a = np.minimum(np.multiply.outer(block, frequencies), _A_LIMIT).ravel()
            for start in range(0, a.size, _BLOCK):
                part = a[start : start + _BLOCK]
                moments = _moments(part)
                for kind in kinds:
                    values[at[kind] + start : at[kind] + start + part.size] = _term_values(kind, part, moments)
                del moments
        for i, scale in enumerate(block.tolist()):
            for out, (crossed_pair, top, terms) in zip(integrals, plans):
                t2_out = crossed_pair and top * scale < _SERIES_BELOW
                products = (
                    c * (segment if index is None else segment[index])
                    for kind, r, index, c in terms
                    for at in [offsets[r]["cross_out" if t2_out and kind == "cross" else kind] + i * sizes[r]]
                    for segment in [values[at : at + sizes[r]]]
                )
                out[first + i] = math.fsum(itertools.chain.from_iterable(products))
    return iter(integrals)


def _check_channel(row: np.ndarray, channel: Channel, distances: np.ndarray, name: str) -> None:
    """A ValueError naming the channel and the first distance at which its value is not finite."""
    finite = np.isfinite(row)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"channel {channel.value!r} at {name} {float(distances[i])!r} is {float(row[i])!r}; "
            "it must be a finite float"
        )


def _mirror_values(
    atom: AtomModel, distances: np.ndarray, plate: PlateKind, consts: Constants
) -> np.ndarray:
    """Every mirror channel at every distance, one row per MIRROR_CHANNELS entry.

    The one mirror evaluation path: prefactor(z) * static * int R(c x / 2z)
    mirror_kernel(x) dx, the integral from _channel_integrals or, for the
    diamagnetic ratio 1, MIRROR_D_MOMENT. A zero static response stays zero.
    """
    bases = _prefactors(consts.hbar * consts.c, 32.0 * np.pi**2, distances, 4, "mirror distance z")
    responses = [_response(atom, ch.value, consts.hbar) for ch in MIRROR_CHANNELS]
    channels = [("mirror", [poles]) for _, poles in responses if poles is not None]
    integrals = _channel_integrals(channels, 2.0 * distances / consts.c)
    values = np.zeros((len(MIRROR_CHANNELS), distances.size))
    for row, ch, (static, poles) in zip(values, MIRROR_CHANNELS, responses):
        if static == 0.0:
            continue
        integral = MIRROR_D_MOMENT if poles is None else next(integrals)
        with np.errstate(over="ignore"):
            if ch is Channel.E:
                # electric trace = -(magnetic trace), hence the opposite sign
                row[:] = -plate.sign * bases / consts.eps0 * static * integral
            else:
                row[:] = plate.sign * bases * consts.mu0 * static * integral
        _check_channel(row, ch, distances, "mirror distance z")
    return values


def cp_mirror_diamagnetic_closed(
    beta_d: float, z: float, plate: PlateKind, consts: Constants
) -> float:
    """Closed form of the diamagnetic mirror channel: sign * 3 hbar mu0 c beta_d / (32 pi^2 z^4).

    A single quartic law at every distance; attractive in front of a
    conductor (beta_d <= 0), repulsive at a permeable mirror.
    """
    if not z > 0.0:
        raise ValueError(f"mirror distance z must be positive, got {z!r}")
    if beta_d > 0.0:
        raise ValueError(f"diamagnetisability must be <= 0, got {beta_d!r}")
    return plate.sign * 3.0 * consts.hbar * consts.mu0 * consts.c * beta_d / (
        32.0 * np.pi**2 * z**4
    )


def _pair_values(
    atom_a: AtomModel, atom_b: AtomModel, distances: np.ndarray, consts: Constants
) -> np.ndarray:
    """Every pair channel at every separation, one row per PAIR_CHANNELS entry.

    The one pair evaluation path, see pair_curve, with dd = PAIR_DD_MOMENT. The
    prefactor takes the smaller static response first, then the larger: no
    product of statics can leave the float range, and a swap changes no bit.
    """
    hbar, c = consts.hbar, consts.c
    bases = _prefactors(hbar * consts.mu0**2 * c, 16.0 * np.pi**3, distances, 7, "separation l")
    letters = (ELECTRIC_LETTER, PARA_LETTER, DIA_LETTER)
    responses_a = {letter: _response(atom_a, letter, hbar) for letter in letters}
    if atom_b is atom_a:
        responses_b = responses_a
    else:
        responses_b = {letter: _response(atom_b, letter, hbar) for letter in letters}

    live = []  # a self-pair's ep, ed and pd stand for pe, de and dp too
    for ch in PAIR_CHANNELS:
        (static_a, poles_a), (static_b, poles_b) = responses_a[ch.value[0]], responses_b[ch.value[1]]
        if static_a != 0.0 and static_b != 0.0 and not (atom_b is atom_a and ch.value[0] > ch.value[1]):
            sides = [poles for poles in (poles_a, poles_b) if poles is not None]
            live.append((ch, ch.value.count(ELECTRIC_LETTER) == 1, sorted((static_a, static_b)), sides))
    channels = [("cross" if crossed else "same", sides) for _, crossed, _, sides in live if sides]
    integrals = _channel_integrals(channels, 2.0 * distances / c)

    values = np.zeros((len(PAIR_CHANNELS), distances.size))
    for ch, crossed, (smaller, larger), sides in live:
        row = values[PAIR_CHANNELS.index(ch)]
        integral = next(integrals) if sides else PAIR_DD_MOMENT
        with np.errstate(over="ignore"):
            if crossed:
                row[:] = bases * c**2 * smaller * larger * integral
            else:
                weight = c**4 if ch is Channel.EE else 1.0
                row[:] = -bases * weight * smaller * larger * integral
        _check_channel(row, ch, distances, "separation l")
    for row, ch in zip(values, PAIR_CHANNELS):
        if atom_b is atom_a and ch.value[0] > ch.value[1]:
            row[:] = values[PAIR_CHANNELS.index(Channel(ch.value[::-1]))]
    return values


def vdw_pair_total_direct(
    atom_a: AtomModel,
    atom_b: AtomModel,
    l: float,
    consts: Constants,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Total two-atom potential evaluated without the channel split.

    Independent path used to check channel additivity: the full responses
    (alpha and total beta = beta_p + beta_d) enter the integrand directly,
    unfactored, so agreement with the summed pair_curve channels is a real
    cross-check rather than an identity.
    """
    if not l > 0.0:
        raise ValueError(f"separation l must be positive, got {l!r}")
    hbar, c = consts.hbar, consts.c
    scale = c / l

    def like_integrand(x):
        xi = scale * np.asarray(x, dtype=float)
        return (
            c**4 * alpha_iso(atom_a, xi, hbar) * alpha_iso(atom_b, xi, hbar)
            + beta_total(atom_a, xi, hbar) * beta_total(atom_b, xi, hbar)
        ) * pair_kernel_same(x)

    def cross_integrand(x):
        x = np.asarray(x, dtype=float)
        xi = scale * x
        return (
            x**2
            * (
                alpha_iso(atom_a, xi, hbar) * beta_total(atom_b, xi, hbar)
                + beta_total(atom_a, xi, hbar) * alpha_iso(atom_b, xi, hbar)
            )
            * pair_kernel_cross(x)
        )

    base = hbar * consts.mu0**2 * c / (16.0 * np.pi**3 * l**7)
    like = integrate_semiinf(like_integrand, spec, decay_scale=0.5).value
    cross = integrate_semiinf(cross_integrand, spec, decay_scale=0.5).value
    return -base * like + base * c**2 * cross


def vdw_asymptote(
    channel: Channel,
    atom_a: AtomModel,
    atom_b: AtomModel,
    l: float,
    regime: Regime,
    consts: Constants,
) -> float:
    """Closed-form asymptotic value of a pair channel at separation l.

    Coefficients exist for every channel with a diamagnetic side (dd holds at
    all separations; de/ed and dp/pd in their nonretarded and retarded
    limits) and for the retarded limit of ee, pp and ep/pe, where the static
    responses come out of the integral. Other combinations raise
    UnsupportedAsymptoteError rather than guessing.
    """
    if not channel.is_pair:
        raise ValueError(f"asymptotes are defined for pair channels, got {channel}")
    if not l > 0.0:
        raise ValueError(f"separation l must be positive, got {l!r}")
    hbar, c, mu0 = consts.hbar, consts.c, consts.mu0
    letter_a, letter_b = channel.value
    pi = np.pi

    if channel is Channel.DD:
        beta_a = diamagnetisability(atom_a.diamagnetic)
        beta_b = diamagnetisability(atom_b.diamagnetic)
        return -23.0 * hbar * mu0**2 * c * (beta_a * beta_b) / (64.0 * pi**3 * l**7)

    if {letter_a, letter_b} == {DIA_LETTER, ELECTRIC_LETTER}:
        dia_atom, elec_atom = (atom_a, atom_b) if letter_a == DIA_LETTER else (atom_b, atom_a)
        beta_d = diamagnetisability(dia_atom.diamagnetic)
        if regime is Regime.NONRETARDED:
            weighted = sum(t.omega * t.dipole_sq for t in elec_atom.electric_transitions)
            return 5.0 * mu0**2 * c * (beta_d * weighted) / (96.0 * pi**3 * l**5)
        alpha0 = alpha_iso(elec_atom, 0.0, hbar)
        return 7.0 * hbar * mu0**2 * c**3 * (beta_d * alpha0) / (64.0 * pi**3 * l**7)

    if {letter_a, letter_b} == {DIA_LETTER, PARA_LETTER}:
        dia_atom, para_atom = (atom_a, atom_b) if letter_a == DIA_LETTER else (atom_b, atom_a)
        beta_d = diamagnetisability(dia_atom.diamagnetic)
        if regime is Regime.NONRETARDED:
            m_sq = sum(t.dipole_sq for t in para_atom.magnetic_transitions)
            return -(mu0**2) * (beta_d * m_sq) / (16.0 * pi**2 * l**6)
        beta_p0 = beta_para_iso(para_atom, 0.0, hbar)
        return -23.0 * hbar * mu0**2 * c * (beta_d * beta_p0) / (64.0 * pi**3 * l**7)

    if regime is not Regime.RETARDED:
        raise UnsupportedAsymptoteError(
            f"no closed nonretarded coefficient for channel {channel.value!r}"
        )
    if channel is Channel.EE:
        product = alpha_iso(atom_a, 0.0, hbar) * alpha_iso(atom_b, 0.0, hbar)
        return -23.0 * hbar * mu0**2 * c**5 * product / (64.0 * pi**3 * l**7)
    if channel is Channel.PP:
        product = beta_para_iso(atom_a, 0.0, hbar) * beta_para_iso(atom_b, 0.0, hbar)
        return -23.0 * hbar * mu0**2 * c * product / (64.0 * pi**3 * l**7)
    # ep or pe
    if channel is Channel.EP:
        product = alpha_iso(atom_a, 0.0, hbar) * beta_para_iso(atom_b, 0.0, hbar)
    else:
        product = beta_para_iso(atom_a, 0.0, hbar) * alpha_iso(atom_b, 0.0, hbar)
    return 7.0 * hbar * mu0**2 * c**3 * product / (64.0 * pi**3 * l**7)


@dataclass(frozen=True, slots=True, kw_only=True)
class PotentialCurve:
    """Per-channel potential values over a distance grid.

    A mirror curve has a plate and carries MIRROR_CHANNELS, a two-atom curve
    has plate None and carries PAIR_CHANNELS. total is derived from the
    channels: electric + (paramagnetic + diamagnetic) at a mirror, the
    math.fsum of the nine channels per separation for a pair.
    """

    distances: np.ndarray
    values: dict[Channel, np.ndarray]
    plate: PlateKind | None = None
    total: np.ndarray = field(init=False)

    def __post_init__(self):
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
            # per column of one (9, n) array: .tolist() and zip raised the verify memory peak by half
            total = np.array([math.fsum(point) for point in np.array(list(values.values())).T])
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
    electric + (paramagnetic + diamagnetic). spec bounds no part of the
    closed forms; only bench/workloads.py still passes one, and ROADMAP
    item 1 unblocks its deletion.
    """
    d = _grid(distances)
    values = _mirror_values(atom, d, plate, constants_for(units))
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
    math.fsum of the nine channels. spec bounds no part of the closed forms;
    only bench/workloads.py still passes one, and ROADMAP item 1 unblocks its
    deletion.
    """
    d = _grid(distances)
    values = _pair_values(atom_a, atom_b, d, constants_for(units))
    return PotentialCurve(distances=d, values=dict(zip(PAIR_CHANNELS, values)))


def force_from_curve(curve: PotentialCurve) -> np.ndarray:
    """Force -dU/dr on the curve's grid: central differences inside, one-sided edges."""
    if curve.distances.size < 3:
        raise ValueError("force needs at least 3 grid points")
    return -np.gradient(curve.total, curve.distances, edge_order=2)
