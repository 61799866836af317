"""Dispersion potentials: single atom at a perfect mirror, two atoms in free space.

Every value is an imaginary-frequency integral. Internally the integration
variable is made dimensionless (x = 2 z xi / c at a mirror, x = l xi / c for a
pair) and the static response magnitudes are factored out of the integrand,
so the quadrature always sees O(1) ratios times the universal kernels of the
green module; the physical scale returns through an analytic prefactor. One
integrand, built by _channel_integrals, serves every channel of both
geometries: the response ratios of the channel's sides (one at a mirror, two
for a pair), times x^2 in the crossed pair channels, times the channel's
kernel, integrated at every distance of a curve in one integrate_columns
call with the kernel's decay scale (1 for mirror_kernel, 1/2 for the pair
kernels). The geometries differ only in prefactors and signs. A channel
whose static response vanishes is exactly zero and skips quadrature. The
diamagnetic response is frequency independent, its ratio is 1, so the
mirror d and pair dd channels integrate the bare kernel once per call. A
channel value that leaves the float range is a ValueError naming the
channel and the distance. Every value is a point of a PotentialCurve, a
single distance being a one-point curve.

Sign conventions that the whole module hangs on: the mirror magnetic trace is
positive for a conducting plate and the electric trace is its negative; in
free space the like-response kernel enters with a minus sign and the crossed
electric-magnetic kernel with a plus sign. Everything else follows from the
signs of the static responses themselves (alpha, beta_p >= 0, beta_d <= 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .green import PlateKind, mirror_kernel, pair_kernel_cross, pair_kernel_same
from .quad import QuadratureSpec, integrate_columns, integrate_semiinf
from .response import (
    AtomModel,
    LorentzTable,
    alpha_iso,
    beta_para_iso,
    beta_total,
    diamagnetisability,
)
from .units import Constants, UnitSystem, constants_for

ELECTRIC_LETTER = "e"
PARA_LETTER = "p"
DIA_LETTER = "d"


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


def _response(atom: AtomModel, letter: str, hbar: float) -> tuple[float, LorentzTable | None]:
    """Static response of one letter and the table of its frequency dependence.

    The table is None where the ratio to the static value needs none: for
    the frequency-independent diamagnetic response, whose ratio is the
    constant 1, and for a zero static response, whose channels are zero. A
    static response that leaves the float range, although each of its terms
    is finite, is a ValueError naming the atom and the response.
    """
    if letter == DIA_LETTER:
        static, transitions = diamagnetisability(atom.diamagnetic), ()
    elif letter == ELECTRIC_LETTER:
        static, transitions = alpha_iso(atom, 0.0, hbar), atom.electric_transitions
    else:
        static, transitions = beta_para_iso(atom, 0.0, hbar), atom.magnetic_transitions
    if not math.isfinite(static):
        raise ValueError(
            f"atom {atom.label!r}: the static {_STATIC_NAMES[letter]} is {static!r}; "
            "it must be a finite float"
        )
    return static, LorentzTable(transitions, hbar) if transitions and static != 0.0 else None


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


def _channel_integrals(
    sides, kernel, weighted: bool, scales: np.ndarray, decay_scale: float, spec: QuadratureSpec
) -> np.ndarray:
    """int [x^2] * product of R(scale x) * kernel(x) dx for every scale, R a side's response ratio.

    sides are the (static, table) pairs of _response, multiplied left to
    right in the order given, so that the caller fixes which side comes
    first and swapping two atoms reproduces bit-identical products; x^2
    enters when weighted. A side without a table has R = 1 and is left out,
    which changes no bit. When no side has a table the integrand does not
    depend on the scale: the bare kernel moment is integrated once, in one
    column, and its one-element result broadcasts over the distances. Only
    the crossed pair channels are weighted, and their electric side always
    has a table.
    """
    # a list: tuple(<generator>) resizes, and resized tuples pile up on CPython's free list
    ratios = [(table, static) for static, table in sides if table is not None]
    if not ratios:
        return integrate_columns(lambda cols, x: kernel(x), 1, spec, decay_scale=decay_scale)[0]
    (table, static), *rest = ratios

    def integrand(cols, x):
        # row i of x belongs to the distance with scale scales[cols[i]]
        xi = scales[cols, None] * x
        ratio = table(xi)
        ratio /= static
        for other, other_static in rest:
            other_ratio = other(xi)
            other_ratio /= other_static
            ratio *= other_ratio
        del xi
        # in place, the same products: ratio * x^2 * kernel = x^2 * ratio * kernel bit for bit
        if weighted:
            ratio *= x**2
        ratio *= kernel(x)
        return ratio

    return integrate_columns(integrand, scales.size, spec, decay_scale=decay_scale)[0]


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
    atom: AtomModel,
    distances: np.ndarray,
    plate: PlateKind,
    consts: Constants,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Every mirror channel at every distance, one row per MIRROR_CHANNELS entry.

    The one mirror evaluation path. Channel value = prefactor(z) *
    int R(c x / 2z) mirror_kernel(x) dx, with R the response over its static
    value, integrated by _channel_integrals. A channel with zero static
    response stays exactly zero and skips quadrature.
    """
    bases = _prefactors(consts.hbar * consts.c, 32.0 * np.pi**2, distances, 4, "mirror distance z")
    scales = consts.c / (2.0 * distances)  # xi = scale * x
    responses = [_response(atom, ch.value, consts.hbar) for ch in MIRROR_CHANNELS]
    values = np.zeros((len(MIRROR_CHANNELS), distances.size))
    for row, ch, side in zip(values, MIRROR_CHANNELS, responses):
        static = side[0]
        if static == 0.0:
            continue
        integrals = _channel_integrals([side], mirror_kernel, False, scales, 1.0, spec)
        with np.errstate(over="ignore"):
            if ch is Channel.E:
                # electric trace = -(magnetic trace), hence the opposite sign
                row[:] = -plate.sign * bases / consts.eps0 * static * integrals
            else:
                row[:] = plate.sign * bases * consts.mu0 * static * integrals
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
    atom_a: AtomModel,
    atom_b: AtomModel,
    distances: np.ndarray,
    consts: Constants,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Every pair channel at every separation, one row per PAIR_CHANNELS entry.

    The one pair evaluation path; see pair_curve for the integrals, which
    _channel_integrals evaluates. A channel with a zero static response stays
    exactly zero and skips quadrature.
    """
    hbar, c = consts.hbar, consts.c
    bases = _prefactors(hbar * consts.mu0**2 * c, 16.0 * np.pi**3, distances, 7, "separation l")
    scales = c / distances  # xi = scale * x
    letters = (ELECTRIC_LETTER, PARA_LETTER, DIA_LETTER)
    responses_a = {letter: _response(atom_a, letter, hbar) for letter in letters}
    if atom_b is atom_a:
        responses_b = responses_a
    else:
        responses_b = {letter: _response(atom_b, letter, hbar) for letter in letters}

    values = np.zeros((len(PAIR_CHANNELS), distances.size))
    for row, ch in zip(values, PAIR_CHANNELS):
        letter_a, letter_b = ch.value
        side_a, side_b = responses_a[letter_a], responses_b[letter_b]
        if side_a[0] == 0.0 or side_b[0] == 0.0:
            continue
        product = side_a[0] * side_b[0]
        electric_sides = (letter_a == ELECTRIC_LETTER) + (letter_b == ELECTRIC_LETTER)
        crossed = electric_sides == 1
        # the electric side first in crossed channels, atom A's first in like ones
        sides = [side_b, side_a] if crossed and letter_b == ELECTRIC_LETTER else [side_a, side_b]
        kernel = pair_kernel_cross if crossed else pair_kernel_same
        integrals = _channel_integrals(sides, kernel, crossed, scales, 0.5, spec)
        with np.errstate(over="ignore"):
            if crossed:
                row[:] = bases * c**2 * product * integrals
            else:
                weight = c**4 if electric_sides == 2 else 1.0
                row[:] = -bases * weight * product * integrals
        _check_channel(row, ch, distances, "separation l")
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


@dataclass(frozen=True, slots=True)
class PotentialCurve:
    """Per-channel potential values over a distance grid.

    A mirror curve has a plate and carries MIRROR_CHANNELS, a two-atom curve
    has plate None and carries PAIR_CHANNELS. total is the potential summed
    over the channels.
    """

    distances: np.ndarray
    values: dict[Channel, np.ndarray]
    total: np.ndarray
    plate: PlateKind | None = None

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
        object.__setattr__(self, "total", np.asarray(self.total, dtype=float))
        summed = np.sum([values[ch] for ch in expected], axis=0)
        if not np.allclose(self.total, summed, rtol=1e-12, atol=1e-300):
            raise ValueError("total does not match the sum of the channels")


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
    electric + (paramagnetic + diamagnetic).
    """
    d = _grid(distances)
    electric, paramagnetic, diamagnetic = _mirror_values(atom, d, plate, constants_for(units), spec)
    return PotentialCurve(
        distances=d,
        values={Channel.E: electric, Channel.P: paramagnetic, Channel.D: diamagnetic},
        total=electric + (paramagnetic + diamagnetic),
        plate=plate,
    )


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
    math.fsum of the nine channels.
    """
    d = _grid(distances)
    values = _pair_values(atom_a, atom_b, d, constants_for(units), spec)
    return PotentialCurve(
        distances=d,
        values=dict(zip(PAIR_CHANNELS, values)),
        total=np.array([math.fsum(point) for point in values.T]),
    )


def force_from_curve(curve: PotentialCurve) -> np.ndarray:
    """Force -dU/dr on the curve's grid: central differences inside, one-sided edges."""
    if curve.distances.size < 3:
        raise ValueError("force needs at least 3 grid points")
    return -np.gradient(curve.total, curve.distances, edge_order=2)
