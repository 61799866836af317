"""Independent 30-digit reference values for channel potentials, in natural units.

The physics is restated here rather than imported: each channel is an analytic
prefactor times a one-dimensional imaginary-frequency integral, and the
integral is done by mpmath's tanh-sinh rule at 30 significant digits, never by
vdwcp.quad. Natural units (hbar = c = eps0 = mu0 = 1) are assumed throughout;
every benchmark workload runs in them.

Mirror channel at height z (x = 2 z xi):
    U = s_plate * s_letter * S / (32 pi^2 z^4) * int R(x / 2z) e^-x (1 + x + x^2/2) dx
with s_letter = -1 for the electric channel and +1 for the magnetic ones.
Pair channel at separation l (x = l xi):
    like  (ee, pp, pd, dp, dd): U = -S_A S_B / (16 pi^3 l^7) * int R_A R_B (3 + 6x + 5x^2 + 2x^3 + x^4) e^-2x dx
    cross (ep, ed, pe, de):     U = +S_A S_B / (16 pi^3 l^7) * int x^2 R_A R_B (1 + x)^2 e^-2x dx
S is a static response (alpha(0), beta_p(0) or beta_d) and R the response
at imaginary frequency divided by S (identically 1 for the diamagnetic one).
"""
from __future__ import annotations

import mpmath as mp

DIGITS = 30
# A reference whose own quadrature error estimate exceeds this share of its
# value is refused rather than trusted.
REFERENCE_REL_ERR = 1e-20


class ReferenceError(RuntimeError):
    """mpmath could not certify a reference value."""


def _response(atom, letter: str):
    """(static value, ratio function of xi, transition frequencies) for one response letter."""
    if letter == "d":
        dia = atom.diamagnetic
        if dia.particles:
            raise ValueError("the reference supports only a direct beta_d")
        return mp.mpf(dia.direct_beta_d), (lambda xi: 1), []
    transitions = atom.electric_transitions if letter == "e" else atom.magnetic_transitions
    omegas = [mp.mpf(t.omega) for t in transitions]
    weights = [mp.mpf(t.omega) * mp.mpf(t.dipole_sq) for t in transitions]
    omegas_sq = [w * w for w in omegas]
    static_sum = mp.fsum(w / o2 for w, o2 in zip(weights, omegas_sq))
    static = 2 * static_sum / 3

    def ratio(xi):
        xi_sq = xi * xi
        return mp.fsum(w / (o2 + xi_sq) for w, o2 in zip(weights, omegas_sq)) / static_sum

    return static, ratio, omegas


def _integrate(f, breakpoints) -> mp.mpf:
    points = sorted(set([mp.mpf(0), mp.mpf(1)] + breakpoints)) + [mp.inf]
    value, error = mp.quad(f, points, error=True)
    if not abs(error) <= REFERENCE_REL_ERR * abs(value):
        raise ReferenceError(f"mpmath error estimate {error} for integral {value}")
    return value


def mirror_channel(atom, letter: str, z: float, plate_sign: float) -> float:
    """Reference mirror potential of one channel ('e', 'p' or 'd') at distance z."""
    with mp.workdps(DIGITS):
        static, ratio, omegas = _response(atom, letter)
        if static == 0:
            return 0.0
        z = mp.mpf(z)
        breakpoints = [2 * z * o for o in (min(omegas), max(omegas))] if omegas else []
        integral = _integrate(
            lambda x: ratio(x / (2 * z)) * mp.exp(-x) * (1 + x + x * x / 2), breakpoints
        )
        letter_sign = -1 if letter == "e" else 1
        value = plate_sign * letter_sign * static * integral / (32 * mp.pi**2 * z**4)
        return float(value)


def pair_channel(atom_a, atom_b, channel: str, l: float) -> float:
    """Reference pair potential of one channel ('ee', 'ep', ..., 'dd') at separation l."""
    letter_a, letter_b = channel
    with mp.workdps(DIGITS):
        static_a, ratio_a, omegas_a = _response(atom_a, letter_a)
        static_b, ratio_b, omegas_b = _response(atom_b, letter_b)
        if static_a == 0 or static_b == 0:
            return 0.0
        l = mp.mpf(l)
        omegas = omegas_a + omegas_b
        breakpoints = [l * o for o in (min(omegas), max(omegas))] if omegas else []
        base = static_a * static_b / (16 * mp.pi**3 * l**7)
        if (letter_a == "e") + (letter_b == "e") == 1:
            integral = _integrate(
                lambda x: x * x * ratio_a(x / l) * ratio_b(x / l) * (1 + x) ** 2 * mp.exp(-2 * x),
                breakpoints,
            )
            return float(base * integral)
        integral = _integrate(
            lambda x: ratio_a(x / l)
            * ratio_b(x / l)
            * (3 + x * (6 + x * (5 + x * (2 + x))))
            * mp.exp(-2 * x),
            breakpoints,
        )
        return float(-base * integral)


def pair_dd_closed(beta_a: float, beta_b: float, l: float) -> float:
    """Closed dd pair potential, -23 beta_A beta_B / (64 pi^3 l^7), exact at every l."""
    with mp.workdps(DIGITS):
        return float(-23 * mp.mpf(beta_a) * mp.mpf(beta_b) / (64 * mp.pi**3 * mp.mpf(l) ** 7))


def mirror_d_closed(beta_d: float, z: float, plate_sign: float) -> float:
    """Closed diamagnetic mirror potential, s_plate 3 beta_d / (32 pi^2 z^4), exact at every z."""
    with mp.workdps(DIGITS):
        return float(plate_sign * 3 * mp.mpf(beta_d) / (32 * mp.pi**2 * mp.mpf(z) ** 4))


def rel_err(value: float, reference: float) -> float:
    """Relative deviation of value from reference; exact zeros must match exactly."""
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value / reference - 1.0)
