"""Scalar trace kernels of the electromagnetic dyadic Green tensor at imaginary frequency.

Isotropic atoms only ever probe traces of Green-tensor products, so this
module exposes scalar kernels: the free-space like-type and cross-type trace
products entering two-atom potentials, and the scattering-part trace at
coincident points in front of a perfect mirror (the bulk part diverges there
and is never evaluated). A minimal 3x3 assembly of the free-space tensors is
kept module-private for the brute-force oracle tests.

All kernels are real for xi >= 0 and decay at least like exp(-2x) in the
dimensionless distance-frequency product x.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .quad import QuadratureSpec, integrate_semiinf


class PlateKind(Enum):
    """Perfectly conducting vs infinitely permeable mirror."""

    CONDUCTING = "conducting"
    PERMEABLE = "permeable"

    @property
    def sign(self) -> float:
        # Overall sign of the scattering magnetic-magnetic trace: positive
        # in front of a perfect conductor, negative for a permeable mirror.
        return 1.0 if self is PlateKind.CONDUCTING else -1.0


def fg(x):
    """Polynomial factors of the free-space Green tensor: f = 1+x+x^2, g = 3+3x+x^2."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("dimensionless distance-frequency product x must be >= 0")
    f = 1.0 + x * (1.0 + x)
    g = 3.0 + x * (3.0 + x)
    return f, g


def pair_kernel_same(x):
    """(3 + 6x + 5x^2 + 2x^3 + x^4) e^(-2x), the like-response two-atom kernel.

    Equals (3 f^2 - 2 f g + g^2) e^(-2x) / 2; appears in every channel that
    couples two electric or two magnetic responses.
    """
    x = np.asarray(x, dtype=float)
    poly = 3.0 + x * (6.0 + x * (5.0 + x * (2.0 + x)))
    return poly * np.exp(-2.0 * x)


def pair_kernel_cross(x):
    """(1 + x)^2 e^(-2x), the crossed electric-magnetic two-atom kernel."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x) ** 2 * np.exp(-2.0 * x)


def trace_gmm_gmm_free(l: float, xi: float, c: float) -> float:
    """Tr[Gmm0(A,B) . Gmm0(B,A)] for two points a distance l apart in free space.

    Equals 2 * pair_kernel_same(l xi / c) / (16 pi^2 l^6); positive.
    """
    if not l > 0.0:
        raise ValueError(f"separation l must be positive, got {l!r}")
    if xi < 0.0:
        raise ValueError("xi must be >= 0")
    x = l * xi / c
    return float(pair_kernel_same(x)) / (8.0 * np.pi**2 * l**6)


def trace_gme_gem_free(l: float, xi: float, c: float) -> float:
    """Tr[Gme0(A,B) . Gem0(B,A)] for two points a distance l apart in free space.

    Equals -xi^2 pair_kernel_cross(l xi / c) / (8 pi^2 c^2 l^4); the minus sign
    is what makes the crossed electric-magnetic channels repulsive.
    """
    if not l > 0.0:
        raise ValueError(f"separation l must be positive, got {l!r}")
    if xi < 0.0:
        raise ValueError("xi must be >= 0")
    x = l * xi / c
    return -(xi**2) * float(pair_kernel_cross(x)) / (8.0 * np.pi**2 * c**2 * l**4)


def mirror_kernel(x):
    """e^(-x) (1 + x + x^2/2): mirror trace in the substitution x = 2 z xi / c.

    Integrates to 3 over [0, inf); this is the dimensionless integrand shape
    shared by all three single-atom channels.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-x) * (1.0 + x * (1.0 + 0.5 * x))


def mirror_gmm_trace(z: float, xi: float, plate: PlateKind, c: float) -> float:
    """Scattering-part trace Tr Gmm1(z, z, i xi) at height z above a perfect mirror.

    +-(1/(8 pi z^3)) e^(-2 z xi/c) (1 + 2 z xi/c + 2 (z xi/c)^2), upper sign
    for a perfectly conducting plate, lower for an infinitely permeable one:
    the production mirror_kernel at x = 2 z xi / c over 8 pi z^3.
    """
    if not z > 0.0:
        raise ValueError(f"mirror distance z must be positive, got {z!r}")
    if xi < 0.0:
        raise ValueError("xi must be >= 0")
    return plate.sign * float(mirror_kernel(2.0 * z * xi / c)) / (8.0 * np.pi * z**3)


def mirror_gmm_trace_via_q_integral(
    z: float,
    xi: float,
    plate: PlateKind,
    c: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Independent oracle for mirror_gmm_trace: numerical transverse-momentum integral.

    Builds Tr Gmm1 from the plane-wave reflection expansion instead of the
    closed kernel: for each transverse momentum q the double curl maps the
    s-polarised dyad onto the p-type polarisation vectors and vice versa, so
    the s reflection coefficient multiplies the p dyad trace. With
    b = sqrt(q^2 + xi^2/c^2) and the p vectors e_p+- = (c/xi)(-i q e_z -+ b e_q),

        Tr Gmm1 = 1/(4 pi) int_0^inf dq (q/b) e^(-2 b z)
                  [ r_s (xi/c)^2 (e_p+ . e_p-) + r_p (xi/c)^2 (e_s . e_s) ]

    where (xi/c)^2 (e_p+ . e_p-) = -(q^2 + b^2) after the normalization
    cancels, and (r_s, r_p) = (-1, +1) for a conductor, (+1, -1) permeable.
    Requires xi > 0 (the p-vector normalization carries c/xi).
    """
    if not z > 0.0:
        raise ValueError(f"mirror distance z must be positive, got {z!r}")
    if not xi > 0.0:
        raise ValueError("the transverse-momentum oracle needs xi > 0")
    if plate is PlateKind.CONDUCTING:
        r_s, r_p = -1.0, 1.0
    else:
        r_s, r_p = 1.0, -1.0
    k = xi / c

    def integrand(u):
        # u = 2 z q, so the exponent hypot(u, 2 z k) -> u for large q.
        q = u / (2.0 * z)
        b = np.hypot(q, k)
        trace = r_s * (-(q**2 + b**2)) + r_p * k**2
        return (q / b) * np.exp(-np.hypot(u, 2.0 * z * k)) * trace

    result = integrate_semiinf(integrand, spec)
    return result.value / (8.0 * np.pi * z)


# --- 3x3 assembly, used only by the brute-force trace oracles in the tests ---

def _cross_matrix(e: np.ndarray) -> np.ndarray:
    """Matrix K with K v = e x v."""
    return np.array(
        [
            [0.0, -e[2], e[1]],
            [e[2], 0.0, -e[0]],
            [-e[1], e[0], 0.0],
        ]
    )


def _free_tensor_mm(l_vec: np.ndarray, xi: float, c: float) -> np.ndarray:
    """Gmm0(r_A, r_B) as a 3x3 matrix, l_vec = r_A - r_B, xi > 0.

    (xi/c)^2 times the free Green tensor; the x^2 denominator of the scalar
    form cancels, leaving e^(-x) (f I - g e e) / (4 pi l^3).
    """
    l = float(np.linalg.norm(l_vec))
    if not l > 0.0:
        raise ValueError("coincident points have no finite free-space tensor")
    e = np.asarray(l_vec, dtype=float) / l
    x = l * xi / c
    f, g = fg(x)
    return np.exp(-x) / (4.0 * np.pi * l**3) * (float(f) * np.eye(3) - float(g) * np.outer(e, e))


def _free_tensor_me(l_vec: np.ndarray, xi: float, c: float) -> np.ndarray:
    """Gme0(r_A, r_B) as a 3x3 matrix, l_vec = r_A - r_B."""
    l = float(np.linalg.norm(l_vec))
    if not l > 0.0:
        raise ValueError("coincident points have no finite free-space tensor")
    e = np.asarray(l_vec, dtype=float) / l
    x = l * xi / c
    amplitude = xi * (1.0 + x) * np.exp(-x) / (4.0 * np.pi * c * l**2)
    return amplitude * _cross_matrix(e)


def _free_tensor_em(l_vec: np.ndarray, xi: float, c: float) -> np.ndarray:
    """Gem0(r_A, r_B) = -Gme0(r_A, r_B)."""
    return -_free_tensor_me(l_vec, xi, c)
