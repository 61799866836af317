"""Scalar trace kernels of the electromagnetic dyadic Green tensor at imaginary frequency.

Isotropic atoms only ever probe traces of Green-tensor products, so this
module exposes scalar kernels: the free-space like-type and cross-type trace
products entering two-atom potentials, and the scattering-part trace at
coincident points in front of a perfect mirror (the bulk part diverges there
and is never evaluated). A minimal 3x3 assembly of the free-space tensors,
stacked over samples, is kept module-private for the brute-force oracles.

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
    if not np.all(x >= 0.0):
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


def _free_arguments(l, xi):
    """l and xi as float arrays, checked: every l finite and > 0 (naming the first that is not), xi >= 0 and finite."""
    l, xi = np.asarray(l, dtype=float), np.asarray(xi, dtype=float)
    bad = ~((l > 0.0) & (l < np.inf))
    if bad.any():
        raise ValueError(f"separation l must be positive and finite, got {float(l[bad][0])!r}")
    if not np.all((xi >= 0.0) & (xi < np.inf)):
        raise ValueError("xi must be >= 0 and finite")
    return l, xi


def trace_gmm_gmm_free(l, xi, c):
    """Tr[Gmm0(A,B) . Gmm0(B,A)] for two points a distance l apart in free space.

    Equals 2 * pair_kernel_same(l xi / c) / (16 pi^2 l^6); positive. l, xi, c broadcast.
    """
    l, xi = _free_arguments(l, xi)
    return pair_kernel_same(l * xi / c) / (8.0 * np.pi**2 * l**6)


def trace_gme_gem_free(l, xi, c):
    """Tr[Gme0(A,B) . Gem0(B,A)] for two points a distance l apart in free space.

    Equals -xi^2 pair_kernel_cross(l xi / c) / (8 pi^2 c^2 l^4); the minus sign
    is what makes the crossed electric-magnetic channels repulsive. l, xi, c broadcast.
    """
    l, xi = _free_arguments(l, xi)
    return -(xi**2) * pair_kernel_cross(l * xi / c) / (8.0 * np.pi**2 * c**2 * l**4)


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
    the production mirror_kernel at x = 2 z xi / c over 8 pi z^3. plate is a
    PlateKind or its value ("conducting"); anything else is a ValueError.
    """
    plate = PlateKind(plate)
    if not z > 0.0:
        raise ValueError(f"mirror distance z must be positive, got {z!r}")
    if not 0.0 <= xi < np.inf:
        raise ValueError("xi must be >= 0 and finite")
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
    Requires a finite xi > 0 (the p-vector normalization carries c/xi). plate is a
    PlateKind or its value ("conducting"); anything else is a ValueError.
    """
    plate = PlateKind(plate)
    if not z > 0.0:
        raise ValueError(f"mirror distance z must be positive, got {z!r}")
    if not 0.0 < xi < np.inf:
        raise ValueError("the transverse-momentum oracle needs a finite xi > 0")
    r_s, r_p = -plate.sign, plate.sign
    k = xi / c

    def integrand(u):
        # u = 2 z q, so the exponent hypot(u, 2 z k) -> u for large q.
        q = u / (2.0 * z)
        b = np.hypot(q, k)
        trace = r_s * (-(q**2 + b**2)) + r_p * k**2
        return (q / b) * np.exp(-np.hypot(u, 2.0 * z * k)) * trace

    result = integrate_semiinf(integrand, spec)
    return result.value / (8.0 * np.pi * z)


# --- 3x3 assembly, only for the brute-force trace oracles (selftest and tests) ---
# l_vec (..., 3), with xi and c broadcasting against its leading axes, gives
# (..., 3, 3): a stack of samples in one call, each with the bits it has alone.

def _cross_matrix(e: np.ndarray) -> np.ndarray:
    """Matrices K with K v = e x v, stacked like e."""
    k = np.zeros(e.shape + (3,))
    k[..., 2, 1], k[..., 0, 2], k[..., 1, 0] = e[..., 0], e[..., 1], e[..., 2]
    k[..., 1, 2], k[..., 2, 0], k[..., 0, 1] = -e[..., 0], -e[..., 1], -e[..., 2]
    return k


def _separation(l_vec, xi, c):
    """|l_vec|, its direction and x = |l_vec| xi / c. |l_vec| is a dot product, as np.linalg.norm
    takes, and an array even for one l_vec, so that its powers are numpy's for one sample too."""
    l_vec = np.asarray(l_vec, dtype=float)
    l = np.sqrt(l_vec[..., None, :] @ l_vec[..., :, None]).reshape(l_vec.shape[:-1])
    if not np.all(l > 0.0):
        raise ValueError("coincident points have no finite free-space tensor")
    return l, l_vec / l[..., None], l * xi / c


def _free_tensor_mm(l_vec: np.ndarray, xi, c) -> np.ndarray:
    """Gmm0(r_A, r_B) as a 3x3 matrix, l_vec = r_A - r_B, xi > 0.

    (xi/c)^2 times the free Green tensor; the x^2 denominator of the scalar
    form cancels, leaving e^(-x) (f I - g e e) / (4 pi l^3).
    """
    l, e, x = _separation(l_vec, xi, c)
    f, g = fg(x)
    # f I - g e e in one array: -(g e e), then f added on the diagonal, rounds as f I - g e e does
    tensor = e[..., :, None] * e[..., None, :]
    tensor *= -g[..., None, None]
    tensor[..., range(3), range(3)] += f[..., None]
    tensor *= (np.exp(-x) / (4.0 * np.pi * l**3))[..., None, None]
    return tensor


def _free_tensor_me(l_vec: np.ndarray, xi, c) -> np.ndarray:
    """Gme0(r_A, r_B) as a 3x3 matrix, l_vec = r_A - r_B."""
    l, e, x = _separation(l_vec, xi, c)
    amplitude = xi * (1.0 + x) * np.exp(-x) / (4.0 * np.pi * c * l**2)
    return _cross_matrix(amplitude[..., None] * e)


def _free_tensor_em(l_vec: np.ndarray, xi, c) -> np.ndarray:
    """Gem0(r_A, r_B) = -Gme0(r_A, r_B)."""
    return -_free_tensor_me(l_vec, xi, c)
