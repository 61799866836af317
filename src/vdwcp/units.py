"""Physical constants and unit-system selection.

Externally everything is SI; internally every integral runs over a
dimensionless variable (x = l*xi/c for atom pairs, x = 2*z*xi/c at a
mirror) with the analytic prefactor factored out, so the unit system
only enters through the Constants bundle attached to a computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# CODATA 2018 value for eps0; c and hbar are exact SI definitions.
# mu0 is derived from 1/(eps0 c^2) so that the Maxwell identity
# mu0*eps0*c^2 = 1 holds to machine precision (the rounded CODATA
# mu0 literal would miss it by ~5e-10).
C_SI = 299_792_458.0  # m/s
HBAR_SI = 1.054_571_817e-34  # J s
EPS0_SI = 8.854_187_8128e-12  # F/m
MU0_SI = 1.0 / (EPS0_SI * C_SI**2)  # H/m


class UnitSystem(Enum):
    SI = "si"
    NATURAL = "natural"


@dataclass(frozen=True, slots=True)
class Constants:
    """Bundle of hbar, c, eps0, mu0 in a consistent unit system."""

    hbar: float
    c: float
    eps0: float
    mu0: float

    def __post_init__(self):
        for name in ("hbar", "c", "eps0", "mu0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"constant {name} must be positive")
        identity = self.mu0 * self.eps0 * self.c**2
        if abs(identity - 1.0) > 1e-12:
            raise ValueError(
                f"mu0*eps0*c^2 = {identity!r} violates the Maxwell identity"
            )


def constants_for(system: UnitSystem) -> Constants:
    """Return the constants bundle for a unit system.

    SI uses CODATA 2018 / exact-definition values; natural units set
    hbar = c = eps0 = mu0 = 1 (the Maxwell identity then holds exactly).
    """
    if system is UnitSystem.SI:
        return Constants(hbar=HBAR_SI, c=C_SI, eps0=EPS0_SI, mu0=MU0_SI)
    if system is UnitSystem.NATURAL:
        return Constants(hbar=1.0, c=1.0, eps0=1.0, mu0=1.0)
    raise ValueError(f"unknown unit system: {system!r}")
