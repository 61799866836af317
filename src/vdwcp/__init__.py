"""Dispersion potentials for atoms with electric, paramagnetic and
diamagnetic response: single-atom curves in front of a perfect mirror and
two-atom van der Waals curves, channel by channel, with closed-form
asymptotes and an oracle selftest.
"""

__version__ = "0.1.0"

from .asymptotics import SlopeProfile, TableReport, local_log_slope, verify_tables
from .green import PlateKind
from .potentials import (
    Channel,
    PotentialCurve,
    Regime,
    UnsupportedAsymptoteError,
    cp_mirror_diamagnetic_closed,
    force_from_curve,
    mirror_curve,
    pair_curve,
    vdw_asymptote,
)
from .quad import ConvergenceError, IntegrandError, QuadratureError, QuadratureSpec
from .response import (
    AtomFileError,
    AtomModel,
    ChargedParticle,
    DiamagneticSpec,
    Transition,
    alpha_iso,
    beta_para_iso,
    beta_total,
    diamagnetisability,
    load_atom_file,
)
from .selftest import SelftestReport, run_selftest
from .units import Constants, UnitSystem, constants_for

__all__ = [
    "__version__",
    "AtomFileError",
    "AtomModel",
    "Channel",
    "ChargedParticle",
    "Constants",
    "ConvergenceError",
    "DiamagneticSpec",
    "IntegrandError",
    "PlateKind",
    "PotentialCurve",
    "QuadratureError",
    "QuadratureSpec",
    "Regime",
    "SelftestReport",
    "SlopeProfile",
    "TableReport",
    "Transition",
    "UnitSystem",
    "UnsupportedAsymptoteError",
    "alpha_iso",
    "beta_para_iso",
    "beta_total",
    "constants_for",
    "cp_mirror_diamagnetic_closed",
    "diamagnetisability",
    "force_from_curve",
    "load_atom_file",
    "local_log_slope",
    "mirror_curve",
    "pair_curve",
    "run_selftest",
    "vdw_asymptote",
    "verify_tables",
]
