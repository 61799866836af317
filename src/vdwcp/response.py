"""Isotropic atomic response functions on the positive imaginary frequency axis.

An atom is modelled by its electric dipole transitions (polarisability
alpha(i xi)), magnetic dipole transitions (paramagnetisability beta_p(i xi),
both Lorentzian sums that are positive and monotonically decreasing in xi)
and a static diamagnetisability beta_d <= 0. On the imaginary axis the
Lorentzian denominators omega_k^2 + xi^2 never vanish, so no pole
regularization is needed anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .quad import LOCKSTEP_COLUMNS, PANEL_NODES

ELECTRIC = "electric"
MAGNETIC = "magnetic"


class AtomFileError(ValueError):
    """Atom definition file is malformed; message carries file and line."""


@dataclass(frozen=True, slots=True)
class Transition:
    """One ground-to-excited transition.

    omega: angular frequency in rad/s, finite and > 0.
    dipole_sq: squared dipole matrix element magnitude; C^2 m^2 for electric
        transitions, J^2/T^2 for magnetic ones. Finite and >= 0.
    kind: "electric" or "magnetic".

    As computed in floats, omega^2 must also be finite and non-zero and the
    static term omega |d|^2 / omega^2 of the Lorentzian sum finite.
    """

    omega: float
    dipole_sq: float
    kind: str

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError(
                f"transition frequency must be finite and positive, got {self.omega!r}"
            )
        if not 0.0 <= self.dipole_sq < math.inf:
            raise ValueError(
                f"squared dipole element must be finite and >= 0, got {self.dipole_sq!r}"
            )
        if self.kind not in (ELECTRIC, MAGNETIC):
            raise ValueError(f"transition kind must be electric or magnetic, got {self.kind!r}")
        try:
            omega_sq = self.omega**2
        except OverflowError:
            omega_sq = math.inf
        if not 0.0 < omega_sq < math.inf or not self.omega * self.dipole_sq / omega_sq < math.inf:
            raise ValueError(
                f"transition with omega = {self.omega!r} and squared dipole element "
                f"{self.dipole_sq!r}: omega^2 must be a finite non-zero float and the "
                "static term omega |d|^2 / omega^2 a finite one"
            )


@dataclass(frozen=True, slots=True)
class ChargedParticle:
    """Constituent particle entering the diamagnetisability sum."""

    charge: float  # C
    mass: float  # kg
    mean_sq_radius: float  # m^2, relative to the centre of mass

    def __post_init__(self):
        if not math.isfinite(self.charge):
            raise ValueError(f"particle charge must be finite, got {self.charge!r}")
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"particle mass must be finite and positive, got {self.mass!r}")
        if not 0.0 <= self.mean_sq_radius < math.inf:
            raise ValueError(
                f"mean square radius must be finite and >= 0, got {self.mean_sq_radius!r}"
            )


@dataclass(frozen=True, slots=True)
class DiamagneticSpec:
    """Static diamagnetisability, given directly or via a particle decomposition.

    Specifying both is rejected as ambiguous. A direct value must respect the
    Lenz rule (beta_d <= 0); the particle form -sum q^2 <r^2>/(6 m) is
    non-positive by construction.
    """

    direct_beta_d: float | None = None
    particles: tuple[ChargedParticle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))
        if self.direct_beta_d is not None and self.particles:
            raise ValueError("give either a direct beta_d or a particle list, not both")
        if self.direct_beta_d is not None and not -math.inf < self.direct_beta_d <= 0.0:
            raise ValueError(
                "diamagnetisability must be finite and <= 0 (Lenz rule), "
                f"got {self.direct_beta_d!r}"
            )


def diamagnetisability(spec: DiamagneticSpec) -> float:
    """Static diamagnetisability in J/T^2; always <= 0."""
    if spec.direct_beta_d is not None:
        return spec.direct_beta_d
    return -sum(p.charge**2 * p.mean_sq_radius / (6.0 * p.mass) for p in spec.particles)


@dataclass(frozen=True, slots=True)
class AtomModel:
    """Isotropic atom: transition lists plus a static diamagnetisability."""

    label: str
    electric_transitions: tuple[Transition, ...] = ()
    magnetic_transitions: tuple[Transition, ...] = ()
    diamagnetic: DiamagneticSpec = field(default_factory=DiamagneticSpec)

    def __post_init__(self):
        object.__setattr__(self, "electric_transitions", tuple(self.electric_transitions))
        object.__setattr__(self, "magnetic_transitions", tuple(self.magnetic_transitions))
        for t in self.electric_transitions:
            if t.kind != ELECTRIC:
                raise ValueError(f"electric_transitions holds a {t.kind} transition")
        for t in self.magnetic_transitions:
            if t.kind != MAGNETIC:
                raise ValueError(f"magnetic_transitions holds a {t.kind} transition")
        # the static responses up to the positive factor 1/hbar, so zero in every unit system
        statics = (
            _lorentz_sum(self.electric_transitions, 0.0, 1.0),
            _lorentz_sum(self.magnetic_transitions, 0.0, 1.0),
            diamagnetisability(self.diamagnetic),
        )
        if not any(statics):
            raise ValueError(
                f"atom {self.label!r} has no response at all: every static response is zero"
            )


def _lorentz_sum(transitions: tuple[Transition, ...], xi, hbar: float):
    """(2/3 hbar) sum_k omega_k |d_k|^2 / (omega_k^2 + xi^2), vectorized in xi."""
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr < 0.0):
        raise ValueError("imaginary-axis frequency xi must be >= 0")
    total = np.zeros_like(xi_arr)
    for t in transitions:
        total = total + t.omega * t.dipole_sq / (t.omega**2 + xi_arr**2)
    total = total * (2.0 / (3.0 * hbar))
    return float(total) if np.isscalar(xi) else total


class LorentzTable:
    """_lorentz_sum of one non-empty transition list, tabulated for many evaluations.

    The columns omega_k |d_k|^2 and omega_k^2 are built once; a call
    evaluates (transitions x abscissas) terms in one array and adds its rows
    with np.add.reduce over axis 0. For at least two abscissas numpy adds
    those rows in transition order, the order of _lorentz_sum, so both give
    bit-identical sums; the quadrature's 15- and 3-point rows qualify. A 2d
    xi is taken in blocks of whole rows so that no term array holds more than
    max(transitions, LOCKSTEP_COLUMNS) * PANEL_NODES terms, the working set of
    one panel or of one lockstep call of the quadrature. A single transition
    needs no term array and is evaluated with scalar operands, in the same
    order. xi is not checked for sign.
    """

    __slots__ = ("weights", "omega_sq", "factor", "block")

    def __init__(self, transitions: tuple[Transition, ...], hbar: float):
        self.weights = np.array([[t.omega * t.dipole_sq] for t in transitions])
        self.omega_sq = np.array([[t.omega**2] for t in transitions])
        self.factor = 2.0 / (3.0 * hbar)
        # abscissas per term array
        self.block = max(len(transitions), LOCKSTEP_COLUMNS) * PANEL_NODES // len(transitions)

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        if len(self.weights) == 1:
            total = xi**2
            total += self.omega_sq.item()
            np.divide(self.weights.item(), total, out=total)
            total *= self.factor
            return total
        total = np.empty(xi.shape)
        rows = max(1, self.block // xi.shape[-1])
        if xi.ndim == 1 or len(xi) <= rows:
            self._sum(xi, total)
        else:
            for start in range(0, len(xi), rows):
                self._sum(xi[start : start + rows], total[start : start + rows])
        total *= self.factor
        return total

    def _sum(self, xi: np.ndarray, out: np.ndarray) -> None:
        # A broadcasting ufunc allocates an iteration buffer as large as its
        # output. The division takes its numerators from a full copy instead,
        # so at most two (transitions x abscissas) arrays are alive at a time.
        terms = np.empty((len(self.weights), xi.size))
        terms[...] = self.omega_sq
        terms += (xi**2).reshape(-1)
        numerators = np.empty(terms.shape)
        numerators[...] = self.weights
        np.divide(numerators, terms, out=terms)
        del numerators
        np.add.reduce(terms, axis=0, out=out.reshape(-1))


def alpha_iso(atom: AtomModel, xi, hbar: float):
    """Electric polarisability alpha(i xi); scalar or ndarray xi, xi >= 0."""
    return _lorentz_sum(atom.electric_transitions, xi, hbar)


def beta_para_iso(atom: AtomModel, xi, hbar: float):
    """Paramagnetisability beta_p(i xi); same Lorentzian form with magnetic elements."""
    return _lorentz_sum(atom.magnetic_transitions, xi, hbar)


def beta_total(atom: AtomModel, xi, hbar: float):
    """Total magnetisability beta(i xi) = beta_p(i xi) + beta_d."""
    return beta_para_iso(atom, xi, hbar) + diamagnetisability(atom.diamagnetic)


# --- atom definition files ------------------------------------------------
#
# YAML schema (all frequencies rad/s, SI units unless the file is meant for
# natural-unit runs):
#
#   label: hydrogen-like
#   electric_transitions:
#     - {omega: 1.55e16, mu_sq: 1.8e-58}
#   magnetic_transitions:
#     - {omega: 4.4e9, m_sq: 8.6e-47}
#   beta_d: -3.9e-29          # or instead:
#   particles:
#     - {q: -1.602176634e-19, m: 9.1093837015e-31, r_sq: 8.4e-21}

_TOP_KEYS = {"label", "electric_transitions", "magnetic_transitions", "beta_d", "particles"}


def _mark(path, node) -> str:
    return f"{path}:{node.start_mark.line + 1}"


def _fail(path, node, message: str):
    raise AtomFileError(f"{_mark(path, node)}: {message}")


# YAML's own spellings of the non-finite floats, which Python's float() rejects.
_YAML_SPECIAL_FLOATS = {".inf": math.inf, "+.inf": math.inf, "-.inf": -math.inf, ".nan": math.nan}


def _as_float(path, node) -> float:
    if not isinstance(node, yaml.ScalarNode):
        _fail(path, node, "expected a number")
    special = _YAML_SPECIAL_FLOATS.get(node.value.lower())
    if special is not None:
        return special
    try:
        return float(node.value)
    except ValueError:
        _fail(path, node, f"expected a number, got {node.value!r}")


def _as_entries(path, node, what: str) -> list:
    if not isinstance(node, yaml.SequenceNode):
        _fail(path, node, f"{what} must be a list")
    return node.value


def _entry_map(path, node, allowed: set[str]) -> dict:
    if not isinstance(node, yaml.MappingNode):
        _fail(path, node, f"expected a mapping with keys {sorted(allowed)}")
    out = {}
    for key_node, value_node in node.value:
        key = key_node.value
        if key not in allowed:
            _fail(path, key_node, f"unknown key {key!r}, expected one of {sorted(allowed)}")
        if key in out:
            _fail(path, key_node, f"duplicate key {key!r}")
        out[key] = value_node
    for key in allowed:
        if key not in out:
            _fail(path, node, f"missing key {key!r}")
    return out


def _construct(path, node, cls, **fields):
    """cls(**fields), with a validation error reported at node's file:line."""
    try:
        return cls(**fields)
    except ValueError as exc:
        _fail(path, node, str(exc))


def _parse_transition(path, node, kind: str, dipole_key: str) -> Transition:
    entries = _entry_map(path, node, {"omega", dipole_key})
    return _construct(
        path,
        node,
        Transition,
        omega=_as_float(path, entries["omega"]),
        dipole_sq=_as_float(path, entries[dipole_key]),
        kind=kind,
    )


def _parse_particle(path, node) -> ChargedParticle:
    entries = _entry_map(path, node, {"q", "m", "r_sq"})
    return _construct(
        path,
        node,
        ChargedParticle,
        charge=_as_float(path, entries["q"]),
        mass=_as_float(path, entries["m"]),
        mean_sq_radius=_as_float(path, entries["r_sq"]),
    )


def load_atom_file(path) -> AtomModel:
    """Parse an atom definition file, reporting errors with file:line prefixes."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise AtomFileError(f"cannot read atom file {path}: {exc}") from exc
    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise AtomFileError(f"{path}: not valid YAML: {exc}") from exc
    if root is None:
        raise AtomFileError(f"{path}: file is empty")
    if not isinstance(root, yaml.MappingNode):
        raise AtomFileError(f"{path}: top level must be a mapping")

    nodes = {}
    for key_node, value_node in root.value:
        key = key_node.value
        if key not in _TOP_KEYS:
            _fail(path, key_node, f"unknown key {key!r}, expected one of {sorted(_TOP_KEYS)}")
        if key in nodes:
            _fail(path, key_node, f"duplicate key {key!r}")
        nodes[key] = value_node

    if "label" not in nodes:
        raise AtomFileError(f"{path}: missing required key 'label'")
    if not isinstance(nodes["label"], yaml.ScalarNode) or not nodes["label"].value:
        _fail(path, nodes["label"], "label must be a non-empty string")
    label = nodes["label"].value

    electric = tuple(
        _parse_transition(path, n, ELECTRIC, "mu_sq")
        for n in _as_entries(path, nodes["electric_transitions"], "electric_transitions")
    ) if "electric_transitions" in nodes else ()
    magnetic = tuple(
        _parse_transition(path, n, MAGNETIC, "m_sq")
        for n in _as_entries(path, nodes["magnetic_transitions"], "magnetic_transitions")
    ) if "magnetic_transitions" in nodes else ()

    if "beta_d" in nodes and "particles" in nodes:
        _fail(path, nodes["beta_d"], "give either beta_d or particles, not both")
    if "beta_d" in nodes:
        dia = _construct(
            path,
            nodes["beta_d"],
            DiamagneticSpec,
            direct_beta_d=_as_float(path, nodes["beta_d"]),
        )
    elif "particles" in nodes:
        dia = DiamagneticSpec(
            particles=tuple(
                _parse_particle(path, n)
                for n in _as_entries(path, nodes["particles"], "particles")
            )
        )
    else:
        dia = DiamagneticSpec()

    return _construct(
        path,
        root,
        AtomModel,
        label=label,
        electric_transitions=electric,
        magnetic_transitions=magnetic,
        diamagnetic=dia,
    )
