"""Atom response models: Lorentzian sums, the Lenz constraint, file loading."""
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import vdwcp
from vdwcp.response import (
    ELECTRIC,
    MAGNETIC,
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

HBAR = 1.0


def _electric(omega=1.0, mu_sq=1.5):
    return AtomModel(
        label="e",
        electric_transitions=(Transition(omega=omega, dipole_sq=mu_sq, kind=ELECTRIC),),
    )


def test_static_polarisability_of_unit_fixture():
    # (2/3) * 1.5 / 1 = 1
    assert alpha_iso(_electric(), 0.0, HBAR) == pytest.approx(1.0, rel=1e-15)


def test_polarisability_lorentzian_value():
    # at xi = omega the Lorentzian halves
    atom = _electric()
    assert alpha_iso(atom, 1.0, HBAR) == pytest.approx(0.5, rel=1e-15)


def test_polarisability_accepts_arrays():
    xi = np.array([0.0, 1.0, 3.0])
    values = alpha_iso(_electric(), xi, HBAR)
    assert values.shape == (3,)
    assert values[0] == pytest.approx(1.0)
    assert values[2] == pytest.approx(1.0 / 10.0)


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        alpha_iso(_electric(), -0.1, HBAR)


@pytest.mark.parametrize("response", [alpha_iso, beta_para_iso, beta_total])
@pytest.mark.parametrize("xi", [float("nan"), np.array([0.5, float("nan")])], ids=["scalar", "array"])
def test_nan_frequency_rejected(response, xi):
    # the diamagnetic fixture has no lines, so a sum over them would read beta_d whatever xi is
    for atom in (_electric(), AtomModel(label="d", diamagnetic=DiamagneticSpec(direct_beta_d=-1.0))):
        with pytest.raises(ValueError, match="xi must be >= 0"):
            response(atom, xi, HBAR)


def test_absent_responses_are_zero():
    atom = AtomModel(label="d", diamagnetic=DiamagneticSpec(direct_beta_d=-1.0))
    assert alpha_iso(atom, 0.7, HBAR) == 0.0
    assert beta_para_iso(atom, 0.7, HBAR) == 0.0
    assert beta_total(atom, 0.7, HBAR) == -1.0


def test_total_magnetisability_splits_into_para_and_dia():
    atom = AtomModel(
        label="m",
        magnetic_transitions=(Transition(omega=2.0, dipole_sq=3.0, kind=MAGNETIC),),
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.25),
    )
    xi = 0.9
    assert beta_total(atom, xi, HBAR) == pytest.approx(
        beta_para_iso(atom, xi, HBAR) - 0.25, rel=1e-15
    )


def test_diamagnetisability_from_particles():
    spec = DiamagneticSpec(
        particles=(ChargedParticle(charge=1.0, mass=1.0, mean_sq_radius=6.0),)
    )
    assert diamagnetisability(spec) == pytest.approx(-1.0, rel=1e-15)


def test_diamagnetisability_of_bound_electron():
    # hydrogen ground state: q = -e, <r^2> = 3 a0^2
    e = 1.602176634e-19
    m_e = 9.1093837015e-31
    a0 = 5.29177210903e-11
    spec = DiamagneticSpec(
        particles=(ChargedParticle(charge=-e, mass=m_e, mean_sq_radius=3.0 * a0**2),)
    )
    assert diamagnetisability(spec) == pytest.approx(-3.946e-29, rel=1e-3)


def test_diamagnetic_spec_rejects_positive_direct_value():
    with pytest.raises(ValueError):
        DiamagneticSpec(direct_beta_d=0.5)


def test_diamagnetic_spec_rejects_both_sources():
    with pytest.raises(ValueError):
        DiamagneticSpec(
            direct_beta_d=-1.0,
            particles=(ChargedParticle(charge=1.0, mass=1.0, mean_sq_radius=1.0),),
        )


def test_transition_validation():
    with pytest.raises(ValueError):
        Transition(omega=0.0, dipole_sq=1.0, kind=ELECTRIC)
    with pytest.raises(ValueError):
        Transition(omega=1.0, dipole_sq=-1.0, kind=ELECTRIC)
    with pytest.raises(ValueError):
        Transition(omega=1.0, dipole_sq=1.0, kind="x")


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_parameters_rejected_at_construction(bad):
    with pytest.raises(ValueError, match="finite"):
        Transition(omega=bad, dipole_sq=1.0, kind=ELECTRIC)
    with pytest.raises(ValueError, match="finite"):
        Transition(omega=1.0, dipole_sq=bad, kind=MAGNETIC)
    for field in ("charge", "mass", "mean_sq_radius"):
        values = {"charge": 1.0, "mass": 1.0, "mean_sq_radius": 1.0, field: bad}
        with pytest.raises(ValueError, match="finite"):
            ChargedParticle(**values)
    with pytest.raises(ValueError, match="finite"):
        DiamagneticSpec(direct_beta_d=bad)


def test_atom_model_rejects_mismatched_kinds():
    with pytest.raises(ValueError):
        AtomModel(
            label="bad",
            electric_transitions=(Transition(omega=1.0, dipole_sq=1.0, kind=MAGNETIC),),
        )


def test_atom_model_rejects_empty_atom():
    with pytest.raises(ValueError):
        AtomModel(label="nothing")


def test_atom_model_rejects_all_zero_static_responses():
    silent_e = Transition(omega=1.0, dipole_sq=0.0, kind=ELECTRIC)
    silent_m = Transition(omega=2.0, dipole_sq=0.0, kind=MAGNETIC)
    with pytest.raises(ValueError, match="every static response is zero"):
        AtomModel(label="silent", electric_transitions=(silent_e,))
    with pytest.raises(ValueError, match="every static response is zero"):
        AtomModel(
            label="silent",
            electric_transitions=(silent_e,),
            magnetic_transitions=(silent_m,),
            diamagnetic=DiamagneticSpec(direct_beta_d=0.0),
        )
    # one non-zero response is enough
    AtomModel(label="para", electric_transitions=(silent_e,), magnetic_transitions=(
        Transition(omega=2.0, dipole_sq=1e-3, kind=MAGNETIC),
    ))


def test_atom_carries_its_poles():
    # lines without a dipole element carry no pole; the shares sum to one
    atom = AtomModel(
        label="poles",
        electric_transitions=(
            Transition(omega=1.0, dipole_sq=0.5, kind=ELECTRIC),
            Transition(omega=3.0, dipole_sq=0.0, kind=ELECTRIC),
            Transition(omega=2.0, dipole_sq=1.5, kind=ELECTRIC),
        ),
        diamagnetic=DiamagneticSpec(direct_beta_d=-1.0),
    )
    (static, (omegas, shares)), magnetic = atom.poles
    assert static * (2.0 / 3.0) == alpha_iso(atom, 0.0, HBAR)
    assert omegas.tolist() == [1.0, 2.0]
    assert shares.tolist() == [0.4, 0.6]
    assert magnetic == (0.0, None)
    # a sum that leaves the float range has no poles; the curves report it
    huge = Transition(omega=1.0, dipole_sq=1e308, kind=ELECTRIC)
    assert AtomModel(label="huge", electric_transitions=(huge, huge)).poles[0] == (math.inf, None)


def test_poles_are_not_part_of_the_atoms_value():
    atom = _electric(omega=2.0, mu_sq=0.7)
    copy = _electric(omega=2.0, mu_sq=0.7)
    assert copy.poles[0][1][0] is not atom.poles[0][1][0]
    assert copy == atom and hash(copy) == hash(atom)
    assert "poles" not in repr(atom)
    moved = dataclasses.replace(atom, electric_transitions=(Transition(omega=4.0, dipole_sq=0.7, kind=ELECTRIC),))
    assert moved.poles[0][1][0].tolist() == [4.0]
    assert moved.poles[0][0] == 0.7 / 4.0


@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
def test_polarisability_monotone_on_imaginary_axis(xi1, xi2):
    lo, hi = sorted((xi1, xi2))
    atom = _electric(omega=2.0, mu_sq=0.7)
    assert alpha_iso(atom, lo, HBAR) >= alpha_iso(atom, hi, HBAR)


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_polarisability_additive_over_transitions(omega_a, omega_b, xi):
    one = _electric(omega=omega_a, mu_sq=1.0)
    two = _electric(omega=omega_b, mu_sq=2.0)
    both = AtomModel(
        label="both",
        electric_transitions=one.electric_transitions + two.electric_transitions,
    )
    assert alpha_iso(both, xi, HBAR) == pytest.approx(
        alpha_iso(one, xi, HBAR) + alpha_iso(two, xi, HBAR), rel=1e-12
    )


# -- atom files ---------------------------------------------------------------


ROOT = Path(__file__).resolve().parents[1]


def _load(tmp_path, text):
    path = tmp_path / "atom.yaml"
    path.write_text(text)
    return load_atom_file(path)


def _readme_example() -> str:
    section = (ROOT / "README.md").read_text().split("## Atom files", 1)[1]
    return re.search(r"```yaml\n(.*?)```", section, re.S).group(1)


def test_load_full_atom_file(tmp_path):
    atom = _load(
        tmp_path,
        """
label: demo
electric_transitions:
  - omega: 1.0
    mu_sq: 1.5
magnetic_transitions:
  - omega: 2.0
    m_sq: 0.5
beta_d: -0.125
""",
    )
    assert atom.label == "demo"
    assert alpha_iso(atom, 0.0, HBAR) == pytest.approx(1.0)
    assert beta_para_iso(atom, 0.0, HBAR) == pytest.approx(2.0 * 0.5 / (3.0 * 2.0))
    assert diamagnetisability(atom.diamagnetic) == -0.125


def test_load_particles_form(tmp_path):
    atom = _load(
        tmp_path,
        """
label: particles
particles:
  - q: 1.0
    m: 1.0
    r_sq: 6.0
  - q: -1.0
    m: 2.0
    r_sq: 6.0
""",
    )
    assert diamagnetisability(atom.diamagnetic) == pytest.approx(-1.5)


def test_missing_file_error_names_path():
    with pytest.raises(AtomFileError, match="no/such/file"):
        load_atom_file("no/such/file.yaml")


def test_unknown_key_error_carries_line_number(tmp_path):
    with pytest.raises(AtomFileError, match=r"atom\.yaml:3:"):
        _load(tmp_path, "label: x\nbeta_d: -1.0\nwalrus: 3\n")


def test_positive_beta_d_rejected_with_location(tmp_path):
    with pytest.raises(AtomFileError, match=r"atom\.yaml:2:.*Lenz"):
        _load(tmp_path, "label: x\nbeta_d: 0.25\n")


def test_both_beta_sources_rejected(tmp_path):
    with pytest.raises(AtomFileError, match="not both"):
        _load(
            tmp_path,
            "label: x\nbeta_d: -1.0\nparticles:\n  - {q: 1.0, m: 1.0, r_sq: 1.0}\n",
        )


def test_bad_number_rejected_with_location(tmp_path):
    with pytest.raises(AtomFileError, match=r"atom\.yaml:4:"):
        _load(
            tmp_path,
            "label: x\nelectric_transitions:\n  - omega: 1.0\n    mu_sq: banana\n",
        )


NON_FINITE_SPELLINGS = [".inf", "-.Inf", "+.INF", ".NaN", ".nan"]


@pytest.mark.parametrize("spelling", NON_FINITE_SPELLINGS)
def test_yaml_non_finite_spellings_reach_the_finiteness_check(tmp_path, spelling):
    with pytest.raises(AtomFileError, match=r"atom\.yaml:3: particle charge must be finite"):
        _load(tmp_path, f"label: x\nparticles:\n  - {{q: {spelling}, m: 1.0, r_sq: 1.0}}\n")
    with pytest.raises(AtomFileError, match=r"atom\.yaml:3: .*frequency must be finite"):
        _load(tmp_path, f"label: x\nelectric_transitions:\n  - {{omega: {spelling}, mu_sq: 1.0}}\n")


def test_invalid_yaml_is_reported_with_the_offending_line(tmp_path):
    # in the pure-Python loader's words, which libyaml's differ from
    with pytest.raises(AtomFileError, match=r"atom\.yaml: not valid YAML: mapping values are not allowed here\n"
                       r'  in "<unicode string>", line 2, column 11:\n    beta_d: -1: 2\n'):
        _load(tmp_path, "label: x\nbeta_d: -1: 2\n")


def test_all_zero_atom_file_rejected_with_location(tmp_path):
    with pytest.raises(AtomFileError, match=r"atom\.yaml:1: .*every static response is zero"):
        _load(tmp_path, "label: x\nelectric_transitions:\n  - {omega: 1.0, mu_sq: 0}\n")


def test_missing_label_rejected(tmp_path):
    with pytest.raises(AtomFileError, match="label"):
        _load(tmp_path, "beta_d: -1.0\n")


def test_empty_file_rejected(tmp_path):
    with pytest.raises(AtomFileError, match="empty"):
        _load(tmp_path, "")


def test_non_mapping_top_level_rejected(tmp_path):
    with pytest.raises(AtomFileError, match="mapping"):
        _load(tmp_path, "- 1\n- 2\n")


def test_transition_missing_field_rejected(tmp_path):
    with pytest.raises(AtomFileError, match="omega"):
        _load(tmp_path, "label: x\nelectric_transitions:\n  - mu_sq: 1.0\n")


def test_empty_atom_file_content_rejected(tmp_path):
    with pytest.raises(AtomFileError, match="response"):
        _load(tmp_path, "label: x\n")


# The malformed-file cases above load through libyaml where PyYAML has it; this
# reruns each through the pure-Python SafeLoader, and the file:line messages must hold.
@pytest.mark.parametrize(
    ("case", "kwargs"),
    [
        *(
            pytest.param(case, {}, id=case.__name__.removeprefix("test_"))
            for case in (
                test_unknown_key_error_carries_line_number,
                test_positive_beta_d_rejected_with_location,
                test_both_beta_sources_rejected,
                test_bad_number_rejected_with_location,
                test_invalid_yaml_is_reported_with_the_offending_line,
                test_all_zero_atom_file_rejected_with_location,
                test_missing_label_rejected,
                test_empty_file_rejected,
                test_non_mapping_top_level_rejected,
                test_transition_missing_field_rejected,
                test_empty_atom_file_content_rejected,
            )
        ),
        *(
            pytest.param(test_yaml_non_finite_spellings_reach_the_finiteness_check, {"spelling": s},
                         id=f"non_finite_spelling_{s}")
            for s in NON_FINITE_SPELLINGS
        ),
    ],
)
def test_malformed_files_keep_their_locations_without_libyaml(tmp_path, monkeypatch, case, kwargs):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    case(tmp_path, **kwargs)


TOP_KEYS = "['beta_d', 'electric_transitions', 'label', 'magnetic_transitions', 'particles']"

# (id, file text or None for no file, message with PATH for the file's path): every
# message the loader gives, exactly; where a file has two faults, the one it reports first.
LOADER_MESSAGES = [
    ("no_file", None, "cannot read atom file PATH: [Errno 2] No such file or directory: 'PATH'"),
    ("empty", "", "PATH: file is empty"),
    ("comments_only", "# nothing\n", "PATH: file is empty"),
    ("top_level_list", "- 1\n- 2\n", "PATH: top level must be a mapping"),
    ("top_level_scalar", "x\n", "PATH: top level must be a mapping"),
    ("invalid_yaml", "label: x\nbeta_d: -1: 2\n",
     'PATH: not valid YAML: mapping values are not allowed here\n  in "<unicode string>", line 2, '
     "column 11:\n    beta_d: -1: 2\n              ^"),
    ("unknown_key", "label: x\nbeta_d: -1.0\nwalrus: 3\n",
     f"PATH:3: unknown key 'walrus', expected one of {TOP_KEYS}"),
    ("duplicate_key", "label: x\nbeta_d: -1.0\nlabel: y\n", "PATH:3: duplicate key 'label'"),
    ("sequence_key", "label: x\n? [a]\n: 1\n", f"PATH:2: unknown sequence key, expected one of {TOP_KEYS}"),
    ("mapping_key", "? {a: 1}\n: 1\nlabel: x\n", f"PATH:1: unknown mapping key, expected one of {TOP_KEYS}"),
    ("missing_label", "beta_d: -1.0\n", "PATH: missing required key 'label'"),
    ("label_list", "label: [a]\nbeta_d: -1.0\n", "PATH:1: label must be a non-empty string"),
    ("label_empty", "label: ''\nbeta_d: -1.0\n", "PATH:1: label must be a non-empty string"),
    ("label_blank", "beta_d: -1.0\nlabel:\n", "PATH:2: label must be a non-empty string"),
    ("label_tilde", "label: ~\nbeta_d: -1.0\n", "PATH:1: label must be a non-empty string"),
    ("label_null", "beta_d: -1.0\nlabel: null\n", "PATH:2: label must be a non-empty string"),
    ("electric_not_a_list", "label: x\nelectric_transitions: 3\n",
     "PATH:2: electric_transitions must be a list"),
    ("magnetic_not_a_list", "label: x\nmagnetic_transitions:\n  omega: 1.0\n",
     "PATH:3: magnetic_transitions must be a list"),
    ("particles_not_a_list", "label: x\nparticles: p\n", "PATH:2: particles must be a list"),
    ("entry_not_a_mapping", "label: x\nelectric_transitions:\n  - 3\n",
     "PATH:3: expected a mapping with keys ['mu_sq', 'omega']"),
    ("particle_not_a_mapping", "label: x\nparticles:\n  - [1, 2, 3]\n",
     "PATH:3: expected a mapping with keys ['m', 'q', 'r_sq']"),
    ("entry_unknown_key", "label: x\nmagnetic_transitions:\n  - {omega: 1.0, mu_sq: 1.0}\n",
     "PATH:3: unknown key 'mu_sq', expected one of ['m_sq', 'omega']"),
    ("entry_duplicate_key", "label: x\nparticles:\n  - q: 1.0\n    q: 2.0\n", "PATH:4: duplicate key 'q'"),
    ("entry_sequence_key", "label: x\nelectric_transitions:\n  - {[a]: 1}\n",
     "PATH:3: unknown sequence key, expected one of ['mu_sq', 'omega']"),
    ("entry_missing_key", "label: x\nelectric_transitions:\n  - mu_sq: 1.0\n", "PATH:3: missing key 'omega'"),
    ("entry_missing_keys", "label: x\nparticles: [{q: 1.0}]\n", "PATH:2: missing key 'm'"),
    ("entry_missing_last_key", "label: x\nparticles:\n  - {r_sq: 1.0, q: 1.0}\n", "PATH:3: missing key 'm'"),
    ("not_a_number", "label: x\nbeta_d: [1]\n", "PATH:2: expected a number"),
    ("bad_number", "label: x\nelectric_transitions:\n  - omega: 1.0\n    mu_sq: banana\n",
     "PATH:4: expected a number, got 'banana'"),
    ("frequency", "label: x\nelectric_transitions:\n  - {omega: -1, mu_sq: 1.0}\n",
     "PATH:3: transition frequency must be finite and positive, got -1.0"),
    ("dipole", "label: x\nmagnetic_transitions:\n  - {omega: 1.0, m_sq: -.inf}\n",
     "PATH:3: squared dipole element must be finite and >= 0, got -inf"),
    ("omega_squared", "label: x\nelectric_transitions:\n  - {omega: 1e200, mu_sq: 1.0}\n",
     "PATH:3: transition with omega = 1e+200 and squared dipole element 1.0: omega^2 must be a finite "
     "non-zero float and the static term omega |d|^2 / omega^2 a finite one"),
    ("charge", "label: x\nparticles:\n  - {q: .nan, m: 1.0, r_sq: 1.0}\n",
     "PATH:3: particle charge must be finite, got nan"),
    ("mass", "label: x\nparticles:\n  - {q: 1.0, m: 0, r_sq: 1.0}\n",
     "PATH:3: particle mass must be finite and positive, got 0.0"),
    ("mean_sq_radius", "label: x\nparticles:\n  - {q: 1.0, m: 1.0, r_sq: -1}\n",
     "PATH:3: mean square radius must be finite and >= 0, got -1.0"),
    ("both_beta_sources", "label: x\nparticles: []\nbeta_d: -1.0\n",
     "PATH:3: give either beta_d or particles, not both"),
    ("lenz", "label: x\nbeta_d: 0.25\n",
     "PATH:2: diamagnetisability must be finite and <= 0 (Lenz rule), got 0.25"),
    ("no_response", "label: x\n", "PATH:1: atom 'x' has no response at all: every static response is zero"),
    ("all_zero", "\nlabel: z\nparticles:\n  - {q: 0, m: 1.0, r_sq: 1.0}\n",
     "PATH:2: atom 'z' has no response at all: every static response is zero"),
    # the order of the checks
    ("top_keys_before_label", "label: [a]\nwalrus: 1\n",
     f"PATH:2: unknown key 'walrus', expected one of {TOP_KEYS}"),
    ("label_before_lists", "electric_transitions: 3\nlabel: ''\n",
     "PATH:2: label must be a non-empty string"),
    ("electric_before_magnetic", "label: x\nmagnetic_transitions: 3\nelectric_transitions: 3\n",
     "PATH:3: electric_transitions must be a list"),
    ("magnetic_before_conflict", "label: x\nbeta_d: -1.0\nparticles: []\nmagnetic_transitions: 3\n",
     "PATH:4: magnetic_transitions must be a list"),
    ("conflict_before_values", "label: x\nparticles: 3\nbeta_d: 1\n",
     "PATH:3: give either beta_d or particles, not both"),
    ("entry_keys_before_missing", "label: x\nparticles:\n  - {q: 1.0, walrus: 2}\n",
     "PATH:3: unknown key 'walrus', expected one of ['m', 'q', 'r_sq']"),
    ("missing_before_numbers", "label: x\nelectric_transitions:\n  - {omega: banana}\n",
     "PATH:3: missing key 'mu_sq'"),
    ("numbers_in_table_order", "label: x\nparticles:\n  - {r_sq: a, m: b, q: c}\n",
     "PATH:3: expected a number, got 'c'"),
    ("numbers_before_values", "label: x\nelectric_transitions:\n  - {omega: -1, mu_sq: b}\n",
     "PATH:3: expected a number, got 'b'"),
    ("entries_before_atom", "label: x\nelectric_transitions:\n  - {omega: 1, mu_sq: 0}\nbeta_d: 1\n",
     "PATH:4: diamagnetisability must be finite and <= 0 (Lenz rule), got 1.0"),
]


@pytest.mark.parametrize("loader", ["libyaml", "SafeLoader"])
@pytest.mark.parametrize(
    ("text", "message"), [pytest.param(*case[1:], id=case[0]) for case in LOADER_MESSAGES]
)
def test_loader_messages_are_exact(tmp_path, monkeypatch, loader, text, message):
    if loader == "libyaml" and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    if loader == "SafeLoader":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "atom.yaml"
    if text is not None:
        path.write_text(text)
    with pytest.raises(AtomFileError) as caught:
        load_atom_file(path)
    assert str(caught.value) == message.replace("PATH", str(path))


def test_missing_key_message_does_not_follow_the_hash_seed(tmp_path):
    atom = tmp_path / "atom.yaml"
    atom.write_text("label: x\nparticles: [{q: 1.0}]\n")
    source = str(Path(vdwcp.__file__).resolve().parents[1])
    probe = (
        "import sys\nfrom vdwcp.response import load_atom_file\n"
        "try:\n    load_atom_file(sys.argv[1])\nexcept ValueError as exc:\n    print(exc)\n"
    )
    lines = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONPATH": source, "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, "-c", probe, str(atom)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        lines.add(done.stdout)
    assert lines == {f"{atom}:2: missing key 'm'\n"}


@pytest.mark.parametrize(("text", "label"), [("123", "123"), ("'null'", "null"), ("!!str ~", "~")])
def test_a_label_that_is_not_null_keeps_its_text(tmp_path, text, label):
    assert _load(tmp_path, f"label: {text}\nbeta_d: -1.0\n").label == label


def test_bundled_example_atoms_load():
    atoms_dir = ROOT / "atoms"
    labels = set()
    for path in sorted(atoms_dir.glob("*.yaml")):
        labels.add(load_atom_file(path).label)
    assert {"electric-unit", "paramagnetic-unit", "diamagnetic-unit", "hydrogen-1s"} <= labels


def test_readme_atom_file_example_parses(tmp_path):
    atom = _load(tmp_path, _readme_example())
    assert atom.label == "hydrogen-1s"
    assert atom.electric_transitions == (
        Transition(omega=1.55e16, dipole_sq=1.82e-58, kind=ELECTRIC),
    )
    assert atom.magnetic_transitions == ()
    assert diamagnetisability(atom.diamagnetic) == pytest.approx(-3.946e-29, rel=1e-3)


def test_libyaml_and_pure_python_loaders_give_equal_atoms(tmp_path, monkeypatch):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    readme = tmp_path / "readme.yaml"
    readme.write_text(_readme_example())
    paths = [*sorted(ROOT.glob("atoms/*.yaml")), *sorted(ROOT.glob("bench/data/*.yaml")), readme]
    with_libyaml = [load_atom_file(path) for path in paths]
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert [load_atom_file(path) for path in paths] == with_libyaml
    assert len(paths) == 7


def test_importing_vdwcp_leaves_pyyaml_unloaded():
    # PyYAML loads with the first atom file, not with the package
    source = str(Path(vdwcp.__file__).resolve().parents[1])
    probe = "import sys, vdwcp; print('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": source}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
