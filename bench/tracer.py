"""Outside-in tracer: wraps vdwcp's functions where they are looked up.

vdwcp modules bind their helpers with `from .x import y`, so a helper has to
be wrapped in the namespace of the module that calls it, not in the module
that defines it. Each wrapper records a span (name, layer, start, end,
parent) in memory and bumps counters at the same boundary. Integrands passed
to integrate_semiinf are wrapped in a `<caller>.integrand` span; the number
of abscissas per call (15 for a Gauss-Kronrod panel, 3 for a tail bound)
gives panels, tail bounds and window extensions without touching vdwcp.quad.
A layer's self time is its spans' time minus the time of their child spans.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import program  # noqa: F401  (vdwcp from this checkout)
import vdwcp.asymptotics
import vdwcp.cli
import vdwcp.green
import vdwcp.potentials
import vdwcp.selftest
from vdwcp.quad import QuadratureError

PANEL_POINTS = 15
TAIL_POINTS = 3

# Layer of each integrand span; the green and selftest integrands are their
# modules' own arithmetic.
_INTEGRAND_LAYER = {"potentials": "potentials.integrand", "green": "green", "selftest": "selftest"}
_KERNELS = {"fg", "mirror_kernel", "pair_kernel_same", "pair_kernel_cross"}
_RESPONSE_TRANSITIONS = {
    "alpha_iso": "electric_transitions",
    "beta_para_iso": "magnetic_transitions",
    "beta_total": "magnetic_transitions",
}
_POTENTIAL_POINTS = {"cp_mirror", "vdw_pair", "vdw_pair_total_direct"}


class Tracer:
    """Spans and counters of the requests run while installed."""

    def __init__(self):
        self.spans: list[tuple[str, str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def call(self, name: str, layer: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, layer, start, end, parent)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    # -- installation ----------------------------------------------------
    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, module, attr: str, layer: str, on_result=None) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            result = self.call(name, layer, original, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        self._patch(module, attr, traced)

    def _wrap_quad(self, module) -> None:
        original = module.integrate_semiinf
        caller = module.__name__.rsplit(".", 1)[-1]
        integrand_name = f"{caller}.integrand"
        integrand_layer = _INTEGRAND_LAYER[caller]

        def traced(f, *args, **kwargs):
            panels = tails = 0
            initial = None

            def integrand(x):
                nonlocal panels, tails, initial
                size = np.size(x)
                if size == PANEL_POINTS:
                    panels += 1
                elif size == TAIL_POINTS:
                    tails += 1
                    if initial is None:
                        initial = panels
                return self.call(integrand_name, integrand_layer, f, x)

            try:
                result = self.call(f"{caller}.integrate_semiinf", "quad", original, integrand, *args, **kwargs)
            except QuadratureError:
                self.counts["quad.failures"] += 1
                raise
            finally:
                # After the initial window every step is either one extension
                # (a panel plus a tail bound) or one bisection (two panels that
                # replace their parent in the final partition).
                extensions = max(tails - 1, 0)
                bisections = (panels - (initial or 0) - extensions) // 2
                self.counts["quad.calls"] += 1
                self.counts["quad.panels"] += panels
                self.counts["quad.tail_bounds"] += tails
                self.counts["quad.extensions"] += extensions
                self.counts["quad.final_panels"] += panels - bisections
            self.counts["quad.evaluations"] += result.evaluations
            return result

        self._patch(module, "integrate_semiinf", traced)

    def install(self) -> None:
        """Wrap every traced name; `remove` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        cli, pot, asy, sel, green = (
            vdwcp.cli, vdwcp.potentials, vdwcp.asymptotics, vdwcp.selftest, vdwcp.green,
        )
        # Entry points the benchmark itself calls.
        self._wrap(cli, "main", "cli", _count_cli)
        self._wrap(pot, "mirror_curve", "potentials", _count_potentials("mirror_curve"))
        self._wrap(pot, "pair_curve", "potentials", _count_potentials("pair_curve"))
        self._wrap(asy, "verify_tables", "asymptotics", _count_call("asymptotics.calls"))
        self._wrap(sel, "run_selftest", "selftest", _count_checks)
        # Names looked up inside vdwcp.
        for attr in _RESPONSE_TRANSITIONS:
            self._wrap(pot, attr, "response.eval", _count_response(attr))
        for attr in ("mirror_kernel", "pair_kernel_same", "pair_kernel_cross"):
            self._wrap(pot, attr, "green", _count_green(attr))
        self._wrap(cli, "load_atom_file", "response.load", _count_call("response.load.calls"))
        for module in (cli, asy):
            for attr in ("mirror_curve", "pair_curve"):
                self._wrap(module, attr, "potentials", _count_potentials(attr))
        self._wrap(asy, "local_log_slope", "asymptotics", _count_call("asymptotics.calls"))
        for attr in _selftest_imports():
            layer = getattr(sel, attr).__module__.rsplit(".", 1)[-1]
            counter = {
                "green": _count_green(attr),
                "potentials": _count_potentials(attr),
                "asymptotics": _count_call("asymptotics.calls"),
            }[layer]
            self._wrap(sel, attr, layer, counter)
        for module in (pot, green, sel):
            self._wrap_quad(module)

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- output ------------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            for index, (name, layer, start, end, parent) in enumerate(self.spans):
                sink.write(json.dumps({
                    "id": index, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


def _selftest_imports() -> list[str]:
    """Functions selftest imports from green, potentials and asymptotics.

    Its integrate_semiinf, imported from quad, is wrapped by `_wrap_quad`.
    """
    names = []
    for attr, value in vars(vdwcp.selftest).items():
        module = getattr(value, "__module__", "")
        if (
            callable(value)
            and not isinstance(value, type)
            and module in ("vdwcp.green", "vdwcp.potentials", "vdwcp.asymptotics")
        ):
            names.append(attr)
    return sorted(names)


def _count_call(key: str):
    def count(counts, args, result):
        counts[key] += 1

    return count


def _count_cli(counts, args, result):
    """Counts a CLI run and the bytes of the file it wrote with --out."""
    counts["cli.calls"] += 1
    argv = list(args[0])
    if "--out" in argv:
        counts["cli.bytes_out"] += Path(argv[argv.index("--out") + 1]).stat().st_size


def _count_response(attr: str):
    transitions = _RESPONSE_TRANSITIONS[attr]

    def count(counts, args, result):
        atom, xi = args[0], args[1]
        points = np.size(xi)
        counts["response.eval.calls"] += 1
        counts["response.eval.points"] += points
        counts["response.eval.terms"] += points * len(getattr(atom, transitions))

    return count


def _count_green(attr: str):
    def count(counts, args, result):
        counts["green.calls"] += 1
        counts["green.points"] += np.size(args[0]) if attr in _KERNELS else 1

    return count


def _count_checks(counts, args, result):
    counts["selftest.checks"] += len(result.checks)


def _count_potentials(attr: str):
    """Counts curves, distance points and channel values of a potentials-layer call.

    Closed forms (vdw_asymptote, cp_mirror_diamagnetic_closed) evaluate no
    point; vdw_pair_total_direct evaluates one point but no channel split.
    """

    def count(counts, args, result):
        if attr.endswith("_curve"):
            counts["potentials.curves"] += 1
            counts["potentials.points"] += result.distances.size
            values = np.concatenate(list(result.values.values()))
        elif attr in _POTENTIAL_POINTS:
            counts["potentials.points"] += 1
            if attr == "cp_mirror":
                values = np.array([result.electric, result.paramagnetic, result.diamagnetic])
            elif attr == "vdw_pair":
                values = np.array(list(result.channels.values()))
            else:
                values = np.empty(0)
        else:
            values = np.empty(0)
        counts["potentials.channel_values"] += values.size
        counts["potentials.zero_channels"] += int(np.count_nonzero(values == 0.0))

    return count


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's durations."""
    child_time = defaultdict(float)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, layer, start, end, parent) in enumerate(spans):
        totals[layer] += (end - start) - child_time[index]
    return dict(totals)


def layer_metrics(counts: dict, self_s: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced request: name -> (value, unit)."""
    def n(key):
        return counts.get(key, 0)

    def per(key, base):
        return n(key) / n(base) if n(base) else 0.0

    def busy(layer):
        return self_s.get(layer, 0.0)

    return {
        "response.eval.calls": (n("response.eval.calls"), "count"),
        "response.eval.points": (n("response.eval.points"), "count"),
        "response.eval.terms": (n("response.eval.terms"), "count"),
        "response.eval.points_per_call": (per("response.eval.points", "response.eval.calls"), "points/call"),
        "response.eval.self_s": (busy("response.eval"), "s"),
        "response.load.calls": (n("response.load.calls"), "count"),
        "response.load.self_s": (busy("response.load"), "s"),
        "green.calls": (n("green.calls"), "count"),
        "green.points": (n("green.points"), "count"),
        "green.points_per_call": (per("green.points", "green.calls"), "points/call"),
        "green.self_s": (busy("green"), "s"),
        "quad.calls": (n("quad.calls"), "count"),
        "quad.evaluations": (n("quad.evaluations"), "count"),
        "quad.panels": (n("quad.panels"), "count"),
        "quad.tail_bounds": (n("quad.tail_bounds"), "count"),
        "quad.extensions": (n("quad.extensions"), "count"),
        "quad.failures": (n("quad.failures"), "count"),
        "quad.evals_per_call": (per("quad.evaluations", "quad.calls"), "evals/call"),
        "quad.self_s": (busy("quad"), "s"),
        "quad.useful_panel_ratio": (per("quad.final_panels", "quad.panels"), "ratio"),
        "potentials.curves": (n("potentials.curves"), "count"),
        "potentials.points": (n("potentials.points"), "count"),
        "potentials.channel_values": (n("potentials.channel_values"), "count"),
        "potentials.zero_channels": (n("potentials.zero_channels"), "count"),
        "potentials.self_s": (busy("potentials"), "s"),
        "potentials.integrand.self_s": (busy("potentials.integrand"), "s"),
        "cli.calls": (n("cli.calls"), "count"),
        "cli.self_s": (busy("cli"), "s"),
        "cli.bytes_out": (n("cli.bytes_out"), "B"),
        "asymptotics.calls": (n("asymptotics.calls"), "count"),
        "asymptotics.self_s": (busy("asymptotics"), "s"),
        "selftest.checks": (n("selftest.checks"), "count"),
        "selftest.self_s": (busy("selftest"), "s"),
    }
