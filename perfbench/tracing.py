"""Span tracing of a statlen run from outside the package.

Every public function of the traced modules is rebound, for the length of
a traced pass, in every ``statlen`` module namespace that holds it: ``cli``
does ``from .geometry import even_schedule`` and ``geometry`` imports
``validate_distribution`` from ``states``, so patching only the defining
module would miss those calls.  ``StatePath.sample`` is patched on the
class.  Nothing is added inside the package.

A span has a name, start, end, parent span and study id.  Self time is a
span's duration minus the durations of its child spans.  The hot spans
(validation, spectral calculus, fidelities, path samples, relative
entropies) number about 10^5 per transport study, so they are folded into
per-name totals as they close; every other span is kept in memory as a
record and written out when the run ends.
"""
from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("states", "geometry", "transport", "reservoir", "pathopt", "serialize")

# Span names that make up one per-layer metric group.  A group's ``calls``
# counts entries into it from outside, so mat_sqrt -> spectral counts once.
GROUPS = {
    "states.validate": ("states.validate_distribution", "states.validate_density"),
    "states.spectral": (
        "states.spectral",
        "states.mat_sqrt",
        "states.mat_log_on_support",
        "states.von_neumann_entropy",
        "states.shannon_entropy",
    ),
    "geometry.fidelity": (
        "geometry.state_fidelity",
        "geometry.fidelity_classical",
        "geometry.fidelity_quantum",
    ),
    "geometry.path_samples": ("geometry.StatePath.sample",),
    "transport.relative_entropy": ("transport.relative_entropy",),
    "reservoir.step": (
        "reservoir.step_entropy_production",
        "reservoir.classical_step_entropy_production",
    ),
}
_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}
_HOT = set(_GROUP_OF) - set(GROUPS["reservoir.step"]) | {"serialize.format_float"}

SPLITS = ("geodesic", "mixture")


class Tracer:
    """Collects spans while installed; see :func:`layer_metrics`."""

    def __init__(self, statlen):
        self.statlen = statlen
        self.study = None
        self.split = None
        # frame: [group, time covered by children, id of nearest kept span]
        self.stack = [[None, 0.0, None]]
        self.stats = defaultdict(lambda: [0, 0, 0.0, 0.0])  # spans, entries, total, self
        self.extra = defaultdict(float)
        self.records = []
        self.rebound = 0
        self._restore = []

    def wrap(self, fn, name, hook=None):
        group = _GROUP_OF.get(name, name)
        keep = name not in _HOT
        stack, stats, records = self.stack, self.stats, self.records

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = len(records) if keep else parent[2]
            if keep:
                records.append(None)
            frame = [group, 0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                parent[1] += duration
                entry = stats[(name, self.split)]
                entry[0] += 1
                entry[1] += parent[0] != group
                entry[2] += duration
                entry[3] += duration - frame[1]
                if keep:
                    records[span_id] = (
                        span_id, parent[2], name, self.study, self.split,
                        t0, t1, duration - frame[1],
                    )
            if hook is not None:
                hook(self, args, result, duration)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function everywhere the package holds it."""
        sl = self.statlen
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"statlen.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self.wrap(value, f"{short}.{attr}", _HOOKS.get(attr))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "statlen" or name.startswith("statlen.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        self.rebound = len(self._restore)
        sample = sl.geometry.StatePath.sample
        self._restore.append((sl.geometry.StatePath, "sample", sample))
        sl.geometry.StatePath.sample = self.wrap(sample, "geometry.StatePath.sample")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def _scan_hook(tracer, args, result, duration):
    kind = "classical" if result.mode == "classical-fast" else "dense"
    tracer.extra[f"reservoir.scan.s.{kind}"] += duration


def _step_hook(entries_per_dim_power):
    def hook(tracer, args, result, duration):
        # entries of the twirled reservoir state the step materializes
        tracer.extra["reservoir.twirl_entries"] += args[0].dim ** (entries_per_dim_power * args[2])

    return hook


def _minimize_hook(tracer, args, result, duration):
    tracer.extra[f"pathopt.minimize.s.{result.kind}"] += duration
    tracer.extra["pathopt.iterations"] += result.iterations


_HOOKS = {
    "convergence_scan": _scan_hook,
    "step_entropy_production": _step_hook(2),
    "classical_step_entropy_production": _step_hook(1),
    "minimize_path": _minimize_hook,
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values by name, from the spans of a traced pass."""
    stats = tracer.stats

    def total(field, names, split=None):
        names = set(names)
        return sum(
            v[field] for (name, sp), v in stats.items()
            if name in names and (split is None or sp == split)
        )

    def by_layer(layer):
        return [name for name, _ in stats if name.split(".", 1)[0] == layer]

    out = {
        "cli.self_s": total(3, by_layer("cli")),
        "serialize.self_s": total(3, by_layer("serialize")),
        "states.validate.calls": total(1, GROUPS["states.validate"]),
        "states.validate.self_s": total(3, GROUPS["states.validate"]),
        "states.spectral.calls": total(1, GROUPS["states.spectral"]),
        "states.spectral.self_s": total(3, GROUPS["states.spectral"]),
    }
    for suffix, split in (("", None),) + tuple((f".{s}", s) for s in SPLITS):
        out["geometry.path_samples" + suffix] = total(1, GROUPS["geometry.path_samples"], split)
        out["geometry.fidelity.calls" + suffix] = total(1, GROUPS["geometry.fidelity"], split)
        out["geometry.fidelity.self_s" + suffix] = total(3, GROUPS["geometry.fidelity"], split)
        out["geometry.even_schedule.s" + suffix] = total(2, ["geometry.even_schedule"], split)
        out["geometry.even_schedule.self_s" + suffix] = total(3, ["geometry.even_schedule"], split)
    out.update({
        "transport.relative_entropy.calls": total(1, GROUPS["transport.relative_entropy"]),
        "transport.relative_entropy.self_s": total(3, GROUPS["transport.relative_entropy"]),
        "transport.run_transport.s": total(2, ["transport.run_transport"]),
        "transport.expansion_probe.s": total(2, ["transport.expansion_probe"]),
        "reservoir.scan.s.classical": tracer.extra["reservoir.scan.s.classical"],
        "reservoir.scan.s.dense": tracer.extra["reservoir.scan.s.dense"],
        "reservoir.step.calls": total(1, GROUPS["reservoir.step"]),
        "reservoir.twirl_entries": int(tracer.extra["reservoir.twirl_entries"]),
        "pathopt.minimize.s.classical": tracer.extra["pathopt.minimize.s.classical"],
        "pathopt.minimize.s.quantum": tracer.extra["pathopt.minimize.s.quantum"],
        "pathopt.iterations": int(tracer.extra["pathopt.iterations"]),
    })
    minimize_s = out["pathopt.minimize.s.classical"] + out["pathopt.minimize.s.quantum"]
    iterations = out["pathopt.iterations"]
    out["pathopt.s_per_iteration"] = minimize_s / iterations if iterations else 0.0
    return out
