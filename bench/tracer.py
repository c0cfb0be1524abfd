"""Per-layer tracing for the benchmark's pass process.

``Tracer.install`` wraps the public functions of each nadqec module at every
binding a caller uses (``noise.apply_channel`` and ``protocol.apply_channel``
are one function under two names, for example) and records, per span name,
the call count and the self time: the span's duration minus the time of the
spans it called. Counts of derived quantities (repeated
arguments, identity channels, optimizer evaluations, repeated schedule
prefixes) are taken at the same boundaries. Everything stays in memory and is
returned by ``snapshot``; ``layer_metrics`` turns snapshots into the
benchmark's per-layer metrics and ``layer_shares`` into each module's share
of the traced time.

The program itself is not modified: a function that a later version renames
or deletes is reported under ``missing`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

MODULES = ("qcore", "noise", "code3", "protocol", "metrics", "circuits",
           "synth", "cli")

# Timed spans: (module, attribute path).
SPANS = (
    ("qcore", "embed"),
    ("qcore", "apply_unitary"),
    ("qcore", "partial_trace"),
    ("qcore", "fidelity"),
    ("qcore", "measure_computational"),
    ("noise", "apply_channel"),
    ("code3", "qec_cycle"),
    ("code3", "measured_circuit_distribution"),
    ("code3", "combined_recovery_unitary"),
    ("code3", "recovery_operators"),
    ("protocol", "schedule_rounds"),
    ("protocol", "run_multiqec"),
    ("protocol", "run_multiqec_with_chadd"),
    ("protocol", "run_crosstalk_toy"),
    ("protocol", "evolve_lindblad"),
    ("metrics", "gain_surface"),
    ("metrics", "gain_theoretical_detail"),
    ("circuits", "Circuit.unitary"),
    ("synth", "synthesize"),
    ("synth", "optimize"),
    ("synth", "verify_recovery_circuit"),
    ("cli", "run"),
)
# Counted without a span: called so often that timing each call would
# distort the span around it.
COUNTED = (("protocol", "lindblad_rhs"),)

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _is_identity_channel(channel) -> bool:
    """Every Kraus operator is a multiple of the identity."""
    import numpy as np

    for k in channel.matrices():
        d = np.diag(k)
        if np.any(k != np.diag(d)) or np.any(d != d[0]):
            return False
    return True


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.bindings: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._prefixes: set = set()

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        calls, self_time, stack = self.calls, self.self_time, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                h0 = clock()
                before(args, kwargs)
                if stack:
                    stack[-1][0] += clock() - h0
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                self_time[name] += dt - child[0]
            if after is not None:
                h0 = clock()
                after(args, kwargs, result, dt)
                if stack:  # hook time is tracing overhead, nobody's self time
                    stack[-1][0] += clock() - h0
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _repeat(self, key_name: str, key) -> None:
        seen = self._seen[key_name]
        if key in seen:
            self.counters[key_name + ".repeats"] += 1
        else:
            seen.add(key)

    # -- per-span hooks -----------------------------------------------------

    def _after_embed(self, args, kwargs, result, dt):
        import numpy as np

        op = np.asarray(_arg(args, kwargs, 0, "op"), dtype=complex)
        targets = tuple(_arg(args, kwargs, 1, "targets"))
        n = int(_arg(args, kwargs, 2, "n_qubits"))
        digest = hashlib.blake2b(op.tobytes(), digest_size=16).digest()
        self._repeat("qcore.embed", (op.shape, digest, targets, n))
        self.counters["qcore.embed.bytes"] += 16 * 4**n

    def _after_apply_channel(self, args, kwargs, result, dt):
        rho = _arg(args, kwargs, 0, "rho")
        channel = _arg(args, kwargs, 1, "channel")
        if _is_identity_channel(channel):
            self.counters["noise.apply_channel.identity"] += 1
        n = rho.qubit_count
        self.counters[f"noise.apply_channel.q{n}.calls"] += 1
        self.counters[f"noise.apply_channel.q{n}.total_s"] += dt

    def _after_recovery_operators(self, args, kwargs, result, dt):
        self._repeat("code3.recovery_operators",
                     float(_arg(args, kwargs, 0, "gamma")))

    def _after_gain_detail(self, args, kwargs, result, dt):
        self._repeat("metrics.gain_theoretical_detail",
                     float(_arg(args, kwargs, 1, "gamma")))

    def _before_sweep(self, args, kwargs):
        self._prefixes = set()

    def _after_schedule(self, args, kwargs, result, dt):
        schedule = tuple(result)
        for k in range(len(schedule)):
            prefix = schedule[:k + 1]
            if prefix in self._prefixes:
                self.counters["protocol.prefix.repeated"] += 1
            else:
                self._prefixes.add(prefix)
        self.counters["protocol.prefix.rounds"] += len(schedule)

    def _after_optimize(self, args, kwargs, result, dt):
        self.counters["synth.optimize.converged"] += int(bool(result.converged))

    def _after_minimize(self, args, kwargs, result, dt):
        self.counters["synth.minimize.nfev"] += int(getattr(result, "nfev", 0) or 0)
        self.counters["synth.minimize.njev"] += int(getattr(result, "njev", 0) or 0)

    def _hooks(self, name: str) -> tuple[Optional[Callable], Optional[Callable]]:
        return {
            "qcore.embed": (None, self._after_embed),
            "noise.apply_channel": (None, self._after_apply_channel),
            "code3.recovery_operators": (None, self._after_recovery_operators),
            "metrics.gain_theoretical_detail": (None, self._after_gain_detail),
            "protocol.run_multiqec": (self._before_sweep, None),
            "protocol.run_multiqec_with_chadd": (self._before_sweep, None),
            "protocol.schedule_rounds": (None, self._after_schedule),
            "synth.optimize": (None, self._after_optimize),
        }.get(name, (None, None))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"nadqec.{m}") for m in MODULES}
        package = [(name, mod) for name, mod in sys.modules.items()
                   if name == "nadqec" or name.startswith("nadqec.")]
        for modname, path in SPANS + COUNTED:
            name = f"{modname}.{path}"
            owner = mods[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            if (modname, path) in COUNTED:
                wrapped = self._counted(name, fn)
            else:
                wrapped = self._span(name, fn, *self._hooks(name))
            if outer:  # a method: its class is its only binding
                setattr(owner, attr, wrapped)
                self.bindings[name] = [name]
                continue
            self.bindings[name] = []
            for mname, mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self.bindings[name].append(f"{mname}.{key}")
        self._install_minimize(mods["synth"])

    def _install_minimize(self, synth_mod) -> None:
        """Wrap scipy.optimize.minimize as synth sees it, leaving every other
        caller of scipy untouched."""
        import scipy.optimize

        wrapped = self._span("synth.minimize", scipy.optimize.minimize,
                             after=self._after_minimize)
        found = []
        for key, value in list(vars(synth_mod).items()):
            if value is scipy.optimize:
                setattr(synth_mod, key, _ModuleView(value, minimize=wrapped))
                found.append(f"nadqec.synth.{key}.minimize")
            elif value is scipy.optimize.minimize:
                setattr(synth_mod, key, wrapped)
                found.append(f"nadqec.synth.{key}")
        self.bindings["synth.minimize"] = found
        if not found:
            self.missing.append("synth.minimize")

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_time),
                "counters": dict(self.counters),
                "bindings": self.bindings, "missing": self.missing}


class _ModuleView:
    """A module whose attributes pass through except the overridden ones."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---------------------------------------------------------------------------
# Snapshots -> per-layer metrics
# ---------------------------------------------------------------------------

CALLS = ("qcore.embed", "qcore.apply_unitary", "qcore.partial_trace",
         "qcore.fidelity", "qcore.measure_computational", "noise.apply_channel",
         "code3.qec_cycle", "code3.measured_circuit_distribution",
         "code3.combined_recovery_unitary", "code3.recovery_operators",
         "protocol.run_multiqec", "protocol.run_multiqec_with_chadd",
         "protocol.run_crosstalk_toy", "protocol.evolve_lindblad",
         "protocol.lindblad_rhs", "metrics.gain_theoretical_detail",
         "circuits.Circuit.unitary", "synth.synthesize", "synth.optimize",
         "synth.minimize")
SELF = ("qcore.embed", "qcore.apply_unitary", "qcore.partial_trace",
        "qcore.fidelity", "qcore.measure_computational", "noise.apply_channel",
        "code3.qec_cycle", "code3.measured_circuit_distribution",
        "code3.combined_recovery_unitary", "protocol.run_multiqec",
        "protocol.run_multiqec_with_chadd", "protocol.run_crosstalk_toy",
        "protocol.evolve_lindblad", "metrics.gain_surface",
        "metrics.gain_theoretical_detail", "circuits.Circuit.unitary",
        "synth.synthesize", "synth.minimize", "synth.verify_recovery_circuit",
        "cli.run")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_figures(snap: dict) -> dict:
    """The per-layer figures that must repeat exactly between traced runs."""
    calls, ctr = snap["calls"], snap["counters"]
    out = {f"{n}.calls": calls.get(n, 0) for n in CALLS}
    out["qcore.embed.bytes"] = ctr.get("qcore.embed.bytes", 0)
    out["qcore.embed.repeat_share"] = _share(
        ctr.get("qcore.embed.repeats", 0), calls.get("qcore.embed", 0))
    out["noise.apply_channel.identity_share"] = _share(
        ctr.get("noise.apply_channel.identity", 0),
        calls.get("noise.apply_channel", 0))
    out["code3.recovery_operators.repeat_share"] = _share(
        ctr.get("code3.recovery_operators.repeats", 0),
        calls.get("code3.recovery_operators", 0))
    out["protocol.prefix_share"] = _share(
        ctr.get("protocol.prefix.repeated", 0), ctr.get("protocol.prefix.rounds", 0))
    out["metrics.gain_theoretical_detail.gamma_repeat_share"] = _share(
        ctr.get("metrics.gain_theoretical_detail.repeats", 0),
        calls.get("metrics.gain_theoretical_detail", 0))
    out["synth.optimize.converged_share"] = _share(
        ctr.get("synth.optimize.converged", 0), calls.get("synth.optimize", 0))
    out["synth.minimize.nfev"] = ctr.get("synth.minimize.nfev", 0)
    out["synth.minimize.njev"] = ctr.get("synth.minimize.njev", 0)
    return out


UNITS = {"calls": "count", "self_s": "s", "bytes": "B-computed",
         "mean_us": "us", "nfev": "count", "njev": "count",
         "overhead_s": "s", "wall_s": "s"}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    return UNITS.get(last, "ratio")


def layer_shares(snaps: list[dict], traced_walls: list[float]) -> dict[str, float]:
    """Share of the traced pass time that each module's spans spent in their
    own code (median over traced passes); the rest is benchmark loop and
    tracing overhead."""
    return {mod: statistics.median(_share(sum(
        v for k, v in s["self_s"].items() if k.startswith(mod + ".")), w)
        for s, w in zip(snaps, traced_walls)) for mod in MODULES}


def layer_metrics(snaps: list[dict], traced_walls: list[float],
                  untraced_wall: float) -> dict[str, float]:
    """Exact figures from the first traced pass; times are medians over the
    traced passes."""
    out: dict[str, float] = dict(exact_figures(snaps[0]))

    def med(f: Callable[[dict], float]) -> float:
        return statistics.median(f(s) for s in snaps)

    for n in SELF:
        out[f"{n}.self_s"] = med(lambda s, n=n: s["self_s"].get(n, 0.0))
    for q in (3, 5):
        out[f"noise.apply_channel.q{q}.mean_us"] = med(lambda s, q=q: 1e6 * _share(
            s["counters"].get(f"noise.apply_channel.q{q}.total_s", 0.0),
            s["counters"].get(f"noise.apply_channel.q{q}.calls", 0)))
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out
