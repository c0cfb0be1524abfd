"""Configuration-driven experiment runner.

Usage:
    nadqec run <spec.json>    run one experiment from a JSON spec
    nadqec list [--json]      catalog of experiment kinds
    nadqec check              oracle/invariant suite (exit 3 on failure)

A spec file holds {"kind": ..., "seed": ..., "output": ..., "params":
{...}}. Every run writes a CSV (10 significant digits, deterministic row
order) plus a JSON manifest echoing the config, seeds, package version and
wall time. Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import __version__, code3, metrics, protocol
from .noise import NoiseParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: Mapping
    output: str
    seed: int = 0

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"spec file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})")
        for req in ("kind", "output"):
            if req not in raw:
                raise ConfigError(f"{path}: missing required field '{req}'")
        kind = raw["kind"]
        if kind not in CATALOG:
            raise ConfigError(
                f"{path}: unknown kind '{kind}'; known: {', '.join(sorted(CATALOG))}")
        params = raw.get("params", {})
        missing = [f for f in CATALOG[kind].required if f not in params]
        if missing:
            raise ConfigError(
                f"{path}: kind '{kind}' missing parameter field(s): "
                + ", ".join(missing))
        unknown = sorted(set(params) - set(CATALOG[kind].required)
                         - set(CATALOG[kind].optional))
        if unknown:
            raise ConfigError(
                f"{path}: kind '{kind}' has no parameter field(s): "
                + ", ".join(unknown))
        _require_numbers(raw, ints={"seed": 0})
        _require_output(raw["output"])
        return cls(kind=kind, params=params, output=raw["output"],
                   seed=raw.get("seed", 0))


def _require_output(output) -> None:
    """``output`` is a path a CSV can be written to: a non-empty string,
    not a directory, with no existing file among its parent directories."""
    if not (isinstance(output, str) and output):
        raise ConfigError(f"'output' must be a file path, got {output!r}")
    out = Path(output)
    if out.is_dir():
        raise ConfigError(f"'output' {output!r} is a directory")
    ancestor = next((d for d in out.parents if d.exists()), None)
    if ancestor is not None and not ancestor.is_dir():
        raise ConfigError(f"'output' {output!r} lies under {str(ancestor)!r}, "
                          f"which is not a directory")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(spec: ExperimentSpec, out_csv: Path, t0: float) -> None:
    manifest = {
        "kind": spec.kind,
        "params": dict(spec.params),
        "seed": spec.seed,
        "output": str(out_csv),
        "rng": metrics.RNG_KIND,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
    }
    Path(str(out_csv) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _noise_from(params: Mapping, n_qubits: int) -> NoiseParams:
    """Noise for an ``n_qubits`` register; invalid values, or per-qubit
    lifetimes that do not cover the register, are config errors."""
    if "t1" not in params:
        raise ConfigError("missing field 't1' in params")
    for name in ("t1", "t2", "tphi"):  # +inf passes: no relaxation or dephasing
        _require_in(params, name, _is_real, "a number or a non-empty list of numbers")
    if "t2" in params and "tphi" in params:
        raise ConfigError("'t2' and 'tphi' both set the dephasing; give one of them")
    t1 = params["t1"]
    try:
        if "t2" in params:
            noise = NoiseParams.from_t1_t2(t1, params["t2"])
        else:
            noise = NoiseParams(t1=t1, tphi=params.get("tphi", math.inf))
        noise.lifetimes(n_qubits)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise params: {exc}") from exc
    return noise


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------


_POINT_HEADER = ["total_evolution_us", "fidelity", "success_probability",
                 "rounds", "variant", "chadd"]


def _point_rows(pts, variant: str, chadd: bool) -> list[tuple]:
    return [(x.total_evolution_us, x.fidelity, x.success_probability,
             x.rounds, variant, chadd) for x in pts]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is_number(v) -> bool:
    return _is_real(v) and math.isfinite(v)


def _require_numbers(p: Mapping, fields: Sequence[str] = (),
                     lists: Sequence[str] = (),
                     ints: Optional[Mapping[str, int]] = None) -> None:
    """Present ``fields`` are finite numbers, ``lists`` lists of them and
    present ``ints`` integers at or above their minimum; else a config error."""
    for name in fields:
        if name in p and not _is_number(p[name]):
            raise ConfigError(f"'{name}' must be a finite number, got {p[name]!r}")
    for name in lists:
        v = p.get(name)
        if not (isinstance(v, (list, tuple)) and all(_is_number(x) for x in v)):
            raise ConfigError(
                f"'{name}' must be a list of finite numbers, got {v!r}")
    for name, low in (ints or {}).items():
        if name in p and not (_is_int(p[name]) and p[name] >= low):
            raise ConfigError(f"'{name}' must be an integer >= {low}, got {p[name]!r}")


def _require_in(p: Mapping, name: str, ok: Callable[[float], bool],
                what: str) -> None:
    """The present field ``name``, a number or a non-empty list of them,
    has only values that pass ``ok``; else a config error."""
    if name not in p:
        return
    values = p[name] if isinstance(p[name], list) else [p[name]]
    if not (values and all(ok(v) for v in values)):
        raise ConfigError(f"'{name}' must be {what}, got {p[name]!r}")


def _protocol_config(p: Mapping, t1s: Sequence[float]) -> protocol.ProtocolConfig:
    """The sweep of ``p`` for a register's ``t1s``; invalid values are config errors."""
    _require_numbers(p, ("theta", "phi", "max_delay"), lists=("total_free",))
    recovery = p.get("recovery", "ideal")
    if recovery not in ("ideal", "approximate"):
        raise ConfigError(
            f"'recovery' must be 'ideal' or 'approximate', got {recovery!r}")
    try:
        cfg = protocol.ProtocolConfig(
            logical=code3.LogicalStateSpec(p["theta"], p.get("phi", 0.0)),
            max_delay=p["max_delay"], total_free=tuple(p["total_free"]),
            recovery_variant=recovery)
        protocol.recovery_t1(cfg, t1s)
    except ValueError as exc:
        raise ConfigError(f"invalid protocol params: {exc}") from exc
    return cfg


def _run_multiqec(spec: ExperimentSpec, out: Path) -> None:
    noise = _noise_from(spec.params, 3)
    cfg = _protocol_config(spec.params, noise.lifetimes(3)[0])
    pts = protocol.run_multiqec(cfg, noise)
    _write_csv(out, _POINT_HEADER, _point_rows(pts, cfg.recovery_variant, False))


# The CHaDD runner walks the full rounds of its longest point once, plus
# one remainder round for each point that has one, at about 1.6 ms a round
# at 7 qubits (CHaDD off plus on), so that count is capped.
_CHADD_ROUNDS = 2500


def _run_multiqec_chadd(spec: ExperimentSpec, out: Path) -> None:
    p = spec.params
    _require_numbers(p, ints={"spectators": 0})
    _require_in(p, "spectators", lambda v: v <= 4, "at most 4 (7 qubits in all)")
    spectators = p.get("spectators", 1)
    # the default coupling names the first spectator, so it needs one
    couplings = p.get("couplings", [[0, 3, 0.05]] if spectators else [])
    if not (isinstance(couplings, list) and all(
            isinstance(c, list) and len(c) == 3 and _is_int(c[0]) and _is_int(c[1])
            and _is_number(c[2]) for c in couplings)):
        raise ConfigError(
            f"'couplings' must be [qubit, qubit, g] triples, got {couplings!r}")
    layout = protocol.SpectatorLayout(
        spectators=spectators,
        couplings=tuple(tuple(c) for c in couplings))
    n = layout.n_qubits
    for a, b, g in couplings:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ConfigError(f"'couplings' entry {[a, b, g]} must name two "
                              f"distinct qubits of the {n}-qubit register")
    noise = _noise_from(p, n)
    cfg = _protocol_config(p, noise.lifetimes(n)[0])
    rounds = cfg.walked_rounds()
    if rounds > _CHADD_ROUNDS:
        raise ConfigError(f"'total_free' over 'max_delay' {cfg.max_delay} "
                          f"needs {rounds} rounds; at most {_CHADD_ROUNDS}")
    rows = []
    for chadd in (False, True):
        rows += _point_rows(protocol.run_multiqec_with_chadd(
            cfg, noise, layout, chadd=chadd), cfg.recovery_variant, chadd)
    _write_csv(out, _POINT_HEADER, rows)


def _run_delay_sweep(spec: ExperimentSpec, out: Path) -> None:
    p = spec.params
    noise = _noise_from(p, 3)
    t1s = noise.lifetimes(3)[0]
    _require_numbers(p, (), lists=("delays",))
    rows = []
    for max_delay in p["delays"]:
        cfg = _protocol_config({"theta": math.pi, **p, "max_delay": max_delay},
                               t1s)
        for x in protocol.run_multiqec(cfg, noise):
            rows.append((max_delay, x.total_free_us, x.total_evolution_us,
                         x.fidelity, x.success_probability, x.rounds))
    _write_csv(out,
               ["max_delay_us", "total_free_us", "total_evolution_us",
                "fidelity", "success_probability", "rounds"], rows)


def _run_crosstalk_toy(spec: ExperimentSpec, out: Path) -> None:
    p = spec.params
    _require_numbers(p, ("omega1", "omega2", "g", "t_final"), ints={"cycles": 1})
    _require_in(p, "t_final", lambda v: v > 0, "positive")
    # one CSV row per cycle for each probe, so the count is capped
    _require_in(p, "cycles", lambda v: v <= 10**4, "at most 10000")
    noise = _noise_from(p, 2)
    model = protocol.CrosstalkModel(
        omega1=p.get("omega1", 0.3), omega2=p.get("omega2", 0.2),
        g=p.get("g", 0.05), noise=noise)
    t_final = p.get("t_final", 60.0)
    cycles = p.get("cycles", 4)
    rows = []
    for probe in ("0", "1"):
        for label, n_cycles in (("free", None), ("chadd", cycles)):
            series = protocol.run_crosstalk_toy(model, probe, t_final, n_cycles)
            for t, p0, p1, f in zip(series.times, series.pop0, series.pop1,
                                    series.fidelity):
                rows.append((probe, label, t, p0, p1, f))
    _write_csv(out, ["probe", "sequence", "time_us", "pop0", "pop1", "fidelity"],
               rows)


def _run_gain_surface(spec: ExperimentSpec, out: Path) -> None:
    p = spec.params
    _require_numbers(p, ("theta",), lists=("t1_range", "emeas_range", "delay_range"))
    _require_in(p, "theta", lambda v: 0 <= v <= math.pi, "in [0, pi]")
    _require_in(p, "t1_range", lambda v: v > 0, "a non-empty list of positive numbers")
    _require_in(p, "emeas_range", lambda v: 0 <= v <= 0.5,
                "a non-empty list of numbers in [0, 0.5]")
    _require_in(p, "delay_range", lambda v: v >= 0,
                "a non-empty list of non-negative numbers")
    cells = metrics.gain_surface(p["t1_range"], p["emeas_range"],
                                 p["delay_range"], theta=p.get("theta", math.pi))
    rows = [(c.t1_us, c.e_meas, c.delay_us, c.gain, c.f_qec, c.f_bare,
             c.p_success, spec.seed) for c in cells]
    _write_csv(out, ["T1_us", "E_meas", "delay_us", "gain", "F_qec", "F_bare",
                     "p_success", "seed"], rows)


def _run_synth(spec: ExperimentSpec, out: Path) -> None:
    from . import synth  # loads scipy.optimize, which no other kind needs

    _require_numbers(spec.params, ints={"restarts": 1})
    # a depth level that does not converge runs every start, and a search
    # may try six levels. Failed starts, medians and maxima over 200 seeded
    # starts per level on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4): the
    # encoder at 3 layers about 15 ms, up to about 85 ms; the recovery
    # factor about 14 ms at 4 layers and 19 ms at 5, up to about 45 ms, and
    # about 24 ms at 6, up to about 50 ms
    _require_in(spec.params, "restarts", lambda v: v <= 1000, "at most 1000")
    restarts = spec.params.get("restarts", 20)
    seed = spec.seed
    enc_circ, enc_res = synth.synthesize_encoder(seed=seed, restarts=restarts)
    u_circ, u_res = synth.synthesize_recovery_u(seed=seed + 1, restarts=restarts)
    rec_circ = synth.build_recovery_circuit(u_circ)
    report = synth.verify_recovery_circuit(rec_circ, code3.RecoveryMap.approximate())
    d_circ = synth.block_encode_diagonal(0.0)
    d_block = d_circ.unitary()[0::2][:, 0::2]
    d_target = synth.canonical_recovery_split(0.0).d
    d_dev = float(np.max(np.abs(d_block - d_target)))
    rows = [
        ("encoder", enc_res.cost, enc_circ.count("CZ"), enc_res.restarts_used),
        ("recovery_u", u_res.cost, u_circ.count("CZ"), u_res.restarts_used),
        ("recovery_full", report.max_deviation, report.cz_count, 0),
        ("d_block_approx", d_dev, d_circ.count("CZ"), 0),
    ]
    _write_csv(out, ["component", "cost_or_deviation", "cz_count", "restarts"],
               rows)
    base = Path(str(out).removesuffix(".csv"))
    Path(f"{base}.encoder.txt").write_text(enc_circ.serialize())
    Path(f"{base}.recovery.txt").write_text(rec_circ.serialize())
    Path(f"{base}.encoder.angles.txt").write_text(enc_circ.describe())
    if not (enc_res.converged and u_res.converged and report.passed):
        raise RuntimeError("synthesis failed to converge; see the CSV report")


def _run_oracle_check(spec: ExperimentSpec, out: Path) -> None:
    p = spec.params
    _require_numbers(p, ints={"theta_points": 1, "gamma_points": 1})
    # one CSV row per (theta, gamma) pair: at most 10^4, as the toy's cycles
    for name in ("theta_points", "gamma_points"):
        _require_in(p, name, lambda v: v <= 100, "at most 100")
    thetas = np.linspace(0.0, math.pi, p.get("theta_points", 10))
    gammas = np.linspace(0.0, 0.3, p.get("gamma_points", 10))
    # one batched logical round per gamma; the rows run theta outer, gamma inner
    outcomes = [code3.logical_outcomes(thetas, g, 0.0, code3.RecoveryMap.ideal(g))
                for g in gammas]
    # the closed-form round the multi-round runner and the gain model use
    rounds = [code3.PauliRound.of_noise(g, 0.0) for g in gammas]
    dev_f = dev_p_app = dev_p_main = dev_closed = 0.0
    rows = []
    for i, theta in enumerate(thetas):
        for g, rnd, (fids, probs) in zip(gammas, rounds, outcomes):
            f, prob = fids[i], probs[i]
            df = abs(f - code3.oracle_fidelity_ad(theta, g))
            dpa = abs(prob - code3.oracle_success_probability(theta, g, 0.0))
            dpm = abs(prob - code3.success_probability_minus_form(theta, g))
            dev_f, dev_p_app = max(dev_f, df), max(dev_p_app, dpa)
            dev_p_main = max(dev_p_main, dpm)
            dev_closed = max(dev_closed, *(abs(a - b) for a, b in
                                           zip(rnd.outcome(theta), (f, prob))))
            rows.append((theta, g, f, prob, df, dpa))
    _write_csv(out, ["theta", "gamma", "fidelity", "p_success",
                     "fidelity_deviation", "p_success_deviation"], rows)
    print(f"max |F_sim - F_closed_form| = {dev_f:.3e}")
    print(f"max |p_sim - p_plus_form| = {dev_p_app:.3e}")
    print(f"max |p_sim - p_minus_form| = {dev_p_main:.3e}")
    print(f"success-probability form matched: "
          f"{code3.success_form(dev_p_app, dev_p_main)}")
    print(f"max |closed-form round - 64x64 round| = {dev_closed:.3e}")
    if dev_f > 1e-10 or dev_p_app > 1e-10:
        raise RuntimeError("oracle deviation above 1e-10")
    if not dev_closed <= 1e-12:
        raise RuntimeError("closed-form round deviates from the 64x64 round "
                           "by more than 1e-12")


@dataclass(frozen=True)
class ExperimentKind:
    runner: Callable[[ExperimentSpec, Path], None]
    required: tuple[str, ...]
    figure: str
    description: str
    optional: tuple[str, ...] = ()


_NOISE_FIELDS = ("t2", "tphi")
_PROTOCOL_FIELDS = ("phi", "recovery") + _NOISE_FIELDS


CATALOG: dict[str, ExperimentKind] = {
    "multiqec": ExperimentKind(
        _run_multiqec, ("theta", "max_delay", "total_free", "t1"),
        "fig1b/fig3", "multi-round logical fidelity and success probability",
        _PROTOCOL_FIELDS),
    "multiqec-chadd": ExperimentKind(
        _run_multiqec_chadd, ("theta", "max_delay", "total_free", "t1"),
        "fig3d-f", "multi-round QEC with CHaDD-interleaved delays vs plain",
        _PROTOCOL_FIELDS + ("spectators", "couplings")),
    "delay-sweep": ExperimentKind(
        _run_delay_sweep, ("delays", "total_free", "t1"),
        "fig8", "fidelity/success curves for several maximum delays",
        ("theta", "recovery") + _NOISE_FIELDS),
    "crosstalk-toy": ExperimentKind(
        _run_crosstalk_toy, ("t1",),
        "fig4a", "two-qubit ZZ toy model, probe populations with/without CHaDD",
        ("omega1", "omega2", "g", "t_final", "cycles") + _NOISE_FIELDS),
    "gain-surface": ExperimentKind(
        _run_gain_surface, ("t1_range", "emeas_range", "delay_range"),
        "fig6", "gain over (T1, E_meas, delay) with T2 = 2 T1", ("theta",)),
    "synth": ExperimentKind(
        _run_synth, (),
        "fig2b", "synthesize encoder + recovery circuits and verify them",
        ("restarts",)),
    "oracle-check": ExperimentKind(
        _run_oracle_check, (),
        "fig1b", "closed-form oracles and the closed-form round vs the 64x64 "
        "round on a (theta, gamma) grid",
        ("theta_points", "gamma_points")),
}


def run(spec: ExperimentSpec) -> int:
    t0 = time.time()
    out = Path(spec.output)
    try:
        CATALOG[spec.kind].runner(spec, out)
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure in '{spec.kind}': {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(spec, out, t0)
    return EXIT_OK


def list_experiments(as_json: bool = False) -> str:
    if as_json:
        return json.dumps(
            {k: {"required": v.required, "optional": v.optional,
                 "figure": v.figure, "description": v.description}
             for k, v in CATALOG.items()},
            indent=2, sort_keys=True)
    lines = []
    for kind in sorted(CATALOG):
        v = CATALOG[kind]
        req = ", ".join(v.required) if v.required else "(none)"
        lines.append(f"{kind:16s} figure {v.figure:10s} required: {req}")
        lines.append(f"{'':16s} {v.description}")
    return "\n".join(lines)


def check() -> int:
    """Fast oracle/invariant sweep; exit 3 on any deviation. Its CSV and
    manifest go to a temporary directory that is removed afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        return run(ExperimentSpec(kind="oracle-check", params={},
                                  output=str(Path(tmp) / "oracle_check.csv")))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="nadqec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON spec")
    p_run.add_argument("spec", help="path to the spec JSON file")
    p_list = sub.add_parser("list", help="list experiment kinds")
    p_list.add_argument("--json", action="store_true", dest="as_json")
    sub.add_parser("check", help="run the oracle/invariant suite")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_experiments(args.as_json))
        return EXIT_OK
    if args.command == "check":
        return check()
    try:
        return run(ExperimentSpec.load(args.spec))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
