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
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, code3, metrics, protocol
from .noise import LIFETIME_RULE, NoiseParams, is_lifetime, is_real
from .qcore import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(ok: Callable[[float], bool] = lambda x: True) -> Callable:
    """A check: a finite number that passes ``ok``."""
    return lambda v: is_real(v) and math.isfinite(v) and ok(v)


def _numbers(ok: Callable = lambda x: True, empty: bool = True) -> Callable:
    """A check: a list, empty only if ``empty``, of finite numbers passing ``ok``."""
    return lambda v: (isinstance(v, list) and (empty or v != [])
                      and all(map(_number(ok), v)))


def _integer(low: int, high: float = math.inf) -> Callable:
    return lambda v: _is_int(v) and low <= v <= high


def _lifetime(v) -> bool:
    return all(map(is_lifetime, v if isinstance(v, list) and v else [v]))


class Field(NamedTuple):
    rule: str  # completes "'<name>' must be ..."
    ok: Callable[[object], bool]
    default: object = None  # None: the field has no default of its own


# Each spec field's rule and default, the same in every kind that takes it;
# a rule that joins fields raises ConfigError in the library or a runner.
_LIFETIME = LIFETIME_RULE + ", or a non-empty list of them, one per qubit"
FIELDS: dict[str, Field] = {
    "seed": Field("an integer >= 0", _integer(0)),  # top-level; ExperimentSpec.seed
    "theta": Field("a number in [0, pi]",
                   _number(lambda v: 0 <= v <= math.pi), math.pi),
    "max_delay": Field("a finite number > 0", _number(lambda v: v > 0)),
    "total_free": Field("a list of finite numbers >= 0",
                        _numbers(lambda x: x >= 0)),
    "delays": Field("a list of finite numbers > 0", _numbers(lambda x: x > 0)),
    "recovery": Field("'ideal' or 'approximate'",
                      lambda v: v in ("ideal", "approximate"), "ideal"),
    "t1": Field(_LIFETIME, _lifetime),
    "t2": Field(LIFETIME_RULE, is_lifetime),
    "tphi": Field(_LIFETIME, _lifetime, math.inf),
    "spectators": Field("an integer from 0 to 4 (7 qubits in all)",
                        _integer(0, 4), 1),
    "couplings": Field("a list of [qubit, qubit, g] triples, g a finite number",
                       lambda v: isinstance(v, list) and all(
                           isinstance(c, list) and len(c) == 3 and _number()(c[2])
                           and all(map(_is_int, c[:2])) for c in v)),
    "omega1": Field("a finite number", _number(), 0.3),
    "omega2": Field("a finite number", _number(), 0.2),
    "g": Field("a finite number", _number(), 0.05),
    "t_final": Field("a finite number > 0", _number(lambda v: v > 0), 60.0),
    # one CSV row per cycle for each probe, so the count is capped
    "cycles": Field("an integer from 1 to 10000", _integer(1, 10**4), 4),
    "t1_range": Field("a non-empty list of finite numbers > 0",
                      _numbers(lambda x: x > 0, empty=False)),
    "emeas_range": Field("a non-empty list of numbers in [0, 0.5]",
                         _numbers(lambda x: 0 <= x <= 0.5, empty=False)),
    "delay_range": Field("a non-empty list of finite numbers >= 0",
                         _numbers(lambda x: x >= 0, empty=False)),
    # a depth level that does not converge runs every start, and a search
    # may try six levels; a failed start takes about 14 to 24 ms, up to
    # 85 ms (200 seeded starts per level on a 2-vCPU Xeon VM, Python 3.11)
    "restarts": Field("an integer from 1 to 1000", _integer(1, 1000), 20),
    # one oracle-check CSV row per (theta, gamma) pair: at most 10^4
    "theta_points": Field("an integer from 1 to 100", _integer(1, 100), 10),
    "gamma_points": Field("an integer from 1 to 100", _integer(1, 100), 10),
}
_DEFAULTS = {name: f.default for name, f in FIELDS.items() if f.default is not None}
_TOP_LEVEL = ("kind", "output", "seed", "params")


@dataclass(frozen=True)
class ExperimentSpec:
    """One run: ``params`` as given, which the manifest echoes, and
    ``resolved``, them over the defaults in ``FIELDS``, which runners read.
    Construction checks each field; a ConfigError names the first bad one."""

    kind: str
    params: Mapping
    output: str
    seed: int = 0
    resolved: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, params = self.kind, self.params
        if not (isinstance(kind, str) and kind in CATALOG):
            raise ConfigError(
                f"unknown kind {kind!r}; known: {', '.join(sorted(CATALOG))}")
        if not isinstance(params, dict):
            raise ConfigError(f"'params' must be a JSON object, got {params!r}")
        entry = CATALOG[kind]
        missing = [f for f in entry.required if f not in params]
        if missing:
            raise ConfigError(
                f"kind '{kind}' missing parameter field(s): " + ", ".join(missing))
        unknown = sorted(set(params) - set(entry.required) - set(entry.optional))
        if unknown:
            raise ConfigError(
                f"kind '{kind}' has no parameter field(s): " + ", ".join(unknown))
        _require_output(kind, self.output)
        for name, v in (("seed", self.seed), *params.items()):
            if not FIELDS[name].ok(v):
                raise ConfigError(f"'{name}' must be {FIELDS[name].rule}, got {v!r}")
        object.__setattr__(self, "resolved", {**_DEFAULTS, **params})

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        """The spec in the JSON file ``path``; a file that cannot be read
        or a spec that is malformed is a ConfigError naming ``path``."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"{path}: spec file not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})")
        except RecursionError:
            raise ConfigError(f"{path}: invalid JSON (nested too deeply)")
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the spec file ({exc.strerror})")
        try:
            if not isinstance(raw, dict):
                raise ConfigError(f"a spec must be a JSON object, got {raw!r}")
            for req in ("kind", "output"):
                if req not in raw:
                    raise ConfigError(f"missing required field '{req}'")
            unknown = sorted(set(raw) - set(_TOP_LEVEL))
            if unknown:
                raise ConfigError("a spec has no top-level field(s) " + ", ".join(
                    map(repr, unknown)) + "; it holds " + ", ".join(_TOP_LEVEL))
            return cls(**{"params": {}, **raw})
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _written(kind: str, output: str) -> list[Path]:
    """Every file a run of ``kind`` writes: the CSV ``output``, its
    manifest, and for ``synth`` its circuit files beside it."""
    csv = Path(output)
    base = str(csv).removesuffix(".csv")
    ends = (".encoder.txt", ".recovery.txt", ".encoder.angles.txt")
    return [csv, Path(f"{csv}.manifest.json")] + [
        Path(base + end) for end in (ends if kind == "synth" else ())]


def _require_output(kind: str, output) -> None:
    """``output`` is a path a CSV can be written to: a non-empty string
    that names a file (no NUL byte, encodable as a file name), not a
    directory, with no existing file among its parent directories; and no
    file a run of ``kind`` writes (``_written``) has a name longer than the
    file system takes or is an existing directory."""
    if not (isinstance(output, str) and output):
        raise ConfigError(f"'output' must be a file path, got {output!r}")
    if "\0" in output:
        raise ConfigError(f"'output' {output!r} holds a NUL byte")
    out, *beside = _written(kind, output)
    try:
        os.fsencode(output)  # a lone surrogate names no file
        is_dir = out.is_dir()
        ancestor = next((d for d in out.parents if d.exists()), Path("."))
        name_max = os.pathconf(ancestor, "PC_NAME_MAX")
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"'output' {output!r} is not a usable file path ({exc})")
    if is_dir:
        raise ConfigError(f"'output' {output!r} is a directory")
    if not ancestor.is_dir():
        raise ConfigError(f"'output' {output!r} lies under {str(ancestor)!r}, "
                          f"which is not a directory")
    for path in (out, *beside):
        if any(len(os.fsencode(part)) > name_max for part in path.parts):
            raise ConfigError(f"'output' {output!r} makes a name in {str(path)!r} "
                              f"longer than the file system's {name_max} bytes")
        if path.is_dir():
            raise ConfigError(f"'output' {output!r} makes the file {str(path)!r}, "
                              f"which is a directory")


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


RNG_KIND = "PCG64"  # numpy default_rng, which synth seeds from the spec seed


def _write_manifest(spec: ExperimentSpec, out_csv: Path, t0: float) -> None:
    manifest = {
        "kind": spec.kind,
        "params": dict(spec.params),
        "seed": spec.seed,
        "output": str(out_csv),
        "rng": RNG_KIND,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
    }
    _written(spec.kind, spec.output)[1].write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _noise_from(spec: ExperimentSpec) -> NoiseParams:
    """Noise from ``t1`` with ``t2`` or ``tphi``, not both."""
    r = spec.resolved
    if "t2" in r and "tphi" in spec.params:
        raise ConfigError("'t2' and 'tphi' both set the dephasing; give one of them")
    return (NoiseParams.from_t1_t2(r["t1"], r["t2"]) if "t2" in r
            else NoiseParams(t1=r["t1"], tphi=r["tphi"]))


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------


_POINT_HEADER = ["total_evolution_us", "fidelity", "success_probability",
                 "rounds", "variant", "chadd"]


def _point_rows(pts, variant: str, chadd: bool) -> list[tuple]:
    return [(x.total_evolution_us, x.fidelity, x.success_probability,
             x.rounds, variant, chadd) for x in pts]


def _noise_and_recovery(spec: ExperimentSpec, n_qubits: int = 3) -> tuple:
    """The spec's noise and the T1 its recovery adapts to, once per spec."""
    noise = _noise_from(spec)
    return noise, protocol.recovery_t1(spec.resolved["recovery"],
                                       noise.lifetimes(n_qubits)[0])


def _run_multiqec(spec: ExperimentSpec, out: Path) -> None:
    r = spec.resolved
    noise, t1_r = _noise_and_recovery(spec)
    pts = protocol.run_multiqec(r["theta"], r["max_delay"], r["total_free"],
                                noise, t1_r)
    _write_csv(out, _POINT_HEADER, _point_rows(pts, r["recovery"], False))


def _run_multiqec_chadd(spec: ExperimentSpec, out: Path) -> None:
    r = spec.resolved
    # the default coupling names the first spectator, so it needs one
    couplings = r.get("couplings", [[0, 3, 0.05]] if r["spectators"] else [])
    noise, t1_r = _noise_and_recovery(spec, 3 + r["spectators"])
    plain, chadd = protocol.run_multiqec_with_chadd(
        r["theta"], r["max_delay"], r["total_free"], noise, t1_r, r["spectators"],
        couplings)
    _write_csv(out, _POINT_HEADER, _point_rows(plain, r["recovery"], False)
               + _point_rows(chadd, r["recovery"], True))


def _run_delay_sweep(spec: ExperimentSpec, out: Path) -> None:
    r = spec.resolved
    noise, t1_r = _noise_and_recovery(spec)
    rows = []
    for max_delay in r["delays"]:
        pts = protocol.run_multiqec(r["theta"], max_delay, r["total_free"],
                                    noise, t1_r)
        rows += [(max_delay, total, x.total_evolution_us, x.fidelity,
                  x.success_probability, x.rounds)
                 for total, x in zip(r["total_free"], pts, strict=True)]
    _write_csv(out,
               ["max_delay_us", "total_free_us", "total_evolution_us",
                "fidelity", "success_probability", "rounds"], rows)


def _run_crosstalk_toy(spec: ExperimentSpec, out: Path) -> None:
    r = spec.resolved
    probes = ("0", "1")
    pairs = protocol.run_crosstalk_toy(_noise_from(spec), r["g"],
                                       (r["omega1"], r["omega2"]), r["t_final"],
                                       r["cycles"], probes)
    rows = []
    for probe, pair in zip(probes, pairs):
        for label, series in zip(("free", "chadd"), pair):
            for t, p0, p1, f in zip(series.times, series.pop0, series.pop1,
                                    series.fidelity):
                rows.append((probe, label, t, p0, p1, f))
    _write_csv(out, ["probe", "sequence", "time_us", "pop0", "pop1", "fidelity"],
               rows)


def _run_gain_surface(spec: ExperimentSpec, out: Path) -> None:
    r = spec.resolved
    cells = metrics.gain_surface(r["t1_range"], r["emeas_range"],
                                 r["delay_range"], theta=r["theta"])
    rows = [(c.t1_us, c.e_meas, c.delay_us, c.gain, c.f_qec, c.f_bare,
             c.p_success, spec.seed) for c in cells]
    _write_csv(out, ["T1_us", "E_meas", "delay_us", "gain", "F_qec", "F_bare",
                     "p_success", "seed"], rows)


def _run_synth(spec: ExperimentSpec, out: Path) -> None:
    from . import synth  # loads scipy.optimize, which no other kind needs

    restarts = spec.resolved["restarts"]
    seed = spec.seed
    enc_circ, enc_res = synth.synthesize_encoder(seed=seed, restarts=restarts)
    u_circ, u_res = synth.synthesize_recovery_u(seed=seed + 1, restarts=restarts)
    rec_circ = synth.build_recovery_circuit(u_circ)
    report = synth.verify_recovery_circuit(rec_circ, code3.RecoveryMap.ideal(0.0))
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
    encoder, recovery, angles = _written(spec.kind, spec.output)[2:]
    encoder.write_text(enc_circ.serialize())
    recovery.write_text(rec_circ.serialize())
    angles.write_text(enc_circ.describe())
    if not (enc_res.converged and u_res.converged and report.passed):
        raise RuntimeError("synthesis failed to converge; see the CSV report")


def _run_oracle_check(spec: ExperimentSpec, out: Path) -> None:
    thetas = np.linspace(0.0, math.pi, spec.resolved["theta_points"])
    gammas = np.linspace(0.0, 0.3, spec.resolved["gamma_points"])
    # one batched logical round per gamma; the rows run theta outer, gamma inner
    outcomes = [code3.logical_outcomes(thetas, g, 0.0, code3.RecoveryMap.ideal(g))
                for g in gammas]
    # the closed-form round the multi-round runner and the gain model use
    rounds = [code3.PauliRound.of_noise(g, 0.0, g) for g in gammas]
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
_PROTOCOL_FIELDS = ("recovery",) + _NOISE_FIELDS


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
    except ConfigError:
        raise
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure in '{spec.kind}': {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(spec, out, t0)
    return EXIT_OK


def list_experiments(as_json: bool = False) -> str:
    if as_json:
        return json.dumps(
            {k: {"required": v.required, "optional": v.optional,
                 "figure": v.figure, "description": v.description,
                 "rules": {f: FIELDS[f].rule
                           for f in ("seed", *v.required, *v.optional)}}
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
    where = ""  # the errors of load name the spec file themselves
    try:
        spec = ExperimentSpec.load(args.spec)
        where = f"{args.spec}: "
        return run(spec)
    except ConfigError as exc:
        print(f"config error: {where}{exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
