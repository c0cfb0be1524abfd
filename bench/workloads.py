"""Workload definitions for the nadqec benchmark: seeded input generation
and the correctness checks applied to each unit's output.

Every workload draws its inputs from ``--seed`` and hands the program only
the generated specs (or estimator tuples). Where a check compares against
the seed commit's outputs, the inputs are drawn from fixed pools whose
outputs ``make_reference.py`` recorded in ``reference.json``; the seed picks
which pool members a pass runs.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("sweep", "estimator", "spectator", "synth")
SIZES = ("full", "smoke")

# Sweep: the 3-qubit analytic path (figs. 3, 6 and 8). Total free time runs
# to 600 us in 30 us steps, so schedules share full-round prefixes.
TOTAL_FREE = [30.0 * k for k in range(1, 21)]
SWEEP_THETAS = [k * math.pi / 8 for k in range(1, 9)]
SWEEP_DELAYS = [30.0, 60.0, 120.0]
SWEEP_T1 = 220.0
# The ideal variant runs with T2 = 2 T1 (no pure dephasing), so its
# single-round points sit exactly on code3.oracle_fidelity_ad.
SWEEP_VARIANTS = (("ideal", 440.0), ("approximate", 300.0))
GAIN_THETAS = [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]

# Spectator: CHaDD on 4-, 5- and 6-qubit data + spectator registers.
SPECTATOR_THETAS = [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
SPECTATOR_COUPLINGS = ([0, 3, 0.05], [2, 4, 0.04], [1, 5, 0.03])
CROSSTALK_T1S = [50.0, 100.0, 200.0]

# Synth: the repository's AC6 recovery-factor seed is 11, and the synth kind
# uses spec seed + 1 for that factor. Two restarts keep the pass near 20 s
# while the 3-layer level still exhausts them and fails before 4 layers
# converge. The optimizer's work depends strongly on the seed (17 to 30 s
# over seeds 0-5 at four restarts), so this workload keeps one fixed spec.
SYNTH_SPEC = {"kind": "synth", "seed": 10, "params": {"restarts": 2}}
# Smallest synth spec that still fails one 3-layer start before 4 layers
# converge on the first start.
SYNTH_SMOKE_SPEC = {"kind": "synth", "seed": 2, "params": {"restarts": 1}}

ESTIMATOR_TUPLES = {"full": 300, "smoke": 10}

TOL_SWEEP = 1e-10
TOL_SPECTATOR = 1e-9
TOL_ORACLE = 1e-10
TOL_SYNTH = 1e-6


@dataclass(frozen=True)
class Unit:
    """One timed operation: a CLI spec or one estimator tuple."""

    name: str
    spec: Optional[dict] = None  # {"kind", "seed", "params"} for cli.run
    estimate: Optional[tuple] = None  # (theta, phi, gamma, p)

    @property
    def output(self) -> str:
        return f"out/{self.name}.csv"


@dataclass
class Workload:
    name: str
    units: list = field(default_factory=list)
    tolerance: float = 0.0


def _spec(kind: str, params: dict, seed: int = 0) -> dict:
    return {"kind": kind, "seed": seed, "params": params}


def delay_sweep_spec(theta: float, variant: str, t2: float) -> dict:
    return _spec("delay-sweep", {
        "delays": SWEEP_DELAYS, "total_free": TOTAL_FREE, "t1": SWEEP_T1,
        "t2": t2, "theta": theta, "recovery": variant})


def multiqec_spec(theta: float) -> dict:
    return _spec("multiqec", {
        "theta": theta, "max_delay": 30.0, "total_free": TOTAL_FREE,
        "t1": SWEEP_T1, "t2": 300.0})


def gain_surface_spec(theta: float) -> dict:
    # delay / T1 ratios repeat across the grid, and every E_meas row
    # re-evaluates the same gamma values
    return _spec("gain-surface", {
        "t1_range": [50.0, 100.0, 200.0], "emeas_range": [0.01, 0.02, 0.05],
        "delay_range": [5.0, 10.0, 20.0, 40.0, 80.0], "theta": theta})


def chadd_spec(spectators: int, theta: float) -> dict:
    return _spec("multiqec-chadd", {
        "theta": theta, "max_delay": 30.0, "total_free": [30.0], "t1": 220.0,
        "t2": 300.0, "spectators": spectators,
        "couplings": [list(c) for c in SPECTATOR_COUPLINGS[:spectators]]})


def crosstalk_spec(t1: float) -> dict:
    return _spec("crosstalk-toy", {"t1": t1, "t_final": 60.0, "cycles": 2})


def reference_pool() -> dict[str, list[dict]]:
    """Every spec a seeded sweep or spectator workload can contain."""
    return {
        "sweep": [delay_sweep_spec(th, v, t2) for th in SWEEP_THETAS
                  for v, t2 in SWEEP_VARIANTS]
        + [multiqec_spec(th) for th in SWEEP_THETAS]
        + [gain_surface_spec(th) for th in GAIN_THETAS],
        "spectator": [chadd_spec(s, th) for s in (1, 2, 3)
                      for th in SPECTATOR_THETAS]
        + [crosstalk_spec(t1) for t1 in CROSSTALK_T1S],
    }


def spec_key(spec: dict) -> str:
    return json.dumps({"kind": spec["kind"], "params": spec["params"]},
                      sort_keys=True, separators=(",", ":"))


def generate(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = np.random.default_rng(seed)
    smoke = size == "smoke"
    units: list[Unit] = []

    def add(spec: dict) -> None:
        units.append(Unit(f"{len(units):03d}-{spec['kind']}", spec=spec))

    if name == "sweep":
        picks = rng.choice(len(SWEEP_THETAS), 1 if smoke else 2, replace=False)
        for i in picks:
            for variant, t2 in SWEEP_VARIANTS:
                add(delay_sweep_spec(SWEEP_THETAS[i], variant, t2))
        add(multiqec_spec(SWEEP_THETAS[rng.integers(len(SWEEP_THETAS))]))
        add(gain_surface_spec(GAIN_THETAS[rng.integers(len(GAIN_THETAS))]))
        return Workload(name, units, TOL_SWEEP)
    if name == "estimator":
        for k in range(ESTIMATOR_TUPLES[size]):
            tup = (float(rng.uniform(0.0, math.pi)),
                   float(rng.uniform(0.0, 2 * math.pi)),
                   float(rng.uniform(0.001, 0.3)),
                   float(rng.uniform(0.001, 0.2)))
            units.append(Unit(f"{k:03d}-estimate", estimate=tup))
        add(_spec("oracle-check", {}))
        return Workload(name, units, TOL_ORACLE)
    if name == "spectator":
        for s in (1,) if smoke else (1, 2, 3):
            add(chadd_spec(s, SPECTATOR_THETAS[rng.integers(len(SPECTATOR_THETAS))]))
        if not smoke:
            add(crosstalk_spec(CROSSTALK_T1S[rng.integers(len(CROSSTALK_T1S))]))
        return Workload(name, units, TOL_SPECTATOR)
    add(copy.deepcopy(SYNTH_SMOKE_SPEC if smoke else SYNTH_SPEC))
    return Workload(name, units, TOL_SYNTH)


# ---------------------------------------------------------------------------
# Correctness checks (run in the benchmark process, outside timed passes)
# ---------------------------------------------------------------------------


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text())["outputs"]


def _half_ulp10(x: float) -> float:
    """Half a unit in the 10th significant digit: the CSV's print rounding."""
    if x == 0 or not math.isfinite(x):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 9)


def close(got: float, want: float, tol: float) -> bool:
    """|got - want| <= tol, plus the rounding of both printed values."""
    if got == want:
        return True
    return abs(got - want) <= tol + _half_ulp10(got) + _half_ulp10(want)


def _parse_csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().split("\n")]


def _number(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(got: str, ref: str, tol: float) -> Optional[str]:
    """None if ``got`` matches ``ref`` cell by cell within ``tol``."""
    g, r = _parse_csv(got), _parse_csv(ref)
    if g[0] != r[0]:
        return f"header {g[0]} != reference {r[0]}"
    if len(g) != len(r):
        return f"{len(g) - 1} rows, reference has {len(r) - 1}"
    for i, (grow, rrow) in enumerate(zip(g[1:], r[1:]), start=1):
        for col, a, b in zip(g[0], grow, rrow):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    return f"row {i} {col}: {a!r} != reference {b!r}"
            elif not close(x, y, tol):
                return f"row {i} {col}: {a} vs reference {b} (tol {tol:g})"
    return None


def _rows(text: str) -> list[dict]:
    table = _parse_csv(text)
    return [dict(zip(table[0], row)) for row in table[1:]]


def _check_single_round_oracle(spec: dict, text: str) -> Optional[str]:
    from nadqec import code3
    from nadqec.noise import gamma_of_t

    p = spec["params"]
    for row in _rows(text):
        if int(row["rounds"]) != 1:
            continue
        g = gamma_of_t(float(row["total_free_us"]), p["t1"])
        f_want = code3.oracle_fidelity_ad(p["theta"], g)
        s_want = code3.oracle_success_probability(p["theta"], g, 0.0)
        if not close(float(row["fidelity"]), f_want, TOL_ORACLE):
            return f"single-round fidelity {row['fidelity']} vs oracle {f_want!r}"
        if not close(float(row["success_probability"]), s_want, TOL_ORACLE):
            return (f"single-round success {row['success_probability']} "
                    f"vs oracle {s_want!r}")
    return None


def _check_synth(text: str) -> Optional[str]:
    rows = {r["component"]: r for r in _rows(text)}
    for comp in ("encoder", "recovery_u", "recovery_full", "d_block_approx"):
        if comp not in rows:
            return f"missing component {comp}"
        val = float(rows[comp]["cost_or_deviation"])
        if not val < TOL_SYNTH:
            return f"{comp} cost/deviation {val:.3e} not below {TOL_SYNTH:g}"
    cz = int(rows["d_block_approx"]["cz_count"])
    if cz != 5:
        return f"D block uses {cz} CZ gates, expected 5"
    return None


class Checker:
    """Checks one workload's unit outputs; references are loaded lazily and
    estimator references are computed once per tuple."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._reference: Optional[dict] = None
        self._oracle: dict = {}

    def _ref(self, spec: dict) -> str:
        if self._reference is None:
            self._reference = load_reference()
        key = spec_key(spec)
        if key not in self._reference:
            raise KeyError(f"no reference output for spec {key}")
        return self._reference[key]

    def check_spec(self, unit: Unit, rc: int, csv_text: Optional[str]) -> Optional[str]:
        if rc != 0:
            return f"cli.run returned {rc}"
        if csv_text is None:
            return "no CSV written"
        kind = unit.spec["kind"]
        if kind == "oracle-check":
            return None  # the kind checks itself and exits 3 on deviation
        if kind == "synth":
            return _check_synth(csv_text)
        err = compare_csv(csv_text, self._ref(unit.spec), self.workload.tolerance)
        if err is None and kind == "delay-sweep" \
                and unit.spec["params"]["recovery"] == "ideal":
            err = _check_single_round_oracle(unit.spec, csv_text)
        return err

    def check_estimate(self, unit: Unit, output: list) -> Optional[str]:
        """AC5: the all-zero estimate and the success weight of the measured
        circuit equal qec_cycle's fidelity and success probability."""
        from nadqec import code3

        if unit.estimate not in self._oracle:
            theta, phi, g, p = unit.estimate
            spec = code3.LogicalStateSpec(theta, phi)
            self._oracle[unit.estimate] = code3.qec_cycle(
                code3.encode_ideal(spec), g, p, code3.RecoveryMap.ideal(g))
        ref = self._oracle[unit.estimate]
        f_hat, success = output[0], output[1]
        if abs(f_hat - ref.fidelity) > TOL_ORACLE:
            return f"estimate {f_hat!r} vs qec_cycle fidelity {ref.fidelity!r}"
        if abs(success - ref.success_probability) > TOL_ORACLE:
            return (f"success {success!r} vs qec_cycle success probability "
                    f"{ref.success_probability!r}")
        return None
