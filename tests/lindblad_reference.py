"""Fixed-step RK4 Lindblad integrator on the density matrix.

An independent reference for the exact propagator in ``nadqec.protocol``:
it works on rho directly, with no vectorisation convention to get wrong,
and its truncation error falls as the step count grows.
"""

from typing import Sequence

import numpy as np


def lindblad_rhs(h: np.ndarray, rho: np.ndarray,
                 collapse: Sequence[np.ndarray]) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for c in collapse:
        cd = c.conj().T
        cdc = cd @ c
        out += c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def rk4_step(h: np.ndarray, rho: np.ndarray, dt: float,
             collapse: Sequence[np.ndarray]) -> np.ndarray:
    k1 = lindblad_rhs(h, rho, collapse)
    k2 = lindblad_rhs(h, rho + 0.5 * dt * k1, collapse)
    k3 = lindblad_rhs(h, rho + 0.5 * dt * k2, collapse)
    k4 = lindblad_rhs(h, rho + dt * k3, collapse)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def evolve_lindblad(h: np.ndarray, rho: np.ndarray, duration: float,
                    collapse: Sequence[np.ndarray], steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("need at least one step")
    dt = duration / steps
    for _ in range(steps):
        rho = rk4_step(h, rho, dt, collapse)
    return 0.5 * (rho + rho.conj().T)
