"""Host-speed sampling for the benchmark's timed passes.

The reference host is a shared 2-vCPU VM. For stretches of tens of seconds
to minutes the same work runs up to 40 % slower on the vCPU a pass runs on,
while the other vCPU may not slow at all, so only a measurement taken on the
pass's own CPU, during the pass, can tell the program's cost from the host's
state. A ``Sampler`` therefore interrupts the pass every ``INTERVAL_S``
seconds (SIGALRM, handled between bytecodes on the main thread) and times a
short fixed kernel; the kernel's time is taken out of the unit it
interrupted. The benchmark scales each pass's times by the kernel's
reference time over the median sampled time, so they read as on the
reference host at its reference speed.

There are two kernels because the slowdown depends on the kind of work:
``small`` does what the interpreter-bound paths do (Kronecker lifts with
index permutations, small complex products, eigensolves, einsum, small
Python objects); ``mixed`` adds 64 x 64 complex products, as the RK4
Lindblad integrator on the spectator registers does next to its small
2-qubit and 4-qubit runs. Both belong to the benchmark, so no change to the
program can move them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.25

_rng = np.random.default_rng(0)
_MATS = {}
for _n in (3, 5, 6):
    _a = _rng.standard_normal((2**_n, 2**_n)) + 1j * _rng.standard_normal((2**_n, 2**_n))
    _rho = _a @ _a.conj().T
    _MATS[_n] = (_rho / np.trace(_rho), np.roll(np.arange(2**_n), 2 ** (_n - 1)))
_K0 = np.array([[1.0, 0.0], [0.0, 0.9]], dtype=complex)
_K1 = np.array([[0.0, 0.3], [0.0, 0.0]], dtype=complex)
_U1 = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)
_H6 = np.diag(np.linspace(-0.1, 0.1, 64)).astype(complex)


def _small(reps: int) -> float:
    total = 0.0
    for _ in range(reps):
        for n, (rho, perm) in _MATS.items():
            out = np.zeros_like(rho)
            for k in (_K0, _K1):
                full = np.kron(k, np.eye(2 ** (n - 1), dtype=complex))[np.ix_(perm, perm)]
                out = out + full @ rho @ full.conj().T
            total += float(np.linalg.eigvalsh(out)[0])
        rho3 = _MATS[3][0]
        t = np.einsum("ab,ibj->iaj", _U1, rho3.reshape(2, 2, -1)).reshape(8, 8)
        total += float(np.abs(t).sum())
        total += len([{"k": i, "v": (i, float(i))} for i in range(200)])
    return total


def _products(reps: int) -> float:
    rho6 = _MATS[6][0]
    r = rho6
    for _ in range(reps):
        r = _H6 @ r - r @ _H6 + 0.5 * (r @ rho6)
        r = r / np.abs(r).max()
    return float(np.abs(r).sum())


def _mixed(reps: int) -> float:
    return _small(reps) + _products(5 * reps)


# kernel, repetitions per sample, and the median sample time on the
# reference host in a quiet stretch (2-vCPU Intel Xeon at 2.1 GHz, Python
# 3.11.7, numpy 2.4.6 with OpenBLAS at one thread)
KERNELS = {
    "small": (_small, 12, 0.0125),
    "mixed": (_mixed, 6, 0.0102),
}
PASS_KERNEL = {"sweep": "small", "estimator": "small", "spectator": "mixed",
               "synth": "small"}
SETUP_KERNEL = "small"  # imports are interpreter-bound
SETUP_SAMPLES = 3


def sample(kind: str) -> float:
    """Seconds one sample of the ``kind`` kernel takes now."""
    kernel, reps, _ = KERNELS[kind]
    t0 = time.perf_counter()
    kernel(reps)
    return time.perf_counter() - t0


def warm_samples(kind: str, n: int) -> list[float]:
    """``n`` samples, after one untimed call that loads what the kernel
    needs."""
    KERNELS[kind][0](1)
    return [sample(kind) for _ in range(n)]


def speed(kind: str, samples: list[float]) -> float:
    """Factor that scales times measured alongside ``samples`` to the
    reference host's speed."""
    return KERNELS[kind][2] / float(np.median(samples))


class Sampler:
    """Samples a kernel every INTERVAL_S seconds until stopped; ``spent``
    is the total time the samples took."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self.spent = 0.0
        KERNELS[kind][0](1)  # load what the kernel needs before timing it

    def _on_alarm(self, signum, frame) -> None:
        dt = sample(self.kind)
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
