"""Noise-adapted 3-qubit probabilistic QEC: simulator and experiment harness."""

__version__ = "0.1.0"

from . import circuits, code3, metrics, noise, protocol, qcore, synth  # noqa: F401
