"""Noise-adapted 3-qubit probabilistic QEC: simulator and experiment harness."""

__version__ = "0.1.0"

# synth, which loads scipy.optimize, is imported where it is used
from . import circuits, code3, metrics, noise, protocol, qcore  # noqa: F401
