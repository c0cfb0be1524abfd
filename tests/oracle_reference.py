"""Closed-form oracles that only the tests compare against.

``oracle_fidelity_multiround`` and ``oracle_success_multiround`` are the
post-selected fidelity and success probability after rounds of pure
damping, each followed by the recovery adapted to that round's gamma; one
round of the former is ``nadqec.code3.oracle_fidelity_ad``, which the
``oracle-check`` kind reads. ``oracle_fidelity_series`` is the truncated
small-(gamma, p) expansion for either recovery, ``oracle_fidelity_series_time``
the same re-parameterized in (t, T1, T2), and
``oracle_fidelity_series_printed`` the paper's printed expansion, which a
test keeps pinned as misprinted.
"""

import math
from typing import Sequence


def oracle_fidelity_multiround(theta: float, gammas: Sequence[float]) -> float:
    """Post-selected fidelity after rounds of pure damping gammas[i], each
    followed by the recovery adapted to that round's gamma:
    (1 + G s^2 c^2) / (1 + G s^2) with G = sum_i gammas[i]^2. No rounds
    gives 1."""
    big_g = sum(g * g for g in gammas)
    s2 = math.sin(theta / 2) ** 2
    c2 = math.cos(theta / 2) ** 2
    return (1 + big_g * s2 * c2) / (1 + big_g * s2)


def oracle_success_multiround(theta: float, gammas: Sequence[float]) -> float:
    """Success probability after rounds of pure damping gammas[i], each
    with the recovery adapted to its gamma: prod_i (1 - gammas[i])^2
    (1 + G s^2), G = sum_i gammas[i]^2, s = sin(theta/2)."""
    big_g = sum(g * g for g in gammas)
    return math.prod((1 - g) ** 2 for g in gammas) \
        * (1 + big_g * math.sin(theta / 2) ** 2)


# Both tables are the second-order Taylor coefficients, in a common scale of
# (gamma, p), of the post-selected fidelity of the cycle qec_cycle runs:
# damping gamma then dephasing p on each qubit, the parity split, the
# variant's recovery operators, and post-selection. They were derived
# symbolically (sympy) from that cycle; neither variant has a term linear
# in gamma. The ideal gamma^2 term is also the expansion of
# oracle_fidelity_ad: with s = sin(theta/2), c = cos(theta/2),
# (1 + g^2 s^2 c^2) / (1 + g^2 s^2) = 1 - g^2 s^4 + O(g^4).
_SERIES_COEFFS = {
    # variant -> (p, p^2, p*g, g^2) coefficient functions of theta
    "ideal": (
        lambda th: -(4.0 / 3.0) * math.sin(th) ** 2,
        lambda th: -(4.0 / 9.0) * math.sin(th) ** 2 * (4 * math.cos(th) + 1),
        lambda th: -(2.0 / 3.0) * math.sin(th) ** 2,
        lambda th: -math.sin(th / 2) ** 4,
    ),
    "approximate": (
        lambda th: -(4.0 / 3.0) * math.sin(th) ** 2,
        lambda th: -(4.0 / 9.0) * math.sin(th) ** 2 * (4 * math.cos(th) + 1),
        lambda th: (4.0 / 3.0) * math.cos(th) * math.sin(th) ** 2,
        lambda th: 0.5 * (math.cos(th) - 1),
    ),
}


def _series(variant: str) -> tuple:
    """``variant``'s (p, p^2, p*g, g^2) coefficient functions of theta."""
    if variant not in _SERIES_COEFFS:
        raise ValueError(f"variant must be 'ideal' or 'approximate', got {variant!r}")
    return _SERIES_COEFFS[variant]


def _evaluate_series(coeffs, theta: float, gamma: float, p: float) -> float:
    cp, cpp, cpg, cgg = coeffs
    return 1.0 + cp(theta) * p + cpp(theta) * p**2 + cpg(theta) * p * gamma \
        + cgg(theta) * gamma**2


def oracle_fidelity_series(theta: float, gamma: float, p: float,
                           variant: str = "ideal") -> float:
    """Truncated small-(gamma, p) fidelity expansion for either recovery.

    Valid in the small-noise regime only; the caller owns regime validity.
    """
    return _evaluate_series(_series(variant), theta, gamma, p)


# The paper's printed expansion for the gamma-adapted recovery: the p and
# p^2 terms are right, the p*gamma and gamma^2 terms are misprinted.
_PRINTED_IDEAL_COEFFS = _SERIES_COEFFS["ideal"][:2] + (
    lambda th: (1.0 / 3.0) * (2 * math.cos(th) - 1) * math.sin(th) ** 2,
    lambda th: (1.0 / 8.0) * (3 * math.cos(th) - 5) * math.sin(th / 2) ** 2,
)


def oracle_fidelity_series_printed(theta: float, gamma: float, p: float) -> float:
    """The paper's printed small-(gamma, p) expansion for the adapted recovery.

    Its p*gamma coefficient (1/3)(2 cos(theta) - 1) sin^2(theta) and its
    gamma^2 coefficient (1/8)(3 cos(theta) - 5) sin^2(theta/2) are
    misprinted; the exact ones, used by oracle_fidelity_series, are
    -(2/3) sin^2(theta) and -sin^4(theta/2). The two agree only at
    theta in {0, pi}. Kept so that the misprint stays pinned by a test.
    """
    return _evaluate_series(_PRINTED_IDEAL_COEFFS, theta, gamma, p)


def oracle_fidelity_series_time(theta: float, t: float, t1: float, t2: float,
                                variant: str = "ideal") -> float:
    """The same expansions re-parameterized in (t, T1, T2).

    Substitutes gamma = 1 - exp(-t/T1) = t/T1 + O(t^2) and
    p = (1 - exp(-r t))/2 = r t/2 - r^2 t^2/4 + O(t^3), with
    r = 1/Tphi = 1/T2 - 1/(2 T1), and keeps the terms through t^2; no
    term is linear in gamma, so its t^2 part drops out.
    """
    cp, cpp, cpg, cgg = (c(theta) for c in _series(variant))
    r = 1 / t2 - 1 / (2 * t1)
    p1, p2, g1 = r / 2, -r * r / 4, 1 / t1
    quad = cp * p2 + cpp * p1**2 + cpg * p1 * g1 + cgg * g1**2
    return 1.0 + cp * p1 * t + quad * t**2
