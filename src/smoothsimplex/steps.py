"""Smooth cut-off functions and homotopy reparametrization.

``SmoothStep(a, b)`` is the classical bump-quotient step: identically 0 on
(-inf, a], identically 1 on [b, inf), monotone and C-infinity.  The flat
ends are exact in floating point, which the staged homotopies rely on to
produce exact fixed points and exact landings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp


@dataclass(frozen=True)
class SmoothStep:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"breakpoints must satisfy a < b, got {self.a}, {self.b}")

    def __call__(self, t: float) -> float:
        return smooth_step(float(t), self.a, self.b)


def smooth_step(t: float, a: float, b: float) -> float:
    """The step formula of ``SmoothStep(a, b)`` at a float ``t``, as a plain
    function for the deformations' stage kernels."""
    if t <= a:
        return 0.0
    if t >= b:
        return 1.0
    # the bump exp(-1/u), flat zero for u <= 0, at u and at 1 - u
    u = (t - a) / (b - a)
    num = 0.0 if u <= 0.0 else exp(-1.0 / u)
    w = 1.0 - u
    return num / (num + (0.0 if w <= 0.0 else exp(-1.0 / w)))


#: reparametrization used to splice two homotopies smoothly; flat near the
#: splice so stage boundaries carry exact values
SPLICE = SmoothStep(0.1, 0.9)


def two_phase(s: float) -> tuple[float, float]:
    """Local times ``(s1, s2)`` of a two-stage composite at global time s."""
    return SPLICE(2.0 * s), SPLICE(2.0 * s - 1.0)


def phase_times(s: float, n: int) -> list[float]:
    """Local times of an n-stage composite on equal subintervals of [0, 1]."""
    return [SPLICE(n * s - k) for k in range(n)]
