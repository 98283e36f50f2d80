"""Named test functions with closed-form derivatives.

Every preset carries its value, analytic derivatives up to order four,
a smoothness grade (math.inf for C-infinity functions) and, for pure
monomials t^p, the exponent so fractional-derivative oracles can be
formed.  Value callables are numpy expressions, so they accept floats
and ndarrays alike.  A monomial's value t^p is the left-to-right product
((t*t)*t)..., each step rounded once: the same bits on every numpy
build, where ``t ** 3`` is a SIMD pow on some builds and libm's on
others, and several times the cost of two multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["FunctionPreset", "function_preset", "preset_names"]

MAX_DERIVATIVE_ORDER = 4


@dataclass(frozen=True)
class FunctionPreset:
    name: str
    dim: int
    smoothness: float
    value_fn: Callable = field(repr=False)
    deriv_fn: Callable = field(repr=False)
    power: float | None = None

    def value(self, *coords):
        """f evaluated at one point (or vectorized over ndarray coordinates)."""
        if len(coords) != self.dim:
            raise ValueError(f"{self.name} takes {self.dim} coordinate(s), got {len(coords)}")
        return self.value_fn(*coords)

    def derivative(self, alpha, *coords):
        """Partial derivative D^alpha f; alpha is a length-dim tuple of orders.

        The zero multi-index returns the value itself.  Total orders
        above four are rejected rather than silently extrapolated; the
        smoothness grade is not checked here, so abs25's orders three and
        four are its formulas away from the kink (``operators.check_m_max``
        keeps a correction order at or below the grade).
        """
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise ValueError(f"{self.name} needs a length-{self.dim} multi-index, got {alpha}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"derivative orders must be non-negative, got {alpha}")
        if sum(alpha) > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"analytic derivatives stop at order {MAX_DERIVATIVE_ORDER}")
        if len(coords) != self.dim:
            raise ValueError(f"{self.name} takes {self.dim} coordinate(s), got {len(coords)}")
        if sum(alpha) == 0:
            return self.value_fn(*coords)
        return self.deriv_fn(alpha, *coords)


def _sin_deriv(alpha, t):
    return np.sin(np.asarray(t, dtype=float) + alpha[0] * (math.pi / 2.0))


def _exp_deriv(alpha, t):
    return np.exp(np.asarray(t, dtype=float))


def _runge_value(t):
    t = np.asarray(t, dtype=float)
    return 1.0 / (1.0 + 25.0 * t * t)


def _runge_deriv(alpha, t):
    # 1/(1+u^2) with u = 5t has p-th u-derivative
    # (-1)^(p+1) p! Im[(u + i)^(-(p+1))]; the chain rule adds 5^p.
    p = alpha[0]
    u = 5.0 * np.asarray(t, dtype=float)
    val = (-1.0) ** (p + 1) * math.factorial(p) * np.imag((u + 1j) ** (-(p + 1)))
    return 5.0**p * val


_ABS_KINK = 0.5


def _abs25_value(t):
    s = np.asarray(t, dtype=float) - _ABS_KINK
    return np.abs(s) ** 2.5


def _abs25_deriv(alpha, t):
    # |s|^2.5 is C^2; orders three and four exist only away from the kink.
    p = alpha[0]
    s = np.asarray(t, dtype=float) - _ABS_KINK
    a = np.abs(s)
    if p == 1:
        return 2.5 * a**1.5 * np.sign(s)
    if p == 2:
        return 3.75 * a**0.5
    if p == 3:
        return 1.875 * np.sign(s) / a**0.5
    return -0.9375 / a**1.5


def _product_power(t, p):
    # t^p as the left-to-right product ((t*t)*t)..., ones for p = 0; +t copies, so the
    # caller's array is never handed back
    t = np.asarray(t, dtype=float)
    if p == 0:
        return np.ones_like(t)
    out = t * t if p > 1 else +t
    for _ in range(p - 2):
        out *= t
    return out


def _monomial(name, p):
    # t^p and its k-th derivative p!/(p-k)! t^(p-k), zero past k = p; integer exponents
    def value(t):
        return _product_power(t, p)

    def deriv(alpha, t):
        t, k = np.asarray(t, dtype=float), alpha[0]
        return 0.0 * t if k > p else math.factorial(p) // math.factorial(p - k) * t ** (p - k)

    return FunctionPreset(name, 1, math.inf, value, deriv, power=float(p))


def _sinexp_value(x, y):
    return np.sin(np.asarray(x, dtype=float)) * np.exp(-np.asarray(y, dtype=float))


def _sinexp_deriv(alpha, x, y):
    i, j = alpha
    return np.sin(np.asarray(x, dtype=float) + i * (math.pi / 2.0)) * (
        (-1.0) ** j * np.exp(-np.asarray(y, dtype=float))
    )


_REGISTRY = {preset.name: preset for preset in (
    # each monomial twice: by degree name, and as powP for fractional sweeps on t > 0
    *(_monomial(name, p) for p, degree in enumerate(("constant", "linear", "quadratic", "cubic"))
      for name in (degree, f"pow{p}")),
    FunctionPreset("sin", 1, math.inf, np.sin, _sin_deriv),
    FunctionPreset("exp", 1, math.inf, np.exp, _exp_deriv),
    FunctionPreset("runge", 1, math.inf, _runge_value, _runge_deriv),
    # the kink at t = 1/2 limits smoothness to C^2
    FunctionPreset("abs25", 1, 2.0, _abs25_value, _abs25_deriv),
    FunctionPreset("sin-exp", 2, math.inf, _sinexp_value, _sinexp_deriv),
)}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def function_preset(name: str) -> FunctionPreset:
    """Look up a preset by name; unknown names list the known ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(preset_names())}") from None
