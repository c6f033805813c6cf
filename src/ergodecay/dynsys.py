"""Concrete dynamical systems and weighted ergodic averages.

Two systems keep tau^j an O(1) computation even for sites of size ~1e9:
irrational rotation of the torus (the angle held as an exact rational
surrogate with denominator 2^61, so orbits are exact integer arithmetic)
and the cyclic shift on Z_M.  Starting points x = k/2^32 share that
power-of-two denominator, so a whole rotation orbit is one wrapping uint64
multiply-add masked to 61 bits, with no per-site Python loop.
Almost-everywhere convergence is reported as tail-oscillation statistics
over sampled starting points, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .measures import WeightedMeasure

__all__ = [
    "System",
    "rotation_system",
    "golden_rotation",
    "cyclic_system",
    "ObservedFunction",
    "indicator_function",
    "trig_function",
    "table_function",
    "weighted_average",
    "convergence_trace",
]

_DEN = 1 << 61


@dataclass(frozen=True)
class System:
    kind: str  # "rotation" | "cyclic"
    alpha_num: int = 0  # rotation angle alpha_num / alpha_den
    alpha_den: int = 1
    modulus: int = 0  # cyclic shift on Z_modulus


def rotation_system(alpha) -> System:
    """Torus rotation by an exact rational surrogate of alpha."""
    a = Fraction(alpha) if not isinstance(alpha, Fraction) else alpha
    a %= 1
    return System("rotation", alpha_num=a.numerator, alpha_den=a.denominator)


def golden_rotation() -> System:
    """Rotation by the fractional part of the golden ratio, as an odd
    numerator over 2^61 (denominator kept above 2^60 by construction)."""
    num = round((math.sqrt(5.0) - 1.0) / 2.0 * _DEN)
    if num % 2 == 0:
        num += 1
    return System("rotation", alpha_num=num, alpha_den=_DEN)


def cyclic_system(M: int) -> System:
    if M < 1:
        raise ConfigError("cyclic modulus must be >= 1")
    return System("cyclic", modulus=M)


@dataclass(frozen=True)
class ObservedFunction:
    kind: str  # "indicator" | "trig" | "table"
    a: float = 0.0  # indicator interval [a, b) on the torus
    b: float = 0.0
    m: int = 0  # trig frequency
    table: tuple = ()  # values on Z_M


def indicator_function(a: float, b: float) -> ObservedFunction:
    a, b = float(a) % 1.0, float(b) % 1.0
    if a == b:
        raise ConfigError(f"indicator arc ends agree mod 1 ({a}): empty or whole circle")
    return ObservedFunction("indicator", a=a, b=b)


def trig_function(m: int) -> ObservedFunction:
    return ObservedFunction("trig", m=int(m))


def table_function(values) -> ObservedFunction:
    return ObservedFunction("table", table=tuple(complex(v) for v in values))


def _rotation_fractions(
    sys: System, x: Fraction, sites: np.ndarray, mult: int = 1
) -> np.ndarray:
    """Exact fractional parts of mult*(x + j*alpha) for each site j.

    With D = lcm(alpha_den, x.denominator), mult*(x + j*alpha) mod 1 is
    ((b + j*a) mod D) / D for the integers b = mult*x*D mod D and
    a = mult*alpha*D mod D.  When D is a power of two up to 2^63, b + j*a is
    taken in wrapping uint64 arithmetic (2^64 is a multiple of D, negative
    sites included) and masked to the residue mod D.  The int64 -> float64
    conversion rounds once and dividing by D is exact, so each value is the
    double that Python's exact int/int division gives.  Other D run that
    division on Python ints, one site at a time.
    """
    an, ad = sys.alpha_num, sys.alpha_den
    D = math.lcm(ad, x.denominator)
    b = mult * x.numerator * (D // x.denominator) % D
    a = mult * an * (D // ad) % D
    if D & (D - 1) == 0 and D <= 1 << 63:
        r = sites.view(np.uint64) * np.uint64(a)
        r += np.uint64(b)
        r &= np.uint64(D - 1)
        return r.view(np.int64).astype(np.float64) / D
    fracs = [(b + j * a) % D / D for j in sites.tolist()]
    return np.array(fracs, dtype=np.float64)


def _in_arc(pts: np.ndarray, lo, hi) -> np.ndarray:
    """Indicator of [lo, hi) on the circle, wrapping around when lo > hi."""
    if lo <= hi:
        inside = (pts >= lo) & (pts < hi)
    else:
        inside = (pts >= lo) | (pts < hi)
    return inside.astype(np.complex128)


def weighted_average(sys: System, f: ObservedFunction, mu: WeightedMeasure, x) -> complex:
    """sum_j f(tau^j x) mu(j): the weighted ergodic average at x."""
    if mu.n_atoms == 0:
        return 0.0
    if sys.kind == "rotation":
        xf = Fraction(x) if not isinstance(x, Fraction) else x
        if f.kind == "trig":
            fr = _rotation_fractions(sys, xf, mu.sites, mult=f.m)
            values = np.exp(2j * math.pi * fr)
        elif f.kind == "indicator":
            values = _in_arc(_rotation_fractions(sys, xf, mu.sites), f.a, f.b)
        else:
            raise ConfigError("table observables need a cyclic system")
        return complex(np.dot(mu.weights, values))
    if sys.kind == "cyclic":
        M = sys.modulus
        pos = (int(x) + mu.sites) % M
        if f.kind == "table":
            if len(f.table) != M:
                raise ConfigError(f"table length {len(f.table)} != modulus {M}")
            values = np.asarray(f.table, dtype=np.complex128)[pos]
        elif f.kind == "trig":
            values = np.exp(2j * math.pi * ((f.m * pos) % M) / M)
        elif f.kind == "indicator":
            values = _in_arc(pos, int(f.a * M) % M, int(f.b * M) % M)
        return complex(np.dot(mu.weights, values))
    raise ConfigError(f"unknown system kind {sys.kind!r}")


def convergence_trace(
    sys: System,
    f: ObservedFunction,
    measures,
    indices=None,
    x_samples: int = 16,
    seed: int = 0,
) -> dict:
    """Weighted averages along a measure list at sampled starting points.

    Per sample x and position k, ``osc_tail`` is the diameter of the averages
    from position k to the end; the summary reports the median and max of the
    mid-sequence oscillation over samples (the desk-scale convergence shadow).
    """
    measures = list(measures)
    K = len(measures)
    if K == 0:
        raise ValueError("need at least one measure")
    if x_samples < 1:
        raise ValueError(f"x_samples must be >= 1, got {x_samples}")
    if indices is None:
        indices = list(range(1, K + 1))
    rng = np.random.default_rng(seed)
    rows = []
    mid_oscs = []
    for xi in range(x_samples):
        if sys.kind == "rotation":
            x = Fraction(int(rng.integers(0, 1 << 32)), 1 << 32)
            x_repr = float(x)
        else:
            x = int(rng.integers(0, sys.modulus))
            x_repr = x
        avgs = [weighted_average(sys, f, mu, x) for mu in measures]
        oscs = [0.0] * (K + 1)  # oscs[k]: diameter of avgs[k:], built from the back
        for k in reversed(range(K)):
            head = max((abs(avgs[k] - v) for v in avgs[k + 1 :]), default=0.0)
            oscs[k] = max(oscs[k + 1], head)
        for k in range(K):
            rows.append(
                {
                    "k": k + 1,
                    "n_k": indices[k],
                    "x": x_repr,
                    "value": avgs[k],
                    "osc_tail": oscs[k],
                }
            )
        mid_oscs.append(oscs[K // 2])
    return {
        "rows": rows,
        "median_osc": float(np.median(mid_oscs)),
        "max_osc": float(np.max(mid_oscs)),
    }
