"""Generators for the measure families under study and the rho-function menu.

Families:
  squares                  nu_n = (1/n) sum_{k<=n} delta_{k^2}
  rotated:quadratic        (1/n) sum delta_{k^2} e(n^{-1/2} k^2)   (default variant)
  rotated:linear           (1/n) sum delta_{k^2} e(n^{-1/2} k)
  perturbed:<rho>          (1/N) sum delta_{k^2 + floor(rho(k))}

The rho menu is a closed enum (power, scaled log, powered log, constant) so
that derivatives and inverses are exact formulas and floor(rho(x)) can be
computed exactly.  Every scalar floor goes through RhoSpec.floor_at_sqrt:
power exponents are stored as reduced fractions, so the power kind is exact
at any rational argument by integer root arithmetic; the transcendental kinds
get a float pass plus a high-precision recheck on values suspiciously close
to an integer boundary.

The two rotated variants exist because the displayed weight e(n^{-1/2} j) is
inconsistent with the shift identity mu_hat(gamma) = nu_hat(gamma + n^{-1/2})
and with the modulation/transference identity, both of which force the weight
e(n^{-1/2} j^2); quadratic is therefore the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import ConfigError
from .measures import WeightedMeasure, _from_arrays, _unit_phases

__all__ = [
    "RhoSpec",
    "rho_power",
    "rho_log",
    "rho_log_power",
    "rho_constant",
    "MeasureFamily",
    "squares_measure",
    "rotated_squares_measure",
    "perturbed_squares_measure",
    "parse_family",
    "squares_family",
    "rotated_family",
    "perturbed_family",
]

_BOUNDARY_BAND = 1e-9  # float floors this close to an integer get a recheck
_ROTATED_VARIANTS = ("quadratic", "linear")


@dataclass(frozen=True)
class RhoSpec:
    """A perturbation function rho with exact derivatives and inverse."""

    kind: str  # "power" | "log_scaled" | "log_power" | "constant"
    param: object

    def __post_init__(self):
        if self.kind == "power":
            a = self.param
            if not isinstance(a, Fraction):
                raise ConfigError("power exponent must be a Fraction")
            if not (Fraction(0) < a < Fraction(1, 3)):
                raise ConfigError(f"power exponent must lie in (0, 1/3), got {a}")
        elif self.kind == "log_scaled":
            if not self.param > 0:
                raise ConfigError("log scale must be positive")
        elif self.kind == "log_power":
            if not self.param >= 1:
                raise ConfigError("log power must be >= 1")
        elif self.kind == "constant":
            if not self.param >= 0:
                raise ConfigError("constant rho must be >= 0")
        else:
            raise ConfigError(f"unknown rho kind {self.kind!r}")

    # -- pointwise formulas ------------------------------------------------

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "power":
            return np.power(x, float(self.param))
        if self.kind == "log_scaled":
            return self.param * np.log1p(x)
        if self.kind == "log_power":
            return np.power(np.log1p(x), self.param)
        return np.full_like(x, float(self.param))

    def deriv(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "power":
            a = float(self.param)
            return a * np.power(x, a - 1.0)
        if self.kind == "log_scaled":
            return self.param / (1.0 + x)
        if self.kind == "log_power":
            c = self.param
            return c * np.power(np.log1p(x), c - 1.0) / (1.0 + x)
        return np.zeros_like(x)

    def deriv2(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "power":
            a = float(self.param)
            return a * (a - 1.0) * np.power(x, a - 2.0)
        if self.kind == "log_scaled":
            return -self.param / (1.0 + x) ** 2
        if self.kind == "log_power":
            c = self.param
            lg = np.log1p(x)
            return c * np.power(lg, c - 2.0) * ((c - 1.0) - lg) / (1.0 + x) ** 2
        return np.zeros_like(x)

    def inverse(self, y: float) -> float:
        """Real solution of rho(x) = y on the attained range."""
        if self.kind == "power":
            a = self.param
            return float(y) ** (a.denominator / a.numerator)
        if self.kind == "log_scaled":
            return math.expm1(y / self.param)
        if self.kind == "log_power":
            return math.expm1(y ** (1.0 / self.param))
        raise ValueError("constant rho has no inverse")

    @property
    def epsilon(self) -> float:
        """Decay exponent for the audits: 1/3 - a for the power kind; the
        slow kinds get a fixed reporting value."""
        if self.kind == "power":
            return float(Fraction(1, 3) - self.param)
        return 0.05

    # -- exact floors --------------------------------------------------------

    def floor_at_int(self, k) -> np.ndarray:
        """floor(rho(k)) for integer k >= 1, exact; vectorised over arrays.

        A float pass settles most elements; the rest go to floor_at_sqrt(k*k).
        """
        karr = np.atleast_1d(np.asarray(k, dtype=np.int64))
        if self.kind == "constant":
            out = np.full_like(karr, math.floor(self.param))
            unsettled = np.zeros(len(karr), dtype=bool)
        elif self.kind == "power":
            p, q = self.param.numerator, self.param.denominator
            out = np.floor(np.power(karr.astype(np.float64), float(self.param)) + 1e-12)
            out = out.astype(np.int64)
            kmax, tmax = int(karr.max(initial=1)), int(out.max(initial=1)) + 2
            if kmax**p < 2**62 and tmax**q < 2**62:
                # floor(k^(p/q)) = r  <=>  r^q <= k^p < (r+1)^q, all in int64; the
                # float guess is off by at most 1, so one round each way settles it
                kp = karr**p
                out[(out + 1) ** q <= kp] += 1
                out[out**q > kp] -= 1
                unsettled = ((out + 1) ** q <= kp) | (out**q > kp)
            else:
                unsettled = np.ones(len(karr), dtype=bool)
        else:
            t = self.value(karr.astype(np.float64))
            out = np.floor(t).astype(np.int64)
            unsettled = np.abs(t - np.round(t)) < _BOUNDARY_BAND
        for i in np.nonzero(unsettled)[0]:
            out[i] = self.floor_at_sqrt(int(karr[i]) ** 2)
        return out if np.ndim(k) else int(out[0])

    def floor_at(self, x: float) -> int:
        """floor(rho(x)) at a real argument x >= 0, exact."""
        if not 0 <= x < math.inf:
            raise ValueError(f"rho needs a finite argument >= 0, got {x}")
        return self.floor_at_sqrt(Fraction(x) ** 2)

    def floor_at_sqrt(self, u) -> int:
        """floor(rho(sqrt(u))) for rational u >= 0 (an int or a Fraction), exact.

        The one scalar floor oracle.  Power kind a = p/q, u = num/den: the
        largest r with r^(2q) <= num^p // den^p, by integer Newton.  Log kinds:
        a float pass, rechecked at 60 digits within _BOUNDARY_BAND of an integer.
        """
        u = Fraction(u)
        if u < 0:
            raise ValueError(f"rho(sqrt(u)) needs u >= 0, got {u}")
        if self.kind == "constant":
            return math.floor(self.param)
        num, den = u.numerator, u.denominator
        if self.kind == "power":
            p, q = self.param.numerator, self.param.denominator
            X, n = num**p // den**p, 2 * q
            if X == 0:
                return 0
            # integer Newton from above, which steps down to the root; the float
            # root is within 1e-12 relative whenever exp does not overflow, so
            # the start lies above it
            r = math.floor(math.exp(math.log(X) / n) * (1 + 1e-9)) + 1
            while True:
                s = ((n - 1) * r + X // r ** (n - 1)) // n
                if s >= r:
                    return r
                r = s
        # past the double range of u, exp(log(u)/2) stays within 1e-13 relative
        x = math.sqrt(u) if u < 2**1000 else math.exp((math.log(num) - math.log(den)) / 2)
        t = float(self.value(x))
        r = math.floor(t)
        if min(t - r, r + 1 - t) >= _BOUNDARY_BAND:
            return r
        with mpmath.workdps(60):
            lg = mpmath.log(1 + mpmath.sqrt(mpmath.mpf(num) / den))
            t = self.param * lg if self.kind == "log_scaled" else lg ** mpmath.mpf(self.param)
            fl = mpmath.floor(t)
            if abs(t - fl) < mpmath.mpf(10) ** -40 and t != fl:
                raise ArithmeticError(f"floor(rho(sqrt({u}))) undecidable at 60 digits")
            return int(fl)

    def check_shape(self, x_lo: float = 8.0, x_hi: float = 1e6, samples: int = 64) -> None:
        """Sampled monotonicity audit: rho up, rho' down, rho'' up toward 0."""
        xs = np.geomspace(x_lo, x_hi, samples)
        v, d1, d2 = self.value(xs), self.deriv(xs), self.deriv2(xs)
        if np.any(np.diff(v) < 0):
            raise ConfigError(f"rho {self.descriptor()} is not nondecreasing")
        if self.kind != "constant":
            if np.any(np.diff(d1) > 1e-15):
                raise ConfigError(f"rho' of {self.descriptor()} is not nonincreasing")
            if np.any(np.diff(d2) < -1e-15) or np.any(d2 > 1e-12):
                raise ConfigError(f"rho'' of {self.descriptor()} does not increase to 0")

    def descriptor(self) -> str:
        if self.kind == "power":
            return f"power:{float(self.param)}"
        if self.kind == "log_scaled":
            return f"log:{self.param}"
        if self.kind == "log_power":
            return f"logpow:{self.param}"
        return f"const:{self.param}"


def rho_power(a) -> RhoSpec:
    return RhoSpec("power", a if isinstance(a, Fraction) else Fraction(str(a)))


def rho_log(C: float = 1.0) -> RhoSpec:
    return RhoSpec("log_scaled", float(C))


def rho_log_power(c: float) -> RhoSpec:
    return RhoSpec("log_power", float(c))


def rho_constant(c0: float) -> RhoSpec:
    return RhoSpec("constant", float(c0))


# -- measure generators ------------------------------------------------------


def squares_measure(n: int) -> WeightedMeasure:
    """nu_n: the uniform probability measure on {1^2, ..., n^2}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(1, n + 1, dtype=np.int64)
    return _from_arrays(k * k, np.full(n, 1.0 / n, dtype=np.complex128))


def rotated_squares_measure(n: int, variant: str = "quadratic") -> WeightedMeasure:
    """Squares measure with unimodular weight e(n^{-1/2} j) or e(n^{-1/2} j^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(1, n + 1, dtype=np.int64)
    if variant not in _ROTATED_VARIANTS:
        raise ConfigError(f"unknown rotated variant {variant!r}")
    theta = 1.0 / math.sqrt(n)
    phases = _unit_phases(k * k if variant == "quadratic" else k, theta % 1.0)
    return _from_arrays(k * k, phases / n)


def perturbed_squares_measure(rho: RhoSpec, N: int) -> WeightedMeasure:
    """(1/N) sum_{k<=N} delta_{k^2 + floor(rho(k))}; colliding atoms merge."""
    if N < 1:
        raise ValueError("N must be >= 1")
    k = np.arange(1, N + 1, dtype=np.int64)
    sites = k * k + rho.floor_at_int(k)
    return _from_arrays(sites, np.full(N, 1.0 / N, dtype=np.complex128))


@dataclass(frozen=True)
class MeasureFamily:
    """Indexed generator n -> mu_n with an exact support-radius oracle."""

    descriptor: str
    _measure: object
    _radius: object

    def measure(self, n: int) -> WeightedMeasure:
        return self._measure(n)

    def support_radius(self, n: int) -> int:
        return int(self._radius(n))


def squares_family() -> MeasureFamily:
    return MeasureFamily("squares", squares_measure, lambda n: n * n)


def rotated_family(variant: str = "quadratic") -> MeasureFamily:
    return MeasureFamily(
        f"rotated:{variant}",
        lambda n: rotated_squares_measure(n, variant),
        lambda n: n * n,
    )


def perturbed_family(rho: RhoSpec) -> MeasureFamily:
    # sites k^2 + floor(rho(k)) are increasing in k, so the radius is the last site
    return MeasureFamily(
        f"perturbed:{rho.descriptor()}",
        lambda n: perturbed_squares_measure(rho, n),
        lambda n: n * n + int(rho.floor_at_int(n)),
    )


def parse_rho(text: str) -> RhoSpec:
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "power":
            return rho_power(Fraction(parts[1]))
        if kind == "log":
            return rho_log(float(parts[1]) if len(parts) > 1 else 1.0)
        if kind == "logpow":
            return rho_log_power(float(parts[1]))
        if kind == "const":
            return rho_constant(float(parts[1]) if len(parts) > 1 else 0.0)
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rho descriptor {text!r}: {exc}") from exc
    raise ConfigError(f"unknown rho kind {kind!r} in {text!r}")


def parse_family(text: str) -> MeasureFamily:
    """Family from a config string: ``squares``, ``rotated:quadratic``,
    ``rotated:linear``, or ``perturbed:<kind>:<param>``."""
    parts = text.strip().split(":")
    head = parts[0]
    if head == "squares":
        if len(parts) != 1:
            raise ConfigError(f"bad family descriptor {text!r}")
        return squares_family()
    if head == "rotated":
        variant = parts[1] if len(parts) > 1 else "quadratic"
        if variant not in _ROTATED_VARIANTS:
            raise ConfigError(f"unknown rotated variant {variant!r}")
        return rotated_family(variant)
    if head == "perturbed":
        if len(parts) < 2:
            raise ConfigError(f"perturbed family needs a rho descriptor: {text!r}")
        return perturbed_family(parse_rho(":".join(parts[1:])))
    raise ConfigError(f"unknown family {text!r}")
