"""Generators for the measure families under study and the rho-function menu.

Families:
  squares                  nu_n = (1/n) sum_{k<=n} delta_{k^2}
  rotated:quadratic        (1/n) sum delta_{k^2} e(n^{-1/2} k^2)   (default variant)
  rotated:linear           (1/n) sum delta_{k^2} e(n^{-1/2} k)
  perturbed:<rho>          (1/N) sum delta_{k^2 + floor(rho(k))}

squares is the rho = 0 case of perturbed: both families read mu_n off one
growing array of sites and its prefix residue counts mod 4 (_prefix_family).
Squares takes plain k^2 there, never an exact floor.

The rho menu is a closed enum (power, scaled log, powered log, constant) so
that derivatives and inverses are exact formulas and floor(rho(x)) can be
computed exactly.  Every kind but the constant floors a float pass and sends
the values within _float_band of an integer, a band derived from the pass's
rounding error, to the exact scalar oracle RhoSpec.floor_at_sqrt: integer
Newton for the power kind, whose exponent is a reduced fraction, and a
60-digit ``decimal`` evaluation for the log kinds.

The two rotated variants exist because the displayed weight e(n^{-1/2} j) is
inconsistent with the shift identity mu_hat(gamma) = nu_hat(gamma + n^{-1/2})
and with the modulation/transference identity, both of which force the weight
e(n^{-1/2} j^2); quadratic is therefore the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .measures import WeightedMeasure, _from_arrays, _uniform_on, _unit_phases

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

_ROTATED_VARIANTS = ("quadratic", "linear")
_FIRST_BLOCK = 1024  # sites a perturbed family computes on its first call
_MAX_POWER_DENOMINATOR = 1000  # the Newton oracle's cost grows with q: 1.5 ms at 1000
# Sites and floors are int64: log(1+x)^c < 2^63 for every int64 x needs
# c < 63 log 2 / log(63 log 2), about 11.56 (the double overflows past 187),
# and C log(1+x) < 2^63 needs C < 2^63 / log(2^63), about 2.11e17
_MAX_LOG_POWER = 63 * math.log(2.0) / math.log(63 * math.log(2.0))
_MAX_LOG_SCALE = 2.0**63 / math.log(2.0**63)


def _float_band(t):
    """max(1e-9, K u |t|), u = 2^-53, K = 128: a float value t of rho further
    than this from every integer has the floor of rho's exact value.

    Error model (Higham, Accuracy and Stability, ch. 2): rounding errs by u
    relative, numpy's SIMD np.power and np.log1p by 4 ulp, so 8u.  An error
    e in x moves log1p(x) by at most e relative, and e <= 2u on each path into
    a float pass (float(k), sqrt of a rounded Fraction, exp past 2^1000).
    - power: float(p/q) = a (1 + d), |d| <= u, scales x^a by exp(a d log x),
      a log x < 44/3 below 2^63: 15u; float(k) adds u/3, np.power 8u.
    - log_scaled, C log1p(x): 2u from x, 8u from log1p, u from the product.
    - log_power, log1p(x)^c: log1p's 10u times c <= 11.56 (parse_rho's
      bound), plus np.power's 8u: 124u, the largest.
    The 1e-9 floor keeps the band at the families' values (t <= 1450 for the
    power kinds, 14 for log:1) where it always was.
    """
    return np.maximum(1e-9, 128 * 2.0**-53 * np.abs(t))


@dataclass(frozen=True)
class RhoSpec:
    """A perturbation function rho with exact derivatives and inverse.

    It meets the paper's shape assumptions (rho up, rho' down, rho'' up to 0)
    on [shape_from, inf), a closed form.
    """

    kind: str  # "power" | "log_scaled" | "log_power" | "constant"
    param: object

    def __post_init__(self):
        if self.kind == "power":
            a = self.param
            if not isinstance(a, Fraction):
                raise ConfigError("power exponent must be a Fraction")
            if not (Fraction(0) < a < Fraction(1, 3)):
                raise ConfigError(f"power exponent must lie in (0, 1/3), got {a}")
            if a.denominator > _MAX_POWER_DENOMINATOR:
                raise ConfigError(
                    f"power exponent {a} has a denominator above {_MAX_POWER_DENOMINATOR}"
                )
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

    @property
    def shape_from(self) -> float:
        """Least x0 >= 0 with rho' >= 0, rho'' <= 0 and rho''' >= 0 on [x0, inf).

        0 for the power, log and constant kinds.  For log_power c, with
        L = log(1+x): rho'' <= 0 iff L >= c-1, and rho''' >= 0 iff
        2L^2 - 3(c-1)L + (c-1)(c-2) >= 0.  The larger root of that quadratic,
        r+ = (3(c-1) + sqrt((c-1)(c+7)))/4, is >= c-1, so x0 = expm1(r+).
        """
        if self.kind != "log_power":
            return 0.0
        c1 = self.param - 1.0
        try:
            return math.expm1((3.0 * c1 + math.sqrt(c1 * (c1 + 8.0))) / 4.0)
        except OverflowError:  # x0 past the double range, for c above about 709
            return math.inf

    # -- exact floors --------------------------------------------------------

    def floor_at_int(self, k) -> np.ndarray:
        """floor(rho(k)) for integer k >= 1, exact; vectorised over arrays.

        Past the constant kind's closed form: the floor of t = value(k), and
        floor_at_sqrt(k*k) where |t - round(t)| < _float_band(t).
        """
        karr = np.atleast_1d(np.asarray(k, dtype=np.int64))
        if self.kind == "constant":
            out = np.full_like(karr, math.floor(self.param))
        else:
            t = self.value(karr.astype(np.float64))
            out = np.floor(t).astype(np.int64)
            for i in np.nonzero(np.abs(t - np.round(t)) < _float_band(t))[0]:
                out[i] = self.floor_at_sqrt(int(karr[i]) ** 2)
        return out if np.ndim(k) else int(out[0])

    def floor_at(self, x: float) -> int:
        """floor(rho(x)) at a real argument x >= 0, exact."""
        if not 0 <= x < math.inf:
            raise ValueError(f"rho needs a finite argument >= 0, got {x}")
        return self.floor_at_sqrt(Fraction(x) ** 2)

    def floor_at_sqrt(self, u) -> int:
        """floor(rho(sqrt(u))) for rational u >= 0 (an int or a Fraction), exact.

        The one exact scalar oracle.  Power kind a = p/q, u = num/den: the
        largest r with r^(2q) <= num^p // den^p, by integer Newton.  Log kinds:
        a float pass, rechecked at 60 digits (``decimal``) within _float_band.
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
        if abs(t - round(t)) >= _float_band(t):
            return math.floor(t)
        ctx = Context(prec=60)
        lg = ctx.ln(ctx.add(1, ctx.sqrt(ctx.divide(Decimal(num), Decimal(den)))))
        c = Decimal(self.param)  # exact: the float's binary value
        t = ctx.multiply(c, lg) if self.kind == "log_scaled" else ctx.power(lg, c)
        fl = t.to_integral_value(rounding=ROUND_FLOOR)
        if ctx.subtract(t, fl) < Decimal("1e-40") and t != fl:
            raise ArithmeticError(f"floor(rho(sqrt({u}))) undecidable at 60 digits")
        return int(fl)

    def descriptor(self) -> str:
        """Text that ``parse_rho`` reads back as this RhoSpec."""
        if self.kind == "power":
            a = self.param
            return f"power:{float(a) if Fraction(repr(float(a))) == a else a}"
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
    return _uniform_on(k * k)


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


def _perturbed_sites(rho: RhoSpec, k_lo: int, k_hi: int) -> np.ndarray:
    """Sites k^2 + floor(rho(k)) for k_lo <= k < k_hi."""
    k = np.arange(k_lo, k_hi, dtype=np.int64)
    return k * k + rho.floor_at_int(k)


def perturbed_squares_measure(rho: RhoSpec, N: int) -> WeightedMeasure:
    """(1/N) sum_{k<=N} delta_{k^2 + floor(rho(k))}; colliding atoms merge."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _uniform_on(_perturbed_sites(rho, 1, N + 1))


@dataclass(frozen=True)
class MeasureFamily:
    """Indexed generator n -> mu_n with an exact support-radius oracle and,
    optionally, exact residue counts mod 4."""

    descriptor: str
    _measure: object
    _radius: object
    _residue_counts: object = None

    def measure(self, n: int) -> WeightedMeasure:
        return self._measure(n)

    def support_radius(self, n: int) -> int:
        return int(self._radius(n))

    def residue_counts(self, n: int) -> np.ndarray | None:
        """c_r(n), the number of mu_n's sites = r mod 4 for r = 0..3, when
        mu_n is uniform on n distinct sites and the family keeps the counts;
        else None."""
        return None if self._residue_counts is None else self._residue_counts(n)


def rotated_family(variant: str = "quadratic") -> MeasureFamily:
    return MeasureFamily(
        f"rotated:{variant}",
        lambda n: rotated_squares_measure(n, variant),
        lambda n: n * n,
    )


def _prefix_family(descriptor: str, sites_between) -> MeasureFamily:
    """mu_n uniform on the first n sites, read off one site array that grows
    by doubling, so a scan over n computes each site once.

    ``sites_between(lo, hi)`` returns the sites of k = lo, ..., hi - 1.  Each
    growth block also checks once that the sites still strictly increase
    (they do for squares and for every rho of the menu, which is
    nondecreasing) and extends the prefix counts: row n of ``counts`` holds
    c_r(n), the number of the first n sites = r mod 4.  While the sites
    increase, mu_n is uniform on n distinct sites: it skips ``_uniform_on``'s
    check, and ``residue_counts`` serves row n.  Otherwise measures go through
    that check, which merges collisions, and the family has no counts.
    """
    sites = np.empty(0, dtype=np.int64)
    counts = np.zeros((1, 4), dtype=np.int64)
    increasing = True

    def prefix(n: int) -> np.ndarray:
        nonlocal sites, counts, increasing
        if n < 1:
            raise ValueError("N must be >= 1")
        if n > len(sites):
            size = max(n, 2 * len(sites), _FIRST_BLOCK)
            block = sites_between(len(sites) + 1, size + 1)
            increasing = increasing and bool(
                np.all(np.diff(np.concatenate([sites[-1:], block])) > 0)
            )
            if increasing:
                grown = counts[-1] + np.cumsum((block[:, None] & 3) == np.arange(4), axis=0)
                counts = np.concatenate([counts, grown])
                counts.flags.writeable = False
            sites = np.concatenate([sites, block])
            sites.flags.writeable = False  # measures share its prefixes
        return sites[:n]

    def measure(n: int) -> WeightedMeasure:
        view = prefix(n)
        return _uniform_on(view, increasing=increasing)

    def residue_counts(n: int) -> np.ndarray | None:
        prefix(n)
        return counts[n] if increasing else None

    # sites k^2 and k^2 + floor(rho(k)) are increasing in k, so the radius is
    # the last site
    return MeasureFamily(descriptor, measure, lambda n: prefix(n)[-1], residue_counts)


def squares_family() -> MeasureFamily:
    """mu_n = squares_measure(n): the rho = 0 case of ``perturbed_family``,
    with plain k^2 in place of exact floors."""
    return _prefix_family("squares", lambda lo, hi: np.arange(lo, hi, dtype=np.int64) ** 2)


def perturbed_family(rho: RhoSpec) -> MeasureFamily:
    """mu_n = perturbed_squares_measure(rho, n), each floor computed once."""
    # _perturbed_sites is looked up at call time, so a patched binding applies
    return _prefix_family(
        f"perturbed:{rho.descriptor()}", lambda lo, hi: _perturbed_sites(rho, lo, hi)
    )


# kind -> (constructor, default parameter, bound keeping rho below 2^63 on int64)
_FLOAT_RHOS = {
    "log": (rho_log, 1.0, _MAX_LOG_SCALE),
    "logpow": (rho_log_power, None, _MAX_LOG_POWER),
    "const": (rho_constant, 0.0, 2.0**63),
}


def parse_rho(text: str) -> RhoSpec:
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "power":
            return rho_power(Fraction(parts[1]))
        if kind in _FLOAT_RHOS:
            make, default, top = _FLOAT_RHOS[kind]
            x = default if len(parts) == 1 and default is not None else float(parts[1])
            if not x < top:
                raise ConfigError(f"{kind} parameter must be below {top:.6g}, where rho "
                                  f"reaches 2^63 on int64 arguments, got {x}")
            return make(x)
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
