"""Quadratic exponential sums and exact rational approximation.

Diophantine checks run on an exact rational surrogate of the input frequency
(the precise dyadic value of the float64), so every certificate is verified by
integer arithmetic rather than floating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import _MAX_EXACT_SITE, _csum, _two_product, _unit_phases

_CACHED_PERIOD_MAX = 1 << 14  # cached arrays: <= 256 KB each, for 64 (N, D), 16 D

__all__ = [
    "ApproxCertificate",
    "exact_frequency",
    "dirichlet_approx",
    "weyl_sum",
    "gauss_sum",
    "weyl_bound_audit",
    "WeylAuditRow",
]


def exact_frequency(beta) -> Fraction:
    """Exact rational surrogate of a frequency (dyadic value of the float)."""
    return beta if isinstance(beta, Fraction) else Fraction(beta)


@dataclass(frozen=True)
class ApproxCertificate:
    """A rational p/q with q <= q_max and |beta - p/q| <= 1/(q*q_max),
    all inequalities verified exactly."""

    beta: Fraction
    q_max: Fraction
    rational: Fraction
    error: Fraction

    @property
    def p(self) -> int:
        return self.rational.numerator

    @property
    def q(self) -> int:
        return self.rational.denominator

    def verify(self) -> bool:
        return self.q <= self.q_max and self.error * self.q * self.q_max <= 1


def dirichlet_approx(beta, q_max) -> ApproxCertificate:
    """Dirichlet-quality rational approximation via continued fractions.

    Returns the deepest convergent with denominator <= q_max; the classical
    inequality |x - p_i/q_i| <= 1/(q_i q_{i+1}) with q_{i+1} > q_max supplies
    the guarantee, re-verified exactly before returning.  When beta = m/D in
    lowest terms has D <= q_max, that convergent is beta itself, with error
    0.  Otherwise the expansion runs on Python ints, and the certificate's
    rational and error are the only Fractions built.
    """
    qm = q_max if isinstance(q_max, Fraction) else Fraction(q_max)
    if qm < 1:
        raise ValueError("q_max must be >= 1")
    b = exact_frequency(beta)
    num, den = b.numerator, b.denominator
    if den <= qm:
        return ApproxCertificate(b, qm, b, Fraction(0))
    q_lim = math.floor(qm)
    # convergents p/q of num/den, stopping before the first with q > q_lim
    # (one comes, since den > q_lim); x/y is the remaining complete quotient
    p_prev, q_prev = 1, 0
    p, q = num // den, 1
    x, y = den, num - p * den
    while True:
        a = x // y
        x, y = y, x - a * y
        if a * q + q_prev > q_lim:
            break
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    cert = ApproxCertificate(b, qm, Fraction(p, q), Fraction(abs(num * q - p * den), den * q))
    if not cert.verify():
        raise AssertionError(f"Dirichlet guarantee failed: {cert}")  # unreachable
    return cert


def weyl_sum(N: int, beta: float) -> complex:
    """(1/N) sum_{j=1}^{N} e(j^2 beta), compensated direct summation.

    Write beta mod 1 as m/D in lowest terms (D is a power of two).  When
    D <= N and N^2 m < 2^53, every product j^2 beta is exact in double
    precision, so the phase of j is exactly e((j^2 m mod D) / D) and depends
    only on j^2 mod D.  The sum then runs over the residues s present, each
    phase weighted by the number of j <= N with j^2 = s (mod D): O(D) work
    instead of O(N).  Each count * phase product is split exactly into two
    doubles, and ``fsum`` rounds the exact total once, so the result is the
    same double as the N-term sum.  Every other beta takes the N-term sum.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    b = float(beta) % 1.0
    m, D = b.as_integer_ratio()
    if D <= N and N * N * m < _MAX_EXACT_SITE:
        return _residue_sum(N, m, D) / N
    j = np.arange(1, N + 1, dtype=np.int64)
    return _csum(_unit_phases(j * j, b)) / N


def _residue_sum(N: int, m: int, D: int) -> complex:
    """sum_{j=1}^{N} e(j^2 m / D), correctly rounded, grouped by j^2 mod D.

    The one residue-class transform behind both ``weyl_sum`` (N terms at a
    dyadic frequency m/D) and ``gauss_sum`` (one full period, N = D = q).
    The residues s with counts c, and the table e(k / D) whose entry s*m mod
    D is the phase of s, come from small caches for D <= _CACHED_PERIOD_MAX.
    np.exp gives an angle the same bits anywhere in an array, and ``fsum``
    rounds the exact sum of the split products once: the same double.
    """
    cached = D <= _CACHED_PERIOD_MAX
    s, c = (_residue_classes if cached else _residue_classes.__wrapped__)(N, D)
    phases = _unit_circle(D)[s * m % D] if cached else np.exp((2j * math.pi) * (s * m % D / D))
    re_hi, re_lo = _two_product(c, phases.real)
    im_hi, im_lo = _two_product(c, phases.imag)
    return complex(
        math.fsum(re_hi.tolist() + re_lo.tolist()),
        math.fsum(im_hi.tolist() + im_lo.tolist()),
    )


@functools.lru_cache(maxsize=64)
def _residue_classes(N: int, D: int) -> tuple[np.ndarray, np.ndarray]:
    """The residues s of j^2 mod D, j = 1..N, and their counts as doubles."""
    j = np.arange(1, D + 1, dtype=np.int64)
    squares = j * j % D  # one period: (j + D)^2 = j^2 (mod D)
    full, rest = divmod(N, D)
    counts = full * np.bincount(squares, minlength=D)
    counts += np.bincount(squares[:rest], minlength=D)
    s = np.flatnonzero(counts)
    c = counts[s].astype(np.float64)
    s.flags.writeable = c.flags.writeable = False  # shared by every caller
    return s, c


@functools.lru_cache(maxsize=16)
def _unit_circle(D: int) -> np.ndarray:
    """e(k / D) for k = 0..D-1."""
    table = np.exp((2j * math.pi) * (np.arange(D) / D))
    table.flags.writeable = False  # shared by every caller
    return table


def gauss_sum(p: int, q: int | None = None) -> complex:
    """Normalized complete quadratic Gauss sum (1/q) sum_{n<q} e(n^2 p/q)."""
    if q is None:
        frac = Fraction(p)
        p, q = frac.numerator, frac.denominator
    if q < 1:
        raise ValueError("denominator must be positive")
    if math.gcd(p, q) != 1:
        raise ValueError("p/q must be in lowest terms")
    return _residue_sum(q, p % q, q) / q


@dataclass(frozen=True)
class WeylAuditRow:
    N: int
    beta: float
    p: int
    q: int
    err: float
    value: float
    bound_shape: float
    ratio: float


def weyl_bound_audit(N: int, beta: float) -> WeylAuditRow:
    """Compare |weyl_sum| against the shape 1/sqrt(q) + sqrt(log N)/N^(1/3)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    cert = dirichlet_approx(beta, float(N) ** (4.0 / 3.0))
    value = abs(weyl_sum(N, beta))
    shape = 1.0 / math.sqrt(cert.q) + math.sqrt(math.log(N)) / N ** (1.0 / 3.0)
    return WeylAuditRow(
        N, float(beta), cert.p, cert.q, float(cert.error), value, shape, value / shape
    )
