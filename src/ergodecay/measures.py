"""Finitely supported complex measures on Z and their Fourier transforms.

Transform convention, fixed once for the whole library:

    mu_hat(gamma) = sum_j mu(j) * e(j * gamma),   e(gamma) = exp(2*pi*i*gamma),

with gamma a circle coordinate in [0, 1).  The quantity driving subsequence
selection is the *triviality functional*

    T(mu) = sup_{gamma in [0,1)} |(1 - e(gamma)) * mu_hat(gamma)|,

for which ``triviality_sup`` returns a rigorous two-sided bracket rather than
a bare grid maximum: grid maxima are converted into true upper bounds using
either the Lipschitz slack of the integrand or the equispaced-sampling bound
for trigonometric polynomials (sup <= gridmax / cos(pi*d/G) for degree d and
G > 2d sample points), whichever is sharper.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError

TWO_PI = 2.0 * math.pi

# Largest FFT grid triviality_sup may allocate (complex128 => 16 bytes/point).
DEFAULT_GRID_CAP = 1 << 25

# First grid of every sup bracket and certification.
_COARSE_GRID = 4096

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant
_MAX_EXACT_SITE = 1 << 53  # sites beyond this do not convert to float64 exactly

__all__ = [
    "WeightedMeasure",
    "SupBracket",
    "make_measure",
    "point_mass",
    "fourier_at",
    "fourier_grid",
    "triviality_sup",
    "bracket_sup",
    "certify_sup_below",
    "convolve",
    "modulate",
    "measure_to_json",
    "measure_from_json",
    "write_fourier_csv",
]


def _two_product(a: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Error-free transform: returns (x, err) with x + err == a*b exactly."""
    x = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - x) + ahi * blo + alo * bhi) + alo * blo
    return x, err


def _frac_sites_gamma(sites: np.ndarray, gamma: float) -> np.ndarray:
    """Fractional part of sites*gamma to full double precision.

    Plain ``sites * gamma % 1`` loses up to ~1e-7 absolute for sites ~ 1e9;
    the compensated product keeps the reduced phase accurate to ~1 ulp.
    Raises ValueError for |site| > 2^53, where the float conversion is inexact.
    """
    if len(sites) and max(int(sites.max()), -int(sites.min())) > _MAX_EXACT_SITE:
        raise ValueError(
            "site beyond 2^53 in magnitude: its phase needs a Fraction frequency"
        )
    a = sites.astype(np.float64)
    x, err = _two_product(a, float(gamma))
    f = (x - np.floor(x)) + err
    f -= np.floor(f)
    return f


def _unit_phases(sites: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp((2j * math.pi) * _frac_sites_gamma(sites, gamma))


def _csum(values: np.ndarray) -> complex:
    """Compensated complex sum (exact fsum of real and imaginary parts)."""
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


@dataclass(frozen=True)
class WeightedMeasure:
    """Finitely supported complex measure: sorted sites with nonzero weights.

    Instances are immutable; every operation returns a new measure.
    """

    sites: np.ndarray  # int64, strictly increasing
    weights: np.ndarray  # complex128, no exact zeros
    total_variation: float

    @property
    def n_atoms(self) -> int:
        return len(self.sites)

    @property
    def support_radius(self) -> int:
        if self.n_atoms == 0:
            return 0
        return int(max(self.sites[-1], -self.sites[0]))

    @property
    def is_probability(self) -> bool:
        if self.n_atoms == 0:
            return False
        w = self.weights
        if np.any(w.imag != 0.0) or np.any(w.real < 0.0):
            return False
        return abs(math.fsum(w.real) - 1.0) <= 1e-12

    def weight_at(self, site: int) -> complex:
        i = np.searchsorted(self.sites, site)
        if i < len(self.sites) and self.sites[i] == site:
            return complex(self.weights[i])
        return 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedMeasure):
            return NotImplemented
        return (
            self.n_atoms == other.n_atoms
            and np.array_equal(self.sites, other.sites)
            and np.array_equal(self.weights, other.weights)
        )

    def allclose(self, other: "WeightedMeasure", tol: float = 1e-12) -> bool:
        if not np.array_equal(self.sites, other.sites):
            return False
        return bool(np.all(np.abs(self.weights - other.weights) <= tol))


@dataclass(frozen=True)
class SupBracket:
    """Rigorous enclosure [lower, upper] of a sup over the circle."""

    lower: float
    upper: float
    grid_size: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def make_measure(atoms) -> WeightedMeasure:
    """Build a measure from (site, weight) pairs; duplicate sites are summed.

    Zero weights (after merging) are dropped.  Non-finite weights are rejected.
    """
    pairs = list(atoms)
    if not pairs:
        return WeightedMeasure(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128), 0.0
        )
    sites = np.asarray([int(s) for s, _ in pairs], dtype=np.int64)
    weights = np.asarray([complex(w) for _, w in pairs], dtype=np.complex128)
    if not np.all(np.isfinite(weights.real)) or not np.all(np.isfinite(weights.imag)):
        raise ValueError("non-finite weight in measure atoms")
    return _from_arrays(sites, weights)


def _from_arrays(sites: np.ndarray, weights: np.ndarray) -> WeightedMeasure:
    if len(sites) > 1 and not np.all(sites[1:] > sites[:-1]):
        order = np.argsort(sites, kind="stable")
        sites = sites[order]
        weights = weights[order]
        uniq, inverse = np.unique(sites, return_inverse=True)
        if len(uniq) != len(sites):
            merged = np.zeros(len(uniq), dtype=np.complex128)
            np.add.at(merged, inverse, weights)
            sites, weights = uniq, merged
    keep = weights != 0
    sites = sites[keep]
    weights = weights[keep]
    return WeightedMeasure(sites, weights, _total_variation(weights))


def _total_variation(weights: np.ndarray) -> float:
    """``math.fsum(np.abs(weights))``, bit for bit, with a fast equal-magnitude path.

    When every |w| equals x, the exact sum is n*x (n < 2^53 is exact as a
    double); a single float multiply rounds that exact value once, as fsum
    does, so the two agree to the last bit.  A product that overflows falls
    back to fsum.  A magnitude or a sum beyond the double range raises
    ValueError.
    """
    mags = np.abs(weights)
    if len(mags):
        tv = len(mags) * float(mags[0])
        if math.isfinite(tv) and bool(np.all(mags == mags[0])):
            return tv
    try:
        tv = math.fsum(mags)
    except OverflowError:
        tv = math.inf
    if not math.isfinite(tv):
        raise ValueError("total variation of measure atoms overflows a double")
    return tv


def point_mass(site: int, weight: complex = 1.0) -> WeightedMeasure:
    return make_measure([(site, weight)])


def fourier_at(mu: WeightedMeasure, gamma) -> complex:
    """mu_hat(gamma) by compensated direct summation.

    ``gamma`` may be a float (reduced mod 1) or a Fraction, in which case the
    per-atom phase reduction j*gamma mod 1 is carried out in exact integer
    arithmetic before the single rounding to float.
    """
    if mu.n_atoms == 0:
        return 0.0
    if isinstance(gamma, Fraction):
        num, den = gamma.numerator, gamma.denominator
        fracs = np.array(
            [((int(s) * num) % den) / den for s in mu.sites], dtype=np.float64
        )
        phases = np.exp((2j * math.pi) * fracs)
    else:
        phases = _unit_phases(mu.sites, float(gamma) % 1.0)
    return _csum(mu.weights * phases)


def _fold_mod(mu: WeightedMeasure, G: int) -> np.ndarray:
    """Weights folded onto residues mod G; exact because e(j*m/G) has period G in j."""
    idx = np.mod(mu.sites, G)
    folded_re = np.bincount(idx, weights=mu.weights.real, minlength=G)
    folded_im = np.bincount(idx, weights=mu.weights.imag, minlength=G)
    return folded_re + 1j * folded_im


def fourier_grid(mu: WeightedMeasure, G: int) -> np.ndarray:
    """mu_hat at gamma = m/G for m = 0..G-1.

    Folds the sites mod G and applies one inverse FFT (the positive sign
    convention matches numpy's ifft up to the 1/G factor).  The test suite
    cross-validates it against ``fourier_at`` at exact Fraction frequencies.
    """
    if G < 2:
        raise ValueError("grid size must be >= 2")
    if mu.n_atoms == 0:
        return np.zeros(G, dtype=np.complex128)
    return np.fft.ifft(_fold_mod(mu, G)) * G


def _triviality_on_grid(mu: WeightedMeasure, G: int) -> np.ndarray:
    gam = np.arange(G) / G
    return np.abs((1.0 - np.exp((2j * math.pi) * gam)) * fourier_grid(mu, G))


def _degree_and_lipschitz(mu: WeightedMeasure) -> tuple[int, float]:
    """Trig-poly degree of (1-e)mu_hat after integer centering, and its
    Lipschitz constant 2*pi*(1+2R)*TV."""
    fmin = int(mu.sites[0])
    fmax = int(mu.sites[-1]) + 1
    degree = max(1, (fmax - fmin + 1) // 2)
    lip = TWO_PI * (1.0 + 2.0 * mu.support_radius) * mu.total_variation
    return degree, lip


_FP_SLACK = 1e-12  # absolute allowance for roundoff in grid evaluation


def _upper_from_grid(gridmax: float, G: int, degree: int, lip: float) -> float:
    upper = gridmax + lip / (2.0 * G)
    if G > 2 * degree:
        upper = min(upper, gridmax / math.cos(math.pi * degree / G))
    return upper + _FP_SLACK


def _next_pow2(n: int) -> int:
    return 1 << max(1, (int(n) - 1).bit_length())


def _required_grid(degree: int, lip: float, lower: float, slack: float) -> int:
    """Smallest grid (estimate) making the bracket width <= slack."""
    g_lip = int(math.ceil(lip / (2.0 * slack))) if slack > 0 else 1 << 62
    if lower > 0 and slack > 0:
        x = math.acos(1.0 / (1.0 + slack / lower))
        g_ez = int(math.ceil(math.pi * degree / x)) if x > 0 else 1 << 62
    else:
        g_ez = 4 * degree + 1
    return max(4, min(g_lip, g_ez))


def bracket_sup(
    evaluate,
    degree: int,
    lip: float,
    tol: float,
    grid_cap: int = DEFAULT_GRID_CAP,
    label: str = "bracket_sup",
) -> SupBracket:
    """Rigorously bracket the sup of |T| for a trig polynomial T on the circle.

    ``evaluate(G)`` must return |T| at the G equispaced points m/G, ``degree``
    a bound on the centered degree of T and ``lip`` on its derivative.  Grids
    are refined until the enclosure width is <= tol; ResourceCapError if that
    needs a grid beyond ``grid_cap`` (the cap is never silently relaxed: the
    upper end must stay a true bound).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    eff_tol = max(tol - 2 * _FP_SLACK, tol * 0.5)
    lower = 0.0
    upper = math.inf
    G = min(_COARSE_GRID, _next_pow2(grid_cap))
    seen = 0
    while True:
        gridmax = float(np.max(evaluate(G)))
        lower = max(lower, gridmax - _FP_SLACK)
        upper = min(upper, _upper_from_grid(gridmax, G, degree, lip))
        seen = max(seen, G)
        if upper - lower <= tol:
            return SupBracket(lower, upper, seen)
        G_req = _next_pow2(_required_grid(degree, lip, lower, eff_tol))
        G_next = max(G_req, 2 * G)
        if G_next > grid_cap:
            raise ResourceCapError(
                f"{label}: tol={tol:g} needs grid ~{G_next} > cap {grid_cap}; "
                f"bracket so far [{lower:.6g}, {upper:.6g}]"
            )
        G = G_next


def triviality_sup(
    mu: WeightedMeasure, tol: float, grid_cap: int = DEFAULT_GRID_CAP
) -> SupBracket:
    """Bracket sup_gamma |(1 - e(gamma)) mu_hat(gamma)| to within ``tol``."""
    if mu.n_atoms == 0:
        return SupBracket(0.0, 0.0, 0)
    degree, lip = _degree_and_lipschitz(mu)
    return bracket_sup(
        lambda G: _triviality_on_grid(mu, G),
        degree,
        lip,
        tol,
        grid_cap=grid_cap,
        label=f"triviality_sup(radius {mu.support_radius})",
    )


def certify_sup_below(
    mu: WeightedMeasure,
    threshold: float,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> tuple[bool | None, float, float, int]:
    """Decide whether the triviality functional is provably <= threshold.

    Returns (verdict, lower, upper, grid): verdict True or False when decided,
    None when no grid within the cap can close the gap.  ``lower`` is always a
    certified lower bound (an exactly evaluated grid point), ``upper`` the
    smallest rigorous upper bound reached.
    """
    if mu.n_atoms == 0:
        return True, 0.0, 0.0, 0
    degree, lip = _degree_and_lipschitz(mu)
    G = min(_COARSE_GRID, _next_pow2(grid_cap))
    lower = 0.0
    upper = math.inf
    while True:
        vals = _triviality_on_grid(mu, G)
        gridmax = float(vals.max())
        lower = max(lower, gridmax - _FP_SLACK)
        upper = min(upper, _upper_from_grid(gridmax, G, degree, lip))
        if lower > threshold:
            return False, lower, upper, G
        if upper <= threshold:
            return True, lower, upper, G
        margin = threshold - lower
        if margin <= 4 * _FP_SLACK:
            # sup and threshold agree to roundoff: no grid can separate them
            return None, lower, upper, G
        G_req = _next_pow2(_required_grid(degree, lip, lower, margin))
        G_next = max(G_req, 2 * G)
        if G_next > grid_cap:
            return None, lower, upper, G
        G = G_next


def convolve(mu: WeightedMeasure, phi: WeightedMeasure) -> WeightedMeasure:
    """(mu * phi)(x) = sum_j mu(j) phi(x - j); both finitely supported."""
    n, m = mu.n_atoms, phi.n_atoms
    if n == 0 or m == 0:
        return make_measure([])
    if n * m > 50_000_000:
        raise ResourceCapError(f"convolution with {n}x{m} atom pairs exceeds cap")
    sites = (mu.sites[:, None] + phi.sites[None, :]).ravel()
    weights = (mu.weights[:, None] * phi.weights[None, :]).ravel()
    return _from_arrays(sites, weights)


def modulate(mu: WeightedMeasure, theta: float) -> WeightedMeasure:
    """Multiply the weight at site j by e(theta * j); |weights| are unchanged."""
    if mu.n_atoms == 0:
        return mu
    weights = mu.weights * _unit_phases(mu.sites, float(theta) % 1.0)
    return WeightedMeasure(mu.sites.copy(), weights, mu.total_variation)


def measure_to_json(mu: WeightedMeasure) -> str:
    triples = [
        [int(s), float(w.real), float(w.imag)] for s, w in zip(mu.sites, mu.weights)
    ]
    return json.dumps(triples)


def measure_from_json(text: str) -> WeightedMeasure:
    triples = json.loads(text)
    return make_measure([(int(s), complex(re, im)) for s, re, im in triples])


def write_fourier_csv(path, mu: WeightedMeasure, G: int) -> None:
    """CSV export of the Fourier grid with columns gamma,re,im,abs."""
    vals = fourier_grid(mu, G)
    with open(path, "w", newline="") as fh:
        fh.write("gamma,re,im,abs\n")
        for m in range(G):
            v = complex(vals[m])
            fh.write(f"{m / G!r},{v.real!r},{v.imag!r},{abs(v)!r}\n")
