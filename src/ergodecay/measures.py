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

One refinement policy (``_refine``) produces every certified bracket: the
sup brackets of ``triviality_sup`` and ``czmax.sigma_deficit_sup`` (through
``bracket_sup``) and the threshold decisions of ``certify_sup_below``.  They
differ only in when they stop.

The refinement needs only the maximum of |T| over each grid, and one
evaluator, ``_subgrid_max``, takes it for both brackets without a G-point
array: interleaved sub-grids m = t + P*s, each one FFT of the modulated
atoms, times an optional factor (the four-step FFT of Bailey, "FFTs in
external or hierarchical memory", J. Supercomputing 4(1), 1990).  The
sigma-deficit bracket passes mu and the factor 1 - sigma_hat.  The
triviality bracket passes the difference measure mu - delta_1 * mu, whose
transform is (1 - e(gamma)) mu_hat(gamma), above ``_SUBGRID_MIN`` points and
evaluates smaller grids whole (fold, inverse FFT, the 1 - e table).
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

# Largest triviality grid evaluated whole, and the least sub-grid length above it.
_SUBGRID_MIN = 1 << 16
# Sub-grid points per batched FFT: 4 MB of complex128, the fastest of
# 2^16..2^20 points when timed on a 2^22 grid (180 and 2 atoms)
_SUBGRID_BATCH = 1 << 18

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
]


def _two_product(a: np.ndarray, b: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
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
    if not keep.all():
        sites = sites[keep]
        weights = weights[keep]
    return WeightedMeasure(sites, weights, _total_variation(weights))


def _uniform_on(sites: np.ndarray) -> WeightedMeasure:
    """Uniform probability measure on the given sites: weight 1/N on each.

    Equal, bit for bit, to ``_from_arrays(sites, np.full(N, 1/N))``.  Strictly
    increasing sites (the families' case) skip its checks: 1/N is nonzero and
    the total variation N*(1/N) rounds the exact sum of the N weights once, so
    it is the double ``fsum`` returns.  Other sites go through
    ``_from_arrays``, which sorts them and merges collisions.
    """
    N = len(sites)
    weights = np.full(N, 1.0 / N, dtype=np.complex128)
    if N > 1 and not np.all(sites[1:] > sites[:-1]):
        return _from_arrays(sites, weights)
    return WeightedMeasure(sites, weights, N * (1.0 / N))


def _total_variation(weights: np.ndarray) -> float:
    """``math.fsum(np.abs(weights))``; ValueError for a magnitude or a sum
    beyond the double range."""
    try:
        tv = math.fsum(np.abs(weights))
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
    # for G = 2^k the mask is the mod, negative sites included (two's complement)
    idx = mu.sites & (G - 1) if G & (G - 1) == 0 else np.mod(mu.sites, G)
    folded = np.empty(G, dtype=np.complex128)
    folded.real = np.bincount(idx, weights=mu.weights.real, minlength=G)
    imag = mu.weights.imag
    folded.imag = np.bincount(idx, weights=imag, minlength=G) if imag.any() else 0.0
    return folded


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
    return _transform_fold(_fold_mod(mu, G))


def _transform_fold(folded: np.ndarray) -> np.ndarray:
    """mu_hat on the grid m/G from mu's fold mod G = len(folded), in place."""
    vals = np.fft.ifft(folded, out=folded)  # in place: no second G-point array
    vals *= len(folded)
    return vals


def _one_minus_e(G: int) -> np.ndarray:
    """1 - e(m/G) for m = 0..G-1, computed in place."""
    factor = (2j * math.pi) * (np.arange(G) / G)
    np.exp(factor, out=factor)
    return np.subtract(1.0, factor, out=factor)


_ONE_MINUS_E_COARSE = _one_minus_e(_COARSE_GRID)
_ONE_MINUS_E_COARSE.flags.writeable = False


def _triviality_on_grid(
    mu: WeightedMeasure, G: int, folded: np.ndarray | None = None
) -> np.ndarray:
    """|(1 - e) mu_hat| at the G points m/G; ``folded``, when given, is mu's
    fold mod G, which the transform overwrites."""
    vals = fourier_grid(mu, G) if folded is None else _transform_fold(folded)
    factor = _ONE_MINUS_E_COARSE if G == _COARSE_GRID else _one_minus_e(G)
    np.multiply(factor, vals, out=vals)
    return np.abs(vals)


def _difference_measure(mu: WeightedMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Sites and weights of mu - delta_1 * mu, whose transform is
    (1 - e(gamma)) mu_hat(gamma), in linear time.

    Atom i contributes w_i at s_i and -w_i at s_i + 1.  The sites are strictly
    increasing, so s_i + 1 can only meet s_(i+1); there the weight is
    w_(i+1) - w_i, one rounding.  Exact zeros are dropped.
    """
    s, w = mu.sites, mu.weights
    # s_(i+1) - s_i wraps only for spans past 2^63, and then it is not 1
    adjacent = s[1:] - s[:-1] == 1
    head = w.copy()
    np.subtract(w[1:], w[:-1], out=head[1:], where=adjacent)
    tail = np.append(~adjacent, True)  # atoms whose s_i + 1 is no site
    nonzero = head != 0
    sites = np.concatenate([s[nonzero], s[tail] + 1])
    return sites, np.concatenate([head[nonzero], -w[tail]])


def _subgrid_max(sites: np.ndarray, weights: np.ndarray, G: int, factor=None) -> float:
    """max_m |F(m/G) f(m)| over a power-of-two grid G, F(gamma) =
    sum_k d_k e(k gamma) the transform of the atoms (d_k at sites k) and f =
    ``factor(m, G)`` at int64 indices m (1 when None), from cache-sized sub-grids.

    Write m = t + P*s with L = G/P points per sub-grid,
    L = min(G, max(_SUBGRID_MIN, next_pow2(4 * atoms))).  Then
    F((t + P*s)/G) = sum_k [d_k e(k t/G)] e(k s/L): sub-grid t is the L-point
    inverse DFT of the atoms modulated by e(k t/G) and folded mod L.  The
    phase (k mod G) * t mod G is an exact integer, divided exactly by G.
    Sub-grids go through one 2-D FFT per batch of _SUBGRID_BATCH points, the
    factor takes _SUBGRID_MIN of them per call, and only the running maximum
    of |.| is kept: memory is O(L + atoms), work P * atoms + G log L.

    Roundoff, u = 2^-53, D = sum |d_k|, M the most atoms on one residue mod
    L: at first order F is within E = (19 + sqrt(2) M + 7 log2 L) u D.
      - Modulation: the angle 2 pi (r/G) rounds twice (4 pi u), cos and sin
        are within one ulp (2 sqrt(2) u), the complex product adds
        sqrt(2) gamma_2: under 19 u |d_k|.
      - Fold: sequential sums of at most M terms per residue, gamma_M on
        |Re| + |Im|, so sqrt(2) gamma_M D through the unit-modulus DFT.
      - L-point FFT: log2 L butterfly levels with eta = mu_w + gamma_4
        (sqrt(2) + mu_w), twiddle error mu_w <= u (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., 2002, sec. 24.1), taken
        componentwise: every input reaches every output along one path of
        unit-modulus factors, so each output is within log2 L * 7u * D.
    The full-grid path below _SUBGRID_MIN has the same form, with the atoms
    per residue mod G for M.  For TV(mu) <= 1 (every family measure is a
    probability measure), M <= 2^10 and L <= 2^25, criterion 09's range:
      - triviality: the difference measure (D <= 2 TV(mu)) rounds once per
        collision and |.| adds 2u D: E + 3u D <= 2 (22 + 1449 + 175) u;
      - sigma deficit (D = TV(mu)): f = 1 - sigma_hat has modulus <= 2 and
        error <= 30u (``czmax.sigma_hat_grid``), the product adds
        sqrt(2) gamma_2 2D and |.| 4u D: 2E + 40u D <= (2 (19 + 1449 + 175) + 40) u.
    Both are under 3.7e-13 < _FP_SLACK; ROADMAP item 3 derives the slack beyond.
    """
    sites = sites & (G - 1)
    L = min(G, max(_SUBGRID_MIN, _next_pow2(4 * len(sites))))
    P = G // L
    rows = max(1, min(P, _SUBGRID_BATCH // L))
    cols = sites & (L - 1)
    batch = np.empty((rows, L), dtype=np.complex128)
    flat = batch.reshape(-1)
    mags = np.empty((rows, L))
    C = min(L, _SUBGRID_MIN)  # factor points per call
    best = 0.0
    for t0 in range(0, P, rows):
        t = np.arange(t0, t0 + rows, dtype=np.int64)[:, None]
        phase = (sites * t) & (G - 1)  # exact: both factors are below G
        vals = np.exp((2j * math.pi) * (phase / G))
        vals *= weights
        flat.fill(0.0)
        np.add.at(flat, (np.arange(rows)[:, None] * L + cols).ravel(), vals.ravel())
        np.fft.ifft(batch, axis=1, norm="forward", out=batch)
        if factor is not None:
            for j in range(0, rows * L, C):
                i, s = divmod(j, L)  # flat[j] is m = t0 + i + P*s
                flat[j : j + C] *= factor(t0 + i + P * np.arange(s, s + C), G)
        best = max(best, float(np.abs(batch, out=mags).max()))
    return best


def _triviality_max(
    mu: WeightedMeasure, G: int, coarse_fold: np.ndarray | None = None
) -> float:
    """max over the G-point grid of |(1 - e) mu_hat|: the whole grid up to
    _SUBGRID_MIN points, sub-grids of the difference measure above.
    ``coarse_fold``, when given, is mu's fold mod _COARSE_GRID; the coarse
    grid consumes it (``_refine`` evaluates each grid size once)."""
    if G > _SUBGRID_MIN:
        return _subgrid_max(*_difference_measure(mu), G)
    folded = coarse_fold if G == _COARSE_GRID else None
    return float(np.max(_triviality_on_grid(mu, G, folded)))


def _degree_and_lipschitz(mu: WeightedMeasure) -> tuple[int, float]:
    """Trig-poly degree of (1-e)mu_hat after integer centering, and its
    Lipschitz constant 2*pi*(1+2R)*TV."""
    fmin = int(mu.sites[0])
    fmax = int(mu.sites[-1]) + 1
    degree = max(1, (fmax - fmin + 1) // 2)
    lip = TWO_PI * (1.0 + 2.0 * mu.support_radius) * mu.total_variation
    return degree, lip


_FP_SLACK = 1e-12  # absolute allowance for roundoff in grid evaluation
_UNIT_ROUNDOFF = 2.0**-53


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


def _refine(evaluate, degree: int, lip: float, grid_cap: int, next_width):
    """The one grid-refinement policy behind every certified sup bracket.

    Evaluates max |T| on equispaced grids from the coarse grid up (``evaluate``
    returns that maximum as a float), keeping the largest grid max
    (less roundoff) as the lower end and the smallest rigorous bound as the
    upper end.  After each grid, ``next_width(lower, upper)``
    returns None to stop, or the bracket width the next grid must reach; that
    grid is the estimate for the width, and at least double the last one.
    Returns (lower, upper, G, refused): G is the last grid evaluated, and
    ``refused`` the next grid when it would exceed ``grid_cap``, else None.
    The first grid is the coarse grid, or the largest power of two within
    the cap if that is smaller.
    """
    if grid_cap < 2:
        raise ValueError(f"grid_cap must be >= 2, got {grid_cap}")
    G = min(_COARSE_GRID, 1 << (int(grid_cap).bit_length() - 1))
    lower = 0.0
    upper = math.inf
    while True:
        gridmax = evaluate(G)
        lower = max(lower, gridmax - _FP_SLACK)
        upper = min(upper, _upper_from_grid(gridmax, G, degree, lip))
        width = next_width(lower, upper)
        if width is None:
            return lower, upper, G, None
        G_next = max(_next_pow2(_required_grid(degree, lip, lower, width)), 2 * G)
        if G_next > grid_cap:
            return lower, upper, G, G_next
        G = G_next


def bracket_sup(
    evaluate,
    degree: int,
    lip: float,
    tol: float,
    grid_cap: int = DEFAULT_GRID_CAP,
    label: str = "bracket_sup",
) -> SupBracket:
    """Rigorously bracket the sup of |T| for a trig polynomial T on the circle.

    ``evaluate(G)`` must return the maximum of |T| over the G equispaced
    points m/G, ``degree`` a bound on the centered degree of T and ``lip`` on
    its derivative.  Grids are refined until the enclosure width is <= tol; ResourceCapError if that
    needs a grid beyond ``grid_cap`` (the cap is never silently relaxed: the
    upper end must stay a true bound).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    eff_tol = max(tol - 2 * _FP_SLACK, tol * 0.5)
    lower, upper, G, refused = _refine(
        evaluate, degree, lip, grid_cap,
        lambda lower, upper: None if upper - lower <= tol else eff_tol,
    )
    if refused is not None:
        raise ResourceCapError(
            f"{label}: tol={tol:g} needs grid ~{refused} > cap {grid_cap}; "
            f"bracket so far [{lower:.6g}, {upper:.6g}]"
        )
    return SupBracket(lower, upper, G)


def triviality_sup(
    mu: WeightedMeasure, tol: float, grid_cap: int = DEFAULT_GRID_CAP
) -> SupBracket:
    """Bracket sup_gamma |(1 - e(gamma)) mu_hat(gamma)| to within ``tol``."""
    if mu.n_atoms == 0:
        return SupBracket(0.0, 0.0, 0)
    degree, lip = _degree_and_lipschitz(mu)
    return bracket_sup(
        lambda G: _triviality_max(mu, G),
        degree,
        lip,
        tol,
        grid_cap=grid_cap,
        label=f"triviality_sup(radius {mu.support_radius})",
    )


def _quarter_witness(mu: WeightedMeasure, fold: np.ndarray | None = None) -> float:
    """Certified lower bound on max_{a=1,2,3} |T(a/4)|, T = (1 - e) mu_hat.

    With W_r the weight on sites = r mod 4 (the fold mod 4),
    T(a/4) = (1 - i^a) sum_r W_r i^(ar).  The powers of i only swap and
    negate, so the roundoff is that of the ``bincount`` sums, at most
    gamma_n * sum(|Re w| + |Im w|) <= sqrt(2) gamma_n TV, and of a few
    operations on sums bounded by 2 TV.  The slack 4 gamma_(n+8) TV covers
    both and the rounding of the subtraction.  The 2*_FP_SLACK on top keeps
    the witness at or below the coarse-grid lower bound, whose grid holds the
    points a/4, whenever that grid's FFT roundoff stays below _FP_SLACK (the
    premise of the grid lower bound itself).

    ``fold`` may instead be mu's fold mod a multiple of 4 (the coarse grid's):
    W_r is then the sum of its len(fold)/4 bins = r mod 4, each weight passes
    through at most len(fold)/4 - 1 more additions, and the slack takes
    gamma_(n+7+len(fold)/4) in place of gamma_(n+8).
    """
    if fold is None:
        fold = _fold_mod(mu, 4)
    w0, w1, w2, w3 = fold.reshape(-1, 4).sum(axis=0).tolist()
    even, odd = w0 - w2, w1 - w3  # sum_r W_r i^(ar) = even + i^a odd for odd a
    t1 = (1 - 1j) * (even + 1j * odd)
    t2 = 2 * ((w0 + w2) - (w1 + w3))
    t3 = (1 + 1j) * (even - 1j * odd)
    m = mu.n_atoms + 7 + len(fold) // 4
    gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
    slack = 4.0 * gamma * mu.total_variation + 2 * _FP_SLACK
    return max(abs(t1), abs(t2), abs(t3)) - slack


def certify_sup_below(
    mu: WeightedMeasure,
    threshold: float,
    grid_cap: int = DEFAULT_GRID_CAP,
    skip_above: float = math.inf,
) -> tuple[bool | None, float, float, int]:
    """Decide whether the triviality functional is provably <= threshold.

    Returns (verdict, lower, upper, grid): verdict True or False when decided,
    None when no grid within the cap can close the gap.  ``lower`` is always a
    certified lower bound: an exactly evaluated grid point less roundoff, or a
    quarter-frequency witness.  ``upper`` is the smallest rigorous upper bound
    reached, and inf on a witness rejection.

    With a finite ``skip_above``, the witness at gamma = 1/4, 1/2, 3/4 is
    computed first, from four residue sums; when it exceeds both the threshold
    and ``skip_above``, the call returns (False, witness, inf, 0) without
    evaluating any grid.  The witness is no larger than the coarse-grid lower
    bound (see ``_quarter_witness``), so a caller that keeps the minimum of
    ``lower`` and passes that minimum as ``skip_above`` sees the same minimum
    and the same verdicts.  Measures of _SUBGRID_MIN atoms or more take the
    witness from their fold mod _COARSE_GRID, which the coarse grid then
    reuses: one pass over the atoms instead of two.
    """
    if mu.n_atoms == 0:
        return True, 0.0, 0.0, 0
    coarse_fold = None
    if skip_above < math.inf:
        if mu.n_atoms >= _SUBGRID_MIN:
            coarse_fold = _fold_mod(mu, _COARSE_GRID)
        witness = _quarter_witness(mu, coarse_fold)
        if witness > threshold and witness > skip_above:
            return False, witness, math.inf, 0

    def next_width(lower, upper):
        # done when decided, or when sup and threshold agree to roundoff (no
        # grid can separate them); else the gap left below the threshold
        if lower > threshold or upper <= threshold or threshold - lower <= 4 * _FP_SLACK:
            return None
        return threshold - lower

    degree, lip = _degree_and_lipschitz(mu)
    lower, upper, G, _ = _refine(
        lambda G: _triviality_max(mu, G, coarse_fold), degree, lip, grid_cap, next_width
    )
    verdict = False if lower > threshold else True if upper <= threshold else None
    return verdict, lower, upper, G


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
