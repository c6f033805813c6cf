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

The refinement needs only the maximum of |T| over each grid.
``_subgrid_max`` defines it without a G-point array: interleaved sub-grids
m = t + P*s, each one FFT of the modulated atoms, times an optional factor
(the four-step FFT of Bailey, "FFTs in external or hierarchical memory",
J. Supercomputing 4(1), 1990).  ``_pruned_max`` returns the same double from
few of those sub-grids.  By Bernstein's inequality only a few cells of a
grid of about 8d points (d the degree) can hold the maximum; direct sums
refine them up to G, and only the sub-grids that hold the last candidates
are evaluated.  Both brackets use it.  The sigma-deficit bracket passes mu
and the factor 1 - sigma_hat.  The triviality bracket passes the difference
measure mu - delta_1 * mu, whose transform is (1 - e(gamma)) mu_hat(gamma),
above ``_SUBGRID_MIN`` points, and evaluates smaller grids whole (fold,
inverse FFT, the 1 - e table).  When its atoms' offsets share a factor g with
G, |T| on the G grid has period G/g, and the G/g-point grid of the offsets
over g gives the maximum (``_triviality_max``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ResourceCapError

TWO_PI = 2.0 * math.pi

# Largest grid a sup bracket or certification evaluates.  Sub-grids keep memory
# at O(L + atoms) for any G (``_subgrid_max``), so the cap bounds time: work
# grows as G log G.
DEFAULT_GRID_CAP = 1 << 25

# First grid of every sup bracket and certification.
_COARSE_GRID = 4096

# Largest triviality grid evaluated whole, and the least sub-grid length above it.
_SUBGRID_MIN = 1 << 16
# Sub-grid points per batched FFT: 4 MB of complex128, the fastest of
# 2^16..2^20 points when timed on a 2^22 grid (180 and 2 atoms)
_SUBGRID_BATCH = 1 << 18
# Sub-grid FFT terms (points times log2 L) per direct-sum term (points times
# atoms) that ``_pruned_max`` may spend: a direct term costs about 40 FFT
# terms (50 ns against 1.2-1.9 ns, numpy 2.4 on two x86-64 cores), so direct
# sums stay under the cost of the sub-grids they replace
_DIRECT_TERM_COST = 64

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant
_MAX_EXACT_SITE = 1 << 53  # sites beyond this do not convert to float64 exactly

__all__ = [
    "WeightedMeasure",
    "SupBracket",
    "make_measure",
    "fourier_at",
    "fourier_grid",
    "triviality_sup",
    "bracket_sup",
    "certify_sup_below",
    "convolve",
    "modulate",
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

    Instances are immutable; every operation returns a new measure.  The
    arrays may be read-only views: a uniform measure's weights are one
    complex 1/N viewed with zero stride as N entries (``_uniform_on``),
    which take no memory and raise on any in-place write.

    An interval measure, uniform on the N consecutive sites a, ..., a + N - 1
    (``_uniform_interval``: every ``czmax.sigma_n``), keeps a as ``_start``
    and no site array.  The first read of ``sites`` builds the read-only
    int64 ``arange(a, a + N)`` and caches it.  The certification path reads
    only the ends (``_ends``), the closed-form fold of ``_fold_mod`` and the
    two-atom ``_difference_measure``, so it never builds them.
    """

    sites: np.ndarray  # int64, strictly increasing; built on first read for an interval
    weights: np.ndarray  # complex128, no exact zeros; possibly a read-only view
    total_variation: float
    _start: int | None = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # only an interval measure lacks ``sites`` until they are read
        a = self._start
        if name != "sites" or a is None:
            raise AttributeError(name)
        sites = np.arange(a, a + self.n_atoms, dtype=np.int64)
        sites.flags.writeable = False
        object.__setattr__(self, "sites", sites)
        return sites

    @property
    def _ends(self) -> tuple[int, int]:
        """(least site, greatest site) of a nonempty measure, in O(1)."""
        a = self._start
        if a is not None:
            return a, a + self.n_atoms - 1
        return int(self.sites[0]), int(self.sites[-1])

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def support_radius(self) -> int:
        if self.n_atoms == 0:
            return 0
        first, last = self._ends
        return max(last, -first)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedMeasure):
            return NotImplemented
        return (
            self.n_atoms == other.n_atoms
            and np.array_equal(self.sites, other.sites)
            and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True)
class SupBracket:
    """Rigorous enclosure [lower, upper] of a sup over the circle."""

    lower: float
    upper: float
    grid_size: int


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
    """Uniform probability measure on N strictly increasing sites: weight 1/N
    on each.  The caller guarantees the order; it is not checked.

    Equal, bit for bit, to ``_from_arrays(sites, np.full(N, 1/N))``: 1/N is
    nonzero and the total variation N*(1/N) rounds the exact sum of the N
    weights once, so it is the double ``fsum`` returns.  The weights are a
    read-only one-element array holding 1/N, viewed with zero stride as N
    entries, so the measure costs O(1) beyond its sites.
    """
    N = len(sites)
    return WeightedMeasure(sites, _uniform_weights(N), N * (1.0 / N))


def _uniform_interval(a: int, N: int) -> WeightedMeasure:
    """Uniform probability measure on the N >= 1 sites a, ..., a + N - 1,
    stored as the interval (a, N): no site array until ``sites`` is read."""
    mu = WeightedMeasure(None, _uniform_weights(N), N * (1.0 / N))
    object.__setattr__(mu, "_start", a)
    object.__delattr__(mu, "sites")
    return mu


def _uniform_weights(N: int) -> np.ndarray:
    """N entries 1/N: one read-only complex viewed with zero stride."""
    one = np.array([1.0 / N], dtype=np.complex128)
    one.flags.writeable = False
    return np.ndarray((N,), np.complex128, one, strides=(0,))


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
    """Weights folded onto residues mod G; exact because e(j*m/G) has period G in j.

    The atoms go in blocks of _SUBGRID_MIN, so no n-length temporary is made
    and zero-stride weights are never copied.  ``np.add.at`` adds each
    residue's weights in site order, as ``np.bincount`` does: the same bits.
    Zero-stride weights store one weight, and it alone decides whether the
    imaginary parts need binning.

    An interval measure on a, ..., a + N - 1 with weight w puts floor(N/G)
    atoms on each residue, and one more on the N mod G residues from a mod G
    up (any G, negative a included).  When w is real and a power of two and
    N < 2^53, every partial sum k*w of the block path is exact, so its fold
    is count * w, bit for bit, in O(G) and without the sites.  Other weights
    take the block path.
    """
    folded = np.zeros(G, dtype=np.complex128)
    w, N, a = mu.weights, mu.n_atoms, mu._start
    if a is not None and N < 1 << 53 and w[0].imag == 0 and math.frexp(w[0].real)[0] == 0.5:
        counts = np.full(G, N // G, dtype=np.int64)
        counts[: N % G] += 1
        np.multiply(np.roll(counts, a % G), w[0].real, out=folded.real)
        return folded
    parts = [(folded.real, w.real)]
    if (w[:1] if w.strides == (0,) else w).imag.any():
        parts.append((folded.imag, w.imag))
    for i0 in range(0, N, _SUBGRID_MIN):
        block = mu.sites[i0 : i0 + _SUBGRID_MIN]
        # for G = 2^k the mask is the mod, negative sites included (two's complement)
        idx = block & (G - 1) if G & (G - 1) == 0 else np.mod(block, G)
        for out, weights in parts:
            np.add.at(out, idx, weights[i0 : i0 + _SUBGRID_MIN])
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
    folded = _fold_mod(mu, G)
    vals = np.fft.ifft(folded, out=folded)  # in place: no second G-point array
    vals *= G
    return vals


def _one_minus_e(G: int) -> np.ndarray:
    """1 - e(m/G) for m = 0..G-1, computed in place."""
    factor = (2j * math.pi) * (np.arange(G) / G)
    np.exp(factor, out=factor)
    return np.subtract(1.0, factor, out=factor)


_ONE_MINUS_E_COARSE = _one_minus_e(_COARSE_GRID)
_ONE_MINUS_E_COARSE.flags.writeable = False


def _triviality_on_grid(mu: WeightedMeasure, G: int) -> np.ndarray:
    """|(1 - e) mu_hat| at the G points m/G."""
    vals = fourier_grid(mu, G)
    factor = _ONE_MINUS_E_COARSE if G == _COARSE_GRID else _one_minus_e(G)
    np.multiply(factor, vals, out=vals)
    return np.abs(vals)


def _difference_measure(mu: WeightedMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Sites and weights of mu - delta_1 * mu, whose transform is
    (1 - e(gamma)) mu_hat(gamma), in linear time.

    Atom i contributes w_i at s_i and -w_i at s_i + 1.  The sites are strictly
    increasing, so s_i + 1 can only meet s_(i+1); there the weight is
    w_(i+1) - w_i, one rounding.  Exact zeros are dropped.  The atoms are
    taken in blocks of _SUBGRID_MIN, so no n-length temporary is made beyond
    the kept atoms (a uniform measure on consecutive sites keeps 2).

    An interval measure on a, ..., a + N - 1 with weight w has the atoms
    (a, w) and (a + N, -w) only: its inner heads w - w are exact zeros, for
    any w.  They are returned without reading a site, with the block path's
    dtypes and bits (-w negates both parts, so -0.0 where w has +0.0).
    """
    a = mu._start
    if a is not None:
        w = mu.weights[:1]
        return np.array([a, a + mu.n_atoms], dtype=np.int64), np.concatenate([w, -w])
    s, w = mu.sites, mu.weights
    n = len(s)
    head_s, head_w, tail_s, tail_w = [], [], [], []
    for i0 in range(0, n, _SUBGRID_MIN):
        i1 = min(n, i0 + _SUBGRID_MIN)
        # edge[j]: sites i0+j-1 and i0+j are adjacent, False off either end;
        # s_(i+1) - s_i wraps only for spans past 2^63, and then it is not 1
        edge = np.zeros(i1 - i0 + 1, dtype=bool)
        edge[i0 == 0 : len(edge) - (i1 == n)] = np.diff(s[max(i0 - 1, 0) : i1 + 1]) == 1
        head = np.array(w[i0:i1])
        j0 = max(i0, 1)
        np.subtract(w[j0:i1], w[j0 - 1 : i1 - 1], out=head[j0 - i0 :], where=edge[j0 - i0 : -1])
        nonzero = head != 0
        tail = ~edge[1:]  # atoms whose s_i + 1 is no site
        head_s.append(s[i0:i1][nonzero])
        head_w.append(head[nonzero])
        tail_s.append(s[i0:i1][tail] + 1)
        tail_w.append(-w[i0:i1][tail])
    return np.concatenate(head_s + tail_s), np.concatenate(head_w + tail_w)


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
    P = _subgrid_shape(len(sites), G)[1]
    best = 0.0
    for _, mags in _subgrid_rows(sites, weights, G, factor, np.arange(P)):
        best = max(best, float(mags.max()))
    return best


def _subgrid_shape(n_atoms: int, G: int) -> tuple[int, int]:
    """Points per sub-grid L and sub-grid count P = G/L of ``_subgrid_max``."""
    L = min(G, max(_SUBGRID_MIN, _next_pow2(4 * n_atoms)))
    return L, G // L


def _subgrid_rows(sites: np.ndarray, weights: np.ndarray, G: int, factor, ts: np.ndarray):
    """Yield (t, mags) for the sub-grids t in the int64 array ``ts``, a batch
    at a time: mags[i, s] = |F(m/G) f(m)| at m = t[i] + P*s, as
    ``_subgrid_max`` defines them.  A sub-grid's values do not depend on the
    sub-grids that share its batch.  ``mags`` is overwritten by the next batch.
    """
    sites = sites & (G - 1)
    L, P = _subgrid_shape(len(sites), G)
    rows = max(1, min(P, _SUBGRID_BATCH // L))
    cols = sites & (L - 1)
    buf = np.empty((rows, L), dtype=np.complex128)
    mags = np.empty((rows, L))
    C = min(L, _SUBGRID_MIN)  # factor points per call
    for b in range(0, len(ts), rows):
        t = ts[b : b + rows]
        k = len(t)
        batch = buf[:k]
        flat = batch.reshape(-1)
        phase = (sites * t[:, None]) & (G - 1)  # exact: both factors are below G
        vals = np.exp((2j * math.pi) * (phase / G))
        vals *= weights
        flat.fill(0.0)
        np.add.at(flat, (np.arange(k)[:, None] * L + cols).ravel(), vals.ravel())
        np.fft.ifft(batch, axis=1, norm="forward", out=batch)
        if factor is not None:
            for j in range(0, k * L, C):
                i, s = divmod(j, L)  # flat[j] is m = t[i] + P*s
                flat[j : j + C] *= factor(t[i] + P * np.arange(s, s + C), G)
        yield t, np.abs(batch, out=mags[:k])


def _direct_values(sites: np.ndarray, weights: np.ndarray, G: int, m: np.ndarray, factor) -> np.ndarray:
    """|F(m/G) f(m)| at the int64 indices m, each a direct sum over the atoms
    with ``_subgrid_max``'s exact integer phases.  ``np.sum`` adds pairwise in
    a fixed order (no BLAS), each term through at most 18 + log2(atoms)
    roundings: ``_subgrid_max``'s bound holds with sqrt(2) (18 + log2 atoms)
    in place of the fold's and FFT's sqrt(2) M + 7 log2 L, which is larger."""
    sites = sites & (G - 1)
    out = np.empty(len(m))
    chunk = max(1, _SUBGRID_BATCH // len(sites))
    for i0 in range(0, len(m), chunk):
        mm = m[i0 : i0 + chunk]
        vals = np.exp((2j * math.pi) * (((sites * mm[:, None]) & (G - 1)) / G))
        vals *= weights
        sums = vals.sum(axis=1)
        if factor is not None:
            sums *= factor(mm, G)
        np.abs(sums, out=out[i0 : i0 + chunk])
    return out


def _pruned_max(sites: np.ndarray, weights: np.ndarray, G: int, degree: int, factor=None) -> float:
    """``_subgrid_max(sites, weights, G, factor)``, the same double, from the
    few sub-grids that can hold its maximum.  ``degree`` bounds the centred
    degree d of T = F f, a trigonometric polynomial.

    Bernstein's inequality |T'| <= 2 pi d sup|T| (Zygmund, Trigonometric
    Series, vol. II, ch. X) bounds how fast |T| moves between grid points:
      1. The pruning grid G0 = max(next_pow2(8 d), L) has pi d/G0 <= pi/8.  It
         is the sub-grids t = 0, G/G0, 2G/G0, ... of G's.  With top its largest
         value, U = (top + s)/cos(pi d/G0) bounds sup|T|, s = _FP_SLACK.  Its
         points below top - pi d U/G0 - 4s are dropped.
      2. Each doubling G_j -> 2 G_j adds the points 2m - 1 and 2m + 1 around
         every kept m, evaluated by direct sums (``_direct_values``), and drops
         the points below top - pi d U/G_j - 4s, top the largest value so far.
      3. At G, the sub-grids t = m mod P of the points within 4s of top are
         evaluated as ``_subgrid_max`` evaluates them, and the largest |.| on
         them is returned.
    Why the maximum survives.  Let x be the point of the G grid with the
    largest sub-grid value, the point ``_subgrid_max`` reports.  Suppose every
    value, sub-grid or direct, is within s of the exact |T| (the premise of
    ``_grid_lower``: ``_subgrid_max`` bounds the roundoff below s for
    criterion 09's range, direct sums have less, and ROADMAP item 3 derives
    the slack beyond it).  Then no value exceeds |T(x)| + 3s.  The G_j point
    y nearest x, at most 1/(2 G_j) away, has |T(y)| >= |T(x)| - pi d U/G_j,
    so y passes the cut at every level, and y is a child of the point nearest
    x one level up.  At G, y = x is within 4s of top, so step 3 evaluates
    its sub-grid.

    The sub-grids of step 1 are part of G's, so every fallback keeps their
    maxima and evaluates the rest, the work of ``_subgrid_max``: when the
    direct work (points times atoms) would exceed B = G log2 L /
    _DIRECT_TERM_COST, counting each doubling still to go at the points of
    the next one, so that a fallback comes before the direct sums it would
    waste; when step 1 keeps more than min(L, B / (2 atoms)) points; or when
    step 3 needs more than P/2 sub-grids.  G0 >= G is
    ``_subgrid_max`` itself.  These depend on sizes only.
    """
    n = len(sites)
    L, P = _subgrid_shape(n, G)
    G0 = max(_next_pow2(8 * degree), L)
    if G0 >= G:
        return _subgrid_max(sites, weights, G, factor)
    step = G // G0
    bernstein = math.pi * degree / math.cos(math.pi * degree / G0)  # pi d U / (top + s)
    budget = G * (L.bit_length() - 1) // _DIRECT_TERM_COST
    row_max = {}
    top = 0.0
    # the kept points of the current grid and their values; m is None once
    # the sizes send the evaluation back to every sub-grid
    m, v = np.empty(0, dtype=np.int64), np.empty(0)
    for t, mags in _subgrid_rows(sites, weights, G, factor, np.arange(0, P, step)):
        row_max.update(zip(t.tolist(), mags.max(axis=1).tolist()))
        if m is None:
            continue
        top = max(top, float(mags.max()))
        margin = bernstein * (top + _FP_SLACK)  # pi d U, U from the top so far
        floor = top - margin / G0 - 4 * _FP_SLACK
        i, s = np.nonzero(mags >= floor)
        keep = v >= floor
        m = np.concatenate([m[keep], (t[i] + P * s) // step])
        v = np.concatenate([v[keep], mags[i, s]])
        if len(m) > min(L, budget // (2 * n)):
            m = None
    Gj, spent = G0, 0
    while m is not None and Gj < G:
        keep = v >= top - margin / Gj - 4 * _FP_SLACK
        m, v = m[keep], v[keep]
        levels_left = (G // Gj).bit_length() - 1
        Gj *= 2
        odd = np.unique(np.concatenate([2 * m - 1, 2 * m + 1]) & (Gj - 1))
        if spent + levels_left * len(odd) * n > budget:
            m = None
            break
        spent += len(odd) * n
        m = np.concatenate([2 * m, odd])
        v = np.concatenate([v, _direct_values(sites, weights, Gj, odd, factor)])
        top = max(top, float(v.max()))
    rows = np.arange(P)
    if m is not None:
        near = np.unique(m[v >= top - 4 * _FP_SLACK] % P)
        if len(near) <= P // 2:
            rows = near
    todo = np.array([t for t in rows.tolist() if t not in row_max], dtype=np.int64)
    for t, mags in _subgrid_rows(sites, weights, G, factor, todo):
        row_max.update(zip(t.tolist(), mags.max(axis=1).tolist()))
    return max(row_max[t] for t in rows.tolist())


def _triviality_max(mu: WeightedMeasure, G: int) -> float:
    """max over the G-point grid of |(1 - e) mu_hat|: the whole grid up to
    _SUBGRID_MIN points, the pruned sub-grids of the difference measure above.

    Above _SUBGRID_MIN the grid may alias.  Let the difference measure have
    atoms d_k at s_k, s_0 = min(mu's sites), and g = gcd(G, (s_k - s_0) mod G
    for all k), a power of two like G.  Then g divides every s_k - s_0, and
    with t_k = ((s_k - s_0) mod G)/g
        |F(m/G)| = |e(s_0 m/G) sum_k d_k e(t_k m/(G/g))|,
    so |F| on the G grid is periodic in m with period G/g and takes its
    maximum on the first G/g points: the grid of G/g points of the atoms d_k
    at t_k (for G/g = 1, the one point |sum_k d_k|).  Degree: the integers
    (s_k - s_0)/g agree with t_k mod G/g and span at most (R + 1)/g, R + 1 =
    max(mu's sites) + 1 - s_0 the span of the s_k, so the degree
    d = ceil((R + 1)/2) of ``_degree_and_lipschitz`` gives the bound
    d' = ceil(d/g) >= ceil((R + 1)/(2g)) for ``_pruned_max``.  Roundoff: the
    atoms' D = sum |d_k| is unchanged.  With A = max(_SUBGRID_MIN,
    next_pow2(4 atoms)), L = min(G, A) and L' = min(G/g, A) <= L; two atoms
    share a residue mod L' only if their sites agree mod g L' = min(G, g A),
    a multiple of L, so they share one mod L too: M' <= M.  The bound of
    ``_subgrid_max``, and with it the premise of _FP_SLACK, carries over.
    The difference measure of every CLI family has atoms at s and s + 1, so
    g = 1 there and the call is unchanged.
    """
    if G > _SUBGRID_MIN:
        sites, weights = _difference_measure(mu)
        degree = _degree_and_lipschitz(mu)[0]
        offsets = (sites - mu._ends[0]) & (G - 1)  # exact mod G, wrapping included
        g = int(np.gcd.reduce(offsets, initial=G))
        if g == 1:
            return _pruned_max(sites, weights, G, degree)
        return _pruned_max(offsets // g, weights, G // g, -(-degree // g))
    return float(np.max(_triviality_on_grid(mu, G)))


def _degree_and_lipschitz(mu: WeightedMeasure) -> tuple[int, float]:
    """Trig-poly degree of (1-e)mu_hat after integer centering, and its
    Lipschitz constant 2*pi*(1+2R)*TV."""
    fmin, last = mu._ends
    fmax = last + 1
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


def _first_grid(grid_cap: int) -> int:
    """The first grid of every refinement: the coarse grid, or the largest
    power of two within the cap if that is smaller."""
    if grid_cap < 2:
        raise ValueError(f"grid_cap must be >= 2, got {grid_cap}")
    return min(_COARSE_GRID, 1 << (int(grid_cap).bit_length() - 1))


def _grid_lower(gridmax: float) -> float:
    """Certified lower bound on the sup from one grid's maximum."""
    return max(0.0, gridmax - _FP_SLACK)


def _coarse_lower(mu: WeightedMeasure, grid_cap: int) -> float:
    """Lower bound on the triviality functional from ``_refine``'s first grid
    alone: the ``lower`` of a ``certify_sup_below`` call that this grid
    decides, for a selection scan that runs it after a witness rejection."""
    return _grid_lower(_triviality_max(mu, _first_grid(grid_cap)))


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
    The first grid is ``_first_grid(grid_cap)``.
    """
    G = _first_grid(grid_cap)
    lower = 0.0
    upper = math.inf
    while True:
        gridmax = evaluate(G)
        lower = max(lower, _grid_lower(gridmax))
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


def _quarter_witness(mu: WeightedMeasure, counts: np.ndarray) -> float:
    """Certified lower bound on max_{a=1,2,3} |T(a/4)|, T = (1 - e) mu_hat,
    for mu uniform on n distinct sites, c_r = ``counts[r]`` of them = r mod 4.

    With W_r = c_r / n, T(a/4) = (1 - i^a) sum_r W_r i^(ar), in O(1).  Each
    W_r rounds once and lies within (2u + u^2) |W_r| of the exact sum
    c_r fl(1/n) of the stored weights, no more than gamma_n |W_r| for n >= 2
    (at n = 1 the weight is exact).  The powers of i only swap and negate,
    and the few operations after them act on sums bounded by 2 TV, so the
    slack 4 gamma_(n+8) TV covers the roundoff and the rounding of the
    subtraction.  The 2*_FP_SLACK on top keeps the witness at or below the
    coarse-grid lower bound, whose grid holds the points a/4, whenever that
    grid's FFT roundoff stays below _FP_SLACK (the premise of the grid lower
    bound itself).
    """
    w0, w1, w2, w3 = (counts / mu.n_atoms).tolist()
    even, odd = w0 - w2, w1 - w3  # sum_r W_r i^(ar) = even + i^a odd for odd a
    t1 = (1 - 1j) * (even + 1j * odd)
    t2 = 2 * ((w0 + w2) - (w1 + w3))
    t3 = (1 + 1j) * (even - 1j * odd)
    m = mu.n_atoms + 8
    gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
    slack = 4.0 * gamma * mu.total_variation + 2 * _FP_SLACK
    return max(abs(t1), abs(t2), abs(t3)) - slack


def certify_sup_below(
    mu: WeightedMeasure,
    threshold: float,
    grid_cap: int = DEFAULT_GRID_CAP,
    residue_counts: np.ndarray | None = None,
) -> tuple[bool | None, float, float, int]:
    """Decide whether the triviality functional is provably <= threshold.

    Returns (verdict, lower, upper, grid): verdict True or False when decided,
    None when no grid within the cap can close the gap.  ``lower`` is always a
    certified lower bound: an exactly evaluated grid point less roundoff, or a
    quarter-frequency witness.  ``upper`` is the smallest rigorous upper bound
    reached, and inf on a witness rejection.

    ``residue_counts``, when given, are the exact counts c_r of mu's atoms on
    sites = r mod 4 (r = 0..3) for mu uniform on its atoms, as a family's
    ``residue_counts`` serves them.  The witness at gamma = 1/4, 1/2, 3/4 is
    then computed first, in O(1) and without reading an atom; when it
    exceeds the threshold, the call returns (False, witness, inf, 0) without
    evaluating any grid.  Such a rejection is the verdict the grids would
    reach, and the witness is no larger than the coarse-grid lower bound
    (see ``_quarter_witness``) that ``_coarse_lower`` gives, which a
    selection scan runs later on the few rejections that can lower its
    reported minimum.  Without counts the grids decide alone.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if mu.n_atoms == 0:
        return True, 0.0, 0.0, 0
    if residue_counts is not None:
        witness = _quarter_witness(mu, residue_counts)
        if witness > threshold:
            return False, witness, math.inf, 0

    def next_width(lower, upper):
        # done when decided, or when sup and threshold agree to roundoff (no
        # grid can separate them); else the gap left below the threshold
        if lower > threshold or upper <= threshold or threshold - lower <= 4 * _FP_SLACK:
            return None
        return threshold - lower

    degree, lip = _degree_and_lipschitz(mu)
    lower, upper, G, _ = _refine(
        lambda G: _triviality_max(mu, G), degree, lip, grid_cap, next_width
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
