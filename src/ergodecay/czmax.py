"""Discrete Calderon-Zygmund decomposition on Z and maximal-operator experiments.

The dyadic grid is anchored at 0: Q_{s,k} = [k*2^s, (k+1)*2^s) with k ranging
over all of Z.  The stopping rule selects maximal dyadic intervals whose
|phi|-average strictly exceeds lambda.  On Z single points are indivisible, so
the achieved constants are ||g||_inf <= 2*lambda and sum|b| <= 4*lambda*|Q|
(a factor 2 above the classical continuum constants; both are reported).

A decomposition is g, sum b as one measure, and the selected intervals as two
int64 arrays, their scales s and keys k, which cut sum b into the b_{s,k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .measures import (
    SupBracket,
    WeightedMeasure,
    _csum,
    _from_arrays,
    _pruned_max,
    _total_variation,
    _uniform_interval,
    bracket_sup,
    convolve,
    triviality_sup,
)

__all__ = [
    "CZDecomposition",
    "cz_tree",
    "cz_decompose",
    "cz_report",
    "maximal_function",
    "weak11_rows",
    "weak11_ratio",
    "sigma_n",
    "sigma_hat_grid",
    "sigma_deficit_sup",
    "e1_e2_diagnostics",
]

_MAX_TOP_SCALE = 28


@dataclass(frozen=True)
class CZDecomposition:
    """phi = good + bad_sum.  The selected intervals are
    Q_i = [keys[i] * 2^scales[i], (keys[i] + 1) * 2^scales[i]), sorted by
    start, in two read-only int64 arrays; bad_sum lies on them, and its atoms
    in Q_i are b_{Q_i}."""

    lam: float
    good: WeightedMeasure
    bad_sum: WeightedMeasure  # sum of the b_{s,k}; their supports are disjoint
    scales: np.ndarray
    keys: np.ndarray

    @property
    def carleson_sum(self) -> int:
        return int(np.left_shift(1, self.scales).sum())  # a Python int: JSON writes it


def _top_scale(phi: WeightedMeasure, lam: float) -> int:
    """Least s with 2^s * lam >= ||phi||_1: no interval of scale s is selected."""
    if not lam > 0:  # NaN too
        raise ValueError(f"lambda must be positive, got {lam!r}")
    if phi.n_atoms == 0:
        raise ValueError("phi must not be identically zero")
    s_top = 0
    while (1 << s_top) * lam < phi.total_variation:
        s_top += 1
        if s_top > _MAX_TOP_SCALE:
            raise ResourceCapError(
                f"cz_decompose: lambda={lam:g} needs top scale > {_MAX_TOP_SCALE}"
            )
    return s_top


def cz_tree(phi: WeightedMeasure, lam: float) -> tuple:
    """(phi, keys, sums, ups): per scale s below lam's top scale, the sorted k
    of the Q_{s,k} that meet the support, their |phi|-sums and (s > 0) each
    child's parent index; ``cz_decompose`` reads it for every lambda >= lam."""
    keys, sums, ups = [phi.sites], [np.abs(phi.weights)], []
    for _ in range(_top_scale(phi, lam) - 1):
        parents = keys[-1] >> 1  # sorted: a parent starts wherever this changes
        first = np.concatenate([[True], parents[1:] != parents[:-1]])
        up = np.cumsum(first) - 1
        halves = np.zeros((2, int(up[-1]) + 1))  # left and right child sums
        halves[keys[-1] & 1, up] = sums[-1]
        keys.append(parents[first])
        sums.append(halves[0] + halves[1])
        ups.append(up)
    return phi, keys, sums, ups


def cz_decompose(phi: WeightedMeasure, lam: float, tree: tuple | None = None) -> CZDecomposition:
    """Stopping-time decomposition phi = g + sum b_{s,k}.

    Selected intervals are the maximal dyadic Q with average of |phi| over Q
    strictly greater than lambda (ties at exactly lambda are not selected).
    On each, b = phi - mean(phi over Q) and g = that mean; off the union,
    g = phi.  All block arithmetic is plain binary floating point, which is
    exact whenever the input values are dyadic rationals of moderate size.

    The tree of |phi|-sums holds only the dyadic intervals that meet the
    support (parent key = child key >> 1, an absent child adds 0), so the
    work follows the atoms, not their span.  A lambda sweep passes each call
    one ``cz_tree(phi, min(lams))``; a tree of another phi object, or one too
    short for lam, raises ValueError.  g and sum b are one measure each.
    """
    s_top = _top_scale(phi, lam)
    tree_phi, keys, sums, ups = cz_tree(phi, lam) if tree is None else tree
    if tree_phi is not phi or len(keys) < s_top:
        raise ValueError("tree must come from cz_tree(phi, lam') with lam' <= lam")
    # top-scale intervals have average <= tv / 2^s_top <= lam: never selected,
    # so descending from s_top-1 finds exactly the maximal intervals.
    picked, covered = [], np.False_  # the keys selected at each scale, top down
    for s in range(s_top - 1, -1, -1):
        mask = (sums[s] > lam * (1 << s)) & ~covered
        picked.append(keys[s][mask])
        covered = (covered | mask)[ups[s - 1]] if s else None  # onto children
    s = np.repeat(np.arange(s_top - 1, -1, -1, dtype=np.int64), [len(p) for p in picked])
    k = np.concatenate([np.zeros(0, dtype=np.int64), *picked])
    order = np.argsort(k << s)
    s, k = s[order], k[order]
    s.flags.writeable = k.flags.writeable = False
    starts, lengths = k << s, np.left_shift(1, s)
    lo, hi = np.searchsorted(phi.sites, [starts, starts + lengths])
    counts = hi - lo
    means = (phi.weights[lo] + 0.0) / lengths  # lone atom w: _csum(w) is w + 0.0 (no -0.0)
    for i in np.flatnonzero(counts > 1).tolist():
        means[i] = _csum(phi.weights[lo[i] : hi[i]]) / int(lengths[i])
    # every site of every selected interval in order, with phi and the mean there
    shift = np.cumsum(lengths) - lengths - starts  # site x is span[x + shift]
    span = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(shift, lengths)
    at = np.arange(int(counts.sum())) + np.repeat(lo + counts - np.cumsum(counts), counts)
    on_span = np.zeros(len(span), dtype=np.complex128)
    on_span[phi.sites[at] + np.repeat(shift, counts)] = phi.weights[at]
    mean_on_span = np.repeat(means, lengths)
    good = _from_arrays(
        np.concatenate([np.delete(phi.sites, at), span]),
        np.concatenate([np.delete(phi.weights, at), mean_on_span]),
    )
    bad_sum = _from_arrays(span, on_span - mean_on_span)
    return CZDecomposition(lam, good, bad_sum, s, k)


def cz_report(phi: WeightedMeasure, dec: CZDecomposition) -> dict:
    """Invariant summary used by the cz-check CLI subcommand."""
    residual = _from_arrays(
        np.concatenate([dec.good.sites, dec.bad_sum.sites, phi.sites]),
        np.concatenate([dec.good.weights, dec.bad_sum.weights, -phi.weights]),
    )
    err = float(np.max(np.abs(residual.weights), initial=0.0))
    g_inf = float(np.max(np.abs(dec.good.weights))) if dec.good.n_atoms else 0.0
    return {
        "lambda": dec.lam,
        "n_bad_intervals": len(dec.keys),
        "carleson_sum": dec.carleson_sum,
        "g_inf_norm": g_inf,
        "reconstruction_error": err,
    }


def maximal_function(phi: WeightedMeasure, measures) -> WeightedMeasure:
    """Pointwise sup over the list of |mu * phi| (a nonnegative function)."""
    measures = list(measures)
    if not measures:
        raise ValueError("need at least one measure")
    all_sites = []
    all_vals = []
    for mu in measures:
        conv = convolve(mu, phi)
        all_sites.append(conv.sites)
        all_vals.append(np.abs(conv.weights))
    sites = np.concatenate(all_sites)
    vals = np.concatenate(all_vals)
    uniq, inv = np.unique(sites, return_inverse=True)
    out = np.zeros(len(uniq))
    np.maximum.at(out, inv, vals)
    return _from_arrays(uniq, out.astype(np.complex128))


def default_lambda_grid(phi: WeightedMeasure) -> list[float]:
    """Dyadic lambdas spanning [||phi||_1 / 2^20, max|phi|]."""
    top = float(np.max(np.abs(phi.weights)))
    bottom = phi.total_variation / (1 << 20)
    lams = []
    lam = top
    while lam >= bottom and len(lams) < 64:
        lams.append(lam)
        lam /= 2.0
    return lams


def weak11_rows(phi: WeightedMeasure, M: WeightedMeasure) -> list:
    """(lambda, #{x : M(x) > lambda}, lambda * count / ||phi||_1) per lambda
    of default_lambda_grid(phi), for a maximal function M built from phi."""
    vals = np.sort(np.abs(M.weights))
    tv = phi.total_variation
    rows = []
    for lam in default_lambda_grid(phi):
        count = len(vals) - int(np.searchsorted(vals, lam, side="right"))
        rows.append((lam, count, lam * count / tv))
    return rows


def weak11_ratio(phi: WeightedMeasure, measures) -> float:
    """max over lambda of lambda * #{x : M phi(x) > lambda} / ||phi||_1."""
    rows = weak11_rows(phi, maximal_function(phi, measures))
    return max([0.0, *(ratio for _, _, ratio in rows)])


def sigma_n(S_prev: int, n: int, size_cap: int = 1 << 22) -> WeightedMeasure:
    """Uniform probability measure on {1, ..., 2^(S_prev + n)}.

    An interval measure (``measures._uniform_interval``): its sites are built
    only when ``.sites`` is read.  Its weight 2^-(S_prev + n) is a power of
    two, so the fold of ``measures._fold_mod`` is exact in closed form (every
    count is below 2^53), and its difference measure has two atoms: its
    certification reads no site.  ``size_cap`` bounds the support all the
    same, since a reader of ``.sites`` builds it.
    """
    if S_prev < 0 or n < 1:
        raise ValueError("need S_prev >= 0 and n >= 1")
    M = 1 << (S_prev + n)
    if M > size_cap:
        raise ResourceCapError(f"sigma_n support 2^{S_prev + n} exceeds cap {size_cap}")
    return _uniform_interval(1, M)


def sigma_hat_grid(S_prev: int, n: int, m: np.ndarray, G: int) -> np.ndarray:
    """sigma_n_hat at gamma = m/G, m an int64 array in [0, G), in closed form:
    sigma_hat(gamma) = e((M+1)gamma/2) sin(pi M gamma) / (M sin(pi gamma)),
    1 at m = 0.  Each angle is pi times an exact integer residue over G, the
    sines' residues reduced to [-G/2, G/2] (sin(pi x) = sin(pi (1 - x))):
    unreduced, sin(pi gamma) near gamma = 1 loses up to G ulps.  Within 30u."""
    M = 1 << (S_prev + n)
    r = ((M % (2 * G)) * m + G // 2) % (2 * G) - G // 2
    num = np.sin(np.pi * np.where(r > G // 2, G - r, r) / G)
    den = M * np.sin(np.pi * np.minimum(m, G - m) / G)
    ratio = np.divide(num, den, out=np.ones_like(num), where=den != 0.0)
    angle = np.pi * (((M + 1) % (2 * G) * m) % (2 * G)) / G
    vals = np.empty(m.shape, dtype=np.complex128)
    np.multiply(np.cos(angle), ratio, out=vals.real)
    np.multiply(np.sin(angle, out=angle), ratio, out=vals.imag)
    return vals


def sigma_deficit_sup(mu: WeightedMeasure, S_prev: int, n: int, tol: float) -> dict:
    """Bracket sup_gamma |mu_hat(gamma) (1 - sigma_n_hat(gamma))| and report the
    comparison chain 2^(S_prev+n) * triviality upper -> 2^(-S_prev-n).  Each
    grid maximum is ``measures._pruned_max`` of mu times 1 - sigma_n_hat: the
    bits of ``_subgrid_max`` over every sub-grid, from the few sub-grids that
    can hold the maximum of a trigonometric polynomial of the bracket's
    degree.  A measure of many atoms whose pruning grid keeps many points
    (criterion 09's 2^20 atoms) falls back to every sub-grid."""
    if S_prev < 0 or n < 1:
        raise ValueError("need S_prev >= 0 and n >= 1")

    def deficit(m, G):
        vals = sigma_hat_grid(S_prev, n, m, G)
        return np.subtract(1.0, vals, out=vals)

    bracket = SupBracket(0.0, 0.0, 0)
    if mu.n_atoms:
        fmin = int(mu.sites[0])
        fmax = int(mu.sites[-1]) + (1 << (S_prev + n))
        degree = max(1, (fmax - fmin + 1) // 2)
        lip = 2.0 * math.pi * max(abs(fmin), abs(fmax)) * 2.0 * mu.total_variation
        bracket = bracket_sup(
            lambda G: _pruned_max(mu.sites, mu.weights, G, degree, deficit),
            degree, lip, tol, label="sigma_deficit_sup",
        )
    triv = triviality_sup(mu, tol)
    return {
        "bracket": bracket,
        "triviality_upper": triv.upper,
        "paper_bound": (2.0 ** (S_prev + n)) * triv.upper,
        "paper_target": 2.0 ** (-(S_prev + n)),
    }


def _l2sq(weights: np.ndarray) -> float:
    return float(math.fsum(np.abs(weights) ** 2))


_E2_SUP_TOL = 1e-6  # bracket width of each selected measure's triviality sup


def e1_e2_diagnostics(phi: WeightedMeasure, state, family, lam: float) -> list[dict]:
    """The two pathways of the weak-(1,1) argument, computed against their
    bounding chains for each selected index beyond the first.

    E1: ||(mu_n * sigma_n) * sum_{s<S(n-1)} b_s||_1 against the per-scale
        chain sum_s 2^(-S(n-1)-n+s+1) ||b_s||_1.
    E2: ||(mu_n - mu_n * sigma_n) * sum b_s||_2^2 against
        (2^(S(n-1)+n) * triv_upper)^2 * sum_s ||b_s||_2^2; the pure decay form
        2^(-2S(n-1)-2n) * sum ||b_s||_2^2 additionally requires the selection
        inequality, so its margin is reported rather than assumed.
    """
    dec = cz_decompose(phi, lam)
    b = dec.bad_sum
    starts = dec.keys << dec.scales
    # the scale of the selected interval that holds each atom of sum b
    atom_scale = dec.scales[np.searchsorted(starts, b.sites, side="right") - 1]
    rows = []
    for k in range(2, len(state.chosen) + 1):
        n_k = state.chosen[k - 1]
        S_prev = state.S_values[k - 2]
        in_B = atom_scale < S_prev
        scales = np.unique(atom_scale[in_B]).tolist()
        mu = family.measure(n_k)
        sigma = sigma_n(S_prev, k)
        row = {"k": k, "n": n_k, "S_prev": S_prev, "scales": scales}
        if not scales:  # B below is 0
            row.update(
                {"e1_value": 0.0, "e1_bound": 0.0, "e2_value": 0.0,
                 "e2_bound_actual": 0.0, "e2_bound_paper": 0.0}
            )
            rows.append(row)
            continue
        B = _from_arrays(b.sites[in_B], b.weights[in_B])
        b_s = [b.weights[atom_scale == s] for s in scales]
        mu_sigma = convolve(mu, sigma)
        e1_value = convolve(mu_sigma, B).total_variation
        e1_bound = sum(
            2.0 ** (-S_prev - k + s + 1) * _total_variation(w) for s, w in zip(scales, b_s)
        )
        mu_minus = _from_arrays(
            np.concatenate([mu.sites, mu_sigma.sites]),
            np.concatenate([mu.weights, -mu_sigma.weights]),
        )
        e2_value = _l2sq(convolve(mu_minus, B).weights)
        triv = triviality_sup(mu, _E2_SUP_TOL)
        deficit_inf = (2.0 ** (S_prev + k)) * triv.upper
        sum_b_l2 = sum(_l2sq(w) for w in b_s)
        row.update(
            {
                "e1_value": e1_value,
                "e1_bound": e1_bound,
                "e2_value": e2_value,
                "e2_bound_actual": deficit_inf**2 * sum_b_l2,
                "e2_bound_paper": 2.0 ** (-2 * S_prev - 2 * k) * sum_b_l2,
                "triviality_upper": triv.upper,
                "eq3_bound": 2.0 ** (-2 * S_prev - 2 * k),
            }
        )
        rows.append(row)
    return rows
