"""Discrete Calderon-Zygmund decomposition on Z and maximal-operator experiments.

The dyadic grid is anchored at 0: Q_{s,k} = [k*2^s, (k+1)*2^s) with k ranging
over all of Z.  The stopping rule selects maximal dyadic intervals whose
|phi|-average strictly exceeds lambda.  On Z single points are indivisible, so
the achieved constants are ||g||_inf <= 2*lambda and sum|b| <= 4*lambda*|Q|
(a factor 2 above the classical continuum constants; both are reported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .measures import (
    DEFAULT_GRID_CAP,
    SupBracket,
    WeightedMeasure,
    _csum,
    _from_arrays,
    bracket_sup,
    convolve,
    fourier_grid,
    make_measure,
    triviality_sup,
)

__all__ = [
    "DyadicInterval",
    "CZDecomposition",
    "cz_decompose",
    "cz_report",
    "maximal_function",
    "weak11_ratio",
    "sigma_n",
    "sigma_hat_grid",
    "sigma_deficit_sup",
    "e1_e2_diagnostics",
]

_MAX_TOP_SCALE = 28


@dataclass(frozen=True, order=True)
class DyadicInterval:
    s: int  # scale: |Q| = 2^s
    k: int  # position: Q = [k*2^s, (k+1)*2^s)

    @property
    def start(self) -> int:
        return self.k << self.s

    @property
    def stop(self) -> int:
        return (self.k + 1) << self.s

    @property
    def length(self) -> int:
        return 1 << self.s

    def __contains__(self, x: int) -> bool:
        return self.start <= x < self.stop


@dataclass(frozen=True)
class CZDecomposition:
    lam: float
    good: WeightedMeasure
    bad: tuple  # ((DyadicInterval, WeightedMeasure), ...)
    selected: tuple  # (DyadicInterval, ...)

    @property
    def carleson_sum(self) -> int:
        return sum(q.length for q in self.selected)

    def bad_by_scale(self) -> dict:
        """b_s = sum_k b_{s,k} grouped by scale."""
        out: dict[int, list] = {}
        for q, b in self.bad:
            out.setdefault(q.s, []).append(b)
        return {
            s: make_measure(
                (int(site), w)
                for b in parts
                for site, w in zip(b.sites.tolist(), b.weights)
            )
            for s, parts in out.items()
        }


def cz_decompose(phi: WeightedMeasure, lam: float) -> CZDecomposition:
    """Stopping-time decomposition phi = g + sum b_{s,k}.

    Selected intervals are the maximal dyadic Q with average of |phi| over Q
    strictly greater than lambda (ties at exactly lambda are not selected).
    On each, b = phi - mean(phi over Q) and g = that mean; off the union,
    g = phi.  All block arithmetic is plain binary floating point, which is
    exact whenever the input values are dyadic rationals of moderate size.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if phi.n_atoms == 0:
        raise ValueError("phi must not be identically zero")
    tv = phi.total_variation

    s_top = 0
    while (1 << s_top) * lam < tv:
        s_top += 1
        if s_top > _MAX_TOP_SCALE:
            raise ResourceCapError(
                f"cz_decompose: lambda={lam:g} needs top scale > {_MAX_TOP_SCALE}"
            )

    lo = int(phi.sites[0])
    hi = int(phi.sites[-1])
    A = (lo >> s_top) << s_top
    B = ((hi >> s_top) + 1) << s_top
    W = B - A
    dense = np.zeros(W, dtype=np.complex128)
    dense[phi.sites - A] = phi.weights

    abs_sums = [np.abs(dense)]
    for _ in range(s_top):
        prev = abs_sums[-1]
        abs_sums.append(prev[0::2] + prev[1::2])

    # top-scale intervals have average <= tv / 2^s_top <= lam: never selected,
    # so descending from s_top-1 finds exactly the maximal intervals.
    selected: list[DyadicInterval] = []
    covered = np.zeros(W >> s_top, dtype=bool)
    for s in range(s_top - 1, -1, -1):
        covered = np.repeat(covered, 2)
        mask = (abs_sums[s] > lam * (1 << s)) & ~covered
        for i in np.nonzero(mask)[0]:
            selected.append(DyadicInterval(s, (A >> s) + int(i)))
        covered |= mask

    selected.sort(key=lambda q: (q.start, q.s))
    good_dense = dense.copy()
    bad = []
    for q in selected:
        off = q.start - A
        block = dense[off : off + q.length]
        mean = _csum(block) / q.length
        sites = np.arange(q.start, q.stop, dtype=np.int64)
        bad.append((q, _from_arrays(sites, block - mean)))
        good_dense[off : off + q.length] = mean

    good = _from_arrays(np.arange(A, B, dtype=np.int64), good_dense)
    return CZDecomposition(lam, good, tuple(bad), tuple(selected))


def cz_report(phi: WeightedMeasure, dec: CZDecomposition) -> dict:
    """Invariant summary used by the cz-check CLI subcommand."""
    pieces = [dec.good, *(b for _, b in dec.bad)]
    residual = _from_arrays(
        np.concatenate([m.sites for m in pieces] + [phi.sites]),
        np.concatenate([m.weights for m in pieces] + [-phi.weights]),
    )
    err = float(np.max(np.abs(residual.weights), initial=0.0))
    g_inf = float(np.max(np.abs(dec.good.weights))) if dec.good.n_atoms else 0.0
    return {
        "lambda": dec.lam,
        "n_bad_intervals": len(dec.selected),
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


def weak11_ratio(phi: WeightedMeasure, measures, lam_grid=None) -> float:
    """max over lambda of lambda * #{x : M phi(x) > lambda} / ||phi||_1."""
    M = maximal_function(phi, measures)
    vals = np.sort(np.abs(M.weights))
    tv = phi.total_variation
    if lam_grid is None:
        lam_grid = default_lambda_grid(phi)
    best = 0.0
    for lam in lam_grid:
        count = len(vals) - int(np.searchsorted(vals, lam, side="right"))
        best = max(best, lam * count / tv)
    return best


def sigma_n(S_prev: int, n: int, size_cap: int = 1 << 22) -> WeightedMeasure:
    """Uniform probability measure on {1, ..., 2^(S_prev + n)}."""
    if S_prev < 0 or n < 1:
        raise ValueError("need S_prev >= 0 and n >= 1")
    M = 1 << (S_prev + n)
    if M > size_cap:
        raise ResourceCapError(f"sigma_n support 2^{S_prev + n} exceeds cap {size_cap}")
    sites = np.arange(1, M + 1, dtype=np.int64)
    return _from_arrays(sites, np.full(M, 1.0 / M, dtype=np.complex128))


def sigma_hat_grid(S_prev: int, n: int, G: int) -> np.ndarray:
    """sigma_n_hat at gamma = m/G in closed form (no materialized support):
    sigma_hat(gamma) = e((M+1)gamma/2) sin(pi M gamma) / (M sin(pi gamma))."""
    M = 1 << (S_prev + n)
    m = np.arange(G, dtype=np.int64)
    num = np.sin(np.pi * ((M * m) % (2 * G)) / G)
    den = M * np.sin(np.pi * m / G)
    den[den == 0.0] = 1.0
    # the complex steps in place: at G = 2^25 each complex array is 512 MB
    m *= M + 1
    m %= 2 * G
    vals = 2j * np.pi * m
    vals /= 2 * G
    np.exp(vals, out=vals)
    vals *= num
    with np.errstate(invalid="ignore", divide="ignore"):
        vals /= den
    vals[0] = 1.0
    return vals


def sigma_deficit_sup(
    mu: WeightedMeasure,
    S_prev: int,
    n: int,
    tol: float,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> dict:
    """Bracket sup_gamma |mu_hat(gamma) (1 - sigma_n_hat(gamma))| and report the
    comparison chain 2^(S_prev+n) * triviality upper -> 2^(-S_prev-n)."""
    if mu.n_atoms == 0:
        return {"bracket": SupBracket(0.0, 0.0, 0)}
    M = 1 << (S_prev + n)
    fmin = int(mu.sites[0])
    fmax = int(mu.sites[-1]) + M
    degree = max(1, (fmax - fmin + 1) // 2)
    lip = 2.0 * math.pi * max(abs(fmin), abs(fmax)) * 2.0 * mu.total_variation

    def evaluate(G):
        vals = fourier_grid(mu, G)
        deficit = sigma_hat_grid(S_prev, n, G)
        np.subtract(1.0, deficit, out=deficit)
        vals *= deficit
        return np.abs(vals)

    bracket = bracket_sup(
        evaluate, degree, lip, tol, grid_cap=grid_cap, label="sigma_deficit_sup"
    )
    triv = triviality_sup(mu, tol, grid_cap=grid_cap)
    return {
        "bracket": bracket,
        "triviality_upper": triv.upper,
        "paper_bound": (2.0 ** (S_prev + n)) * triv.upper,
        "paper_target": 2.0 ** (-(S_prev + n)),
    }


def _measure_sub(a: WeightedMeasure, b: WeightedMeasure) -> WeightedMeasure:
    sites = np.concatenate([a.sites, b.sites])
    weights = np.concatenate([a.weights, -b.weights])
    return _from_arrays(sites, weights)


def _l1(mu: WeightedMeasure) -> float:
    return mu.total_variation


def _l2sq(mu: WeightedMeasure) -> float:
    return float(math.fsum(np.abs(mu.weights) ** 2))


def e1_e2_diagnostics(
    phi: WeightedMeasure,
    state,
    family,
    lam: float,
    sup_tol: float = 1e-6,
    sigma_cap: int = 1 << 22,
) -> list[dict]:
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
    by_scale = dec.bad_by_scale()
    rows = []
    for k in range(2, len(state.chosen) + 1):
        n_k = state.chosen[k - 1]
        S_prev = state.S_values[k - 2]
        scales = sorted(s for s in by_scale if s < S_prev and by_scale[s].n_atoms > 0)
        B = make_measure(
            (int(site), w)
            for s in scales
            for site, w in zip(by_scale[s].sites.tolist(), by_scale[s].weights)
        )
        mu = family.measure(n_k)
        sigma = sigma_n(S_prev, k, size_cap=sigma_cap)
        row = {"k": k, "n": n_k, "S_prev": S_prev, "scales": scales}
        if B.n_atoms == 0:
            row.update(
                {"e1_value": 0.0, "e1_bound": 0.0, "e2_value": 0.0,
                 "e2_bound_actual": 0.0, "e2_bound_paper": 0.0}
            )
            rows.append(row)
            continue
        mu_sigma = convolve(mu, sigma)
        e1_value = _l1(convolve(mu_sigma, B))
        e1_bound = sum(
            2.0 ** (-S_prev - k + s + 1) * _l1(by_scale[s]) for s in scales
        )
        e2_value = _l2sq(convolve(_measure_sub(mu, mu_sigma), B))
        triv = triviality_sup(mu, sup_tol)
        deficit_inf = (2.0 ** (S_prev + k)) * triv.upper
        sum_b_l2 = sum(_l2sq(by_scale[s]) for s in scales)
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
