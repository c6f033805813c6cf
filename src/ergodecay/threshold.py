"""Block apparatus for the averages along k^2 + floor(rho(k)).

Blocks I_j = {x > 0 : floor(rho(x)) = j} partition the positive axis; the
integer content of each block, the lengths L_j, the sqrt-indexed sums V_j and
the major/minor-arc estimates below are the coordinates in which the Fourier
transform of the perturbed-squares measure is analyzed.  The residue-density
computation at the end is the negative-side obstruction: when rho grows at
most logarithmically, the sites concentrate on translated quadratic residues
modulo every odd squarefree Q.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .families import RhoSpec, _perturbed_sites, perturbed_squares_measure
from .measures import _unit_phases, fourier_at, fourier_grid
from .weyl import dirichlet_approx, gauss_sum

__all__ = [
    "BlockStructure",
    "block_structure",
    "phi_of",
    "block_sum",
    "block_sqrt_sum",
    "vj_sum",
    "major_arc_audit",
    "cesaro_expos",
    "transform_bound_audit",
    "ResidueProfile",
    "residue_density",
    "quadratic_residues",
    "lambda_q_size",
]


def _first_with_floor_ge(floor_fn, j: int, guess: int) -> int:
    """Smallest integer m >= 1 with floor_fn(m) >= j, floor_fn nondecreasing."""
    lo, hi, step = 1, max(1, guess), 1
    while floor_fn(hi) < j:
        lo = hi + 1
        step *= 2
        hi += step
    while lo < hi:
        mid = (lo + hi) // 2
        if floor_fn(mid) >= j:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class BlockStructure:
    j: int
    lo: float
    hi: float  # math.inf for constant rho without a horizon
    length: float
    k_lo: int  # integers k with floor(rho(k)) = j; k_lo > k_hi when empty
    k_hi: int
    integer_count: int


def _check_j_range(rho: RhoSpec, j: int, horizon: int | None) -> None:
    j_min = int(rho.floor_at_int(1))
    if j < j_min:
        raise ValueError(f"block index {j} below attained range (min {j_min})")
    if horizon is not None and j > int(rho.floor_at_int(horizon)):
        raise ValueError(f"block index {j} above horizon {horizon}")


def _block_range(
    rho: RhoSpec, j: int, floor_fn, power: int
) -> tuple[float, float, int, int]:
    """Endpoints (lo, hi) of I_j and the integer range [m_lo, m_hi] of m with
    floor_fn(m) = j, where floor_fn(m) = floor(rho(m^(1/power))); m_lo > m_hi
    means empty.  The endpoints raised to ``power`` only seed the searches."""
    lo = max(0.0, rho.inverse(j)) if j > 0 else 0.0
    hi = rho.inverse(j + 1)
    m_lo = _first_with_floor_ge(floor_fn, j, max(1, math.ceil(lo**power)))
    m_hi = _first_with_floor_ge(floor_fn, j + 1, max(1, math.ceil(hi**power))) - 1
    return lo, hi, m_lo, m_hi


def block_structure(rho: RhoSpec, j: int, horizon: int | None = None) -> BlockStructure:
    """Endpoints via the exact inverse; integer content via exact floors."""
    _check_j_range(rho, j, horizon)
    if rho.kind == "constant":
        k_hi = horizon if horizon is not None else np.iinfo(np.int64).max
        count = horizon if horizon is not None else -1
        return BlockStructure(j, 0.0, math.inf, math.inf, 1, int(k_hi), int(count))
    lo, hi, k_lo, k_hi = _block_range(rho, j, rho.floor_at_int, 1)
    if horizon is not None:
        k_hi = min(k_hi, horizon)
    count = max(0, k_hi - k_lo + 1)
    return BlockStructure(j, lo, hi, hi - lo, k_lo, k_hi, count)


def phi_of(rho: RhoSpec, j: int) -> float:
    """(rho^{-1}(j))^2: the squared block endpoint in the l-coordinate."""
    if rho.kind == "constant":
        raise ValueError("constant rho has no inverse")
    _check_j_range(rho, j, None)
    return rho.inverse(j) ** 2


_CHUNK = 1 << 20


def _chunked_sum(lo: int, hi: int, term_fn) -> complex:
    """Correctly rounded sum of term_fn(arange-chunk) over [lo, hi] (0 when
    lo > hi), with bounded memory: each component is one ``fsum`` fed chunk
    by chunk, so term_fn runs twice per chunk."""

    def terms(part):
        for start in range(lo, hi + 1, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, hi + 1), dtype=np.int64)
            yield from part(term_fn(idx)).tolist()

    return complex(math.fsum(terms(np.real)), math.fsum(terms(np.imag)))


def block_sum(rho: RhoSpec, j: int, beta: float, horizon: int | None = None) -> complex:
    """sum over integers k in I_j of e(k^2 beta); constant rho needs a horizon,
    since its one block holds every k >= 1."""
    if rho.kind == "constant" and horizon is None:
        raise ConfigError("block sum of a constant rho needs a horizon")
    bs = block_structure(rho, j, horizon)
    b = float(beta) % 1.0
    return _chunked_sum(bs.k_lo, bs.k_hi, lambda k: _unit_phases(k * k, b))


def block_sqrt_sum(rho: RhoSpec, j: int, alpha: float) -> complex:
    """sum over integers l with sqrt(l) in I_j of e(l alpha) (unweighted)."""
    _check_j_range(rho, j, None)
    _, _, l_lo, l_hi = _block_range(rho, j, rho.floor_at_sqrt, 2)
    a = float(alpha) % 1.0
    return _chunked_sum(l_lo, l_hi, lambda l: _unit_phases(l, a))


def vj_sum(rho: RhoSpec, j: int, alpha: float) -> complex:
    """V_j(alpha) = sum_{l: sqrt(l) in I_j} e(l alpha) / (2 sqrt(l))."""
    _check_j_range(rho, j, None)
    _, _, l_lo, l_hi = _block_range(rho, j, rho.floor_at_sqrt, 2)
    a = float(alpha) % 1.0
    return _chunked_sum(
        l_lo, l_hi, lambda l: _unit_phases(l, a) / (2.0 * np.sqrt(l.astype(np.float64)))
    )


def _circle_dist(beta: float) -> float:
    b = float(beta) % 1.0
    return min(b, 1.0 - b)


def major_arc_audit(rho: RhoSpec, N: int, beta: float, eps: float | None = None) -> dict:
    """Per-block comparison of block sums with their arc estimates.

    Small denominators (q <= N^(2/3)): |sum_{k in I_j} e(k^2 beta) -
    Lambda_hat(p/q) V_j(beta - p/q)| against N^(-eps/6) L_j; large
    denominators: |block sum| against N^(-eps/7) L_j.  Ratios are empirical
    constants, reported but never asserted as ground truth.
    """
    if rho.kind == "constant":
        raise ConfigError("major-arc audit needs an unbounded rho")
    eps = rho.epsilon if eps is None else float(eps)
    cert = dirichlet_approx(beta, float(N) ** (4.0 / 3.0))
    q, p = cert.q, cert.p
    small_q = q <= N ** (2.0 / 3.0)
    branch = "qsmall" if small_q else "qlarge"
    alpha = float(cert.beta - cert.rational)
    lam_hat = gauss_sum(p % q, q) if small_q else None
    j_min = int(rho.floor_at_int(1))
    j_start = max(j_min, int(rho.floor_at(N ** (1.0 - eps))) + 1)
    j_end = int(rho.floor_at_int(N))
    rows = []
    for j in range(j_start, j_end + 1):
        L_j = block_structure(rho, j).length
        if small_q:
            value = abs(block_sum(rho, j, beta) - lam_hat * vj_sum(rho, j, alpha))
            bound = N ** (-eps / 6.0) * L_j
        else:
            value = abs(block_sum(rho, j, beta))
            bound = N ** (-eps / 7.0) * L_j
        rows.append(
            {"j": j, "L_j": L_j, "value": value, "bound": bound,
             "ratio": value / bound if bound > 0 else math.inf}
        )
    max_ratio = max((r["ratio"] for r in rows), default=0.0)
    return {
        "N": N, "beta": float(beta), "eps": eps, "branch": branch,
        "p": p, "q": q, "rows": rows, "max_ratio": max_ratio,
    }


def cesaro_expos(rho: RhoSpec, N: int, beta: float, alpha: float) -> dict:
    """(1/N^2) sum_j e(j beta) sum_{l: sqrt(l) in I_j} e(l alpha), with the
    summation-by-parts bound shape L_{floor(rho(N))}/(N |beta|) for beta != 0."""
    if rho.kind == "constant":
        raise ConfigError("cesaro mean needs an unbounded rho")
    j_min = int(rho.floor_at_int(1))
    j_max = int(rho.floor_at_int(N))
    b = float(beta) % 1.0
    total = 0.0 + 0.0j
    for j in range(j_min, j_max + 1):
        phase = cmath.exp(2j * math.pi * ((j * b) % 1.0))
        total += phase * block_sqrt_sum(rho, j, alpha)
    value = total / (N * N)
    dist = _circle_dist(beta)
    if dist == 0.0:
        return {"value": value, "bound": None, "ratio": None}
    bound = block_structure(rho, j_max).length / (N * dist)
    return {"value": value, "bound": bound, "ratio": abs(value) / bound}


_AUDIT_BAND = (0.05, 0.95)  # away from beta = 0, where the bound blows up


def transform_bound_audit(
    rho: RhoSpec,
    N_list,
    eps: float | None = None,
    grid: int = 1 << 20,
    row_betas: int = 64,
) -> dict:
    """Tabulate |mu_hat_N| against N^(-eps/7) + L_{floor(rho(N))}/(N ||beta||)
    over the frequency grid points in ``_AUDIT_BAND``, and track the triviality functional's grid max:
    the computable shadow of asymptotic triviality (or its failure).

    ``row_betas`` (>= 1) sets how many band points get a row per N: every
    ``max(1, len(band) // row_betas)``-th one, so at least ``row_betas`` rows
    (every band point when the band has fewer).
    """
    N_list = [int(N) for N in N_list]
    if not N_list:
        raise ValueError("N_list must not be empty")
    if row_betas < 1:
        raise ValueError(f"row_betas must be >= 1, got {row_betas}")
    eps = rho.epsilon if eps is None else float(eps)
    gam = np.arange(grid) / grid
    band = _AUDIT_BAND
    mask = (gam >= band[0]) & (gam <= band[1])
    gb = gam[mask]
    circ = np.minimum(gb, 1.0 - gb)
    band_factor = 1.0 - np.exp(2j * np.pi * gb)
    per_N = []
    rows = []
    for N in N_list:
        mu = perturbed_squares_measure(rho, N)
        band_vals = fourier_grid(mu, grid)[mask]
        absvals = np.abs(band_vals)
        triv = np.abs(band_factor * band_vals)
        if rho.kind == "constant":
            L_last = float(N)
        else:
            L_last = block_structure(rho, int(rho.floor_at_int(N))).length
        bound = N ** (-eps / 7.0) + L_last / (N * circ)
        ratios = absvals / bound
        quarter = abs(fourier_at(mu, 0.25))
        per_N.append(
            {
                "N": N,
                "triviality_grid_max": float(triv.max()),
                "max_ratio": float(ratios.max()),
                "value_quarter": quarter,
                "L_last": L_last,
            }
        )
        step = max(1, len(gb) // row_betas)
        for i in range(0, len(gb), step):
            rows.append(
                {
                    "N": N,
                    "beta": float(gb[i]),
                    "value": float(absvals[i]),
                    "bound": float(bound[i]),
                    "ratio": float(ratios[i]),
                }
            )
        # drop this N's band arrays, so they do not add to the next grid's peak
        del band_vals, absvals, triv, bound, ratios
    return {"eps": eps, "grid": grid, "band": band, "per_N": per_N, "rows": rows}


# -- residue densities (negative side) ---------------------------------------


def _odd_squarefree_primes(Q: int) -> list[int]:
    if Q < 3 or Q % 2 == 0:
        raise ConfigError(f"Q must be odd and >= 3, got {Q}")
    primes = []
    rem = Q
    d = 3
    while d * d <= rem:
        if rem % d == 0:
            rem //= d
            if rem % d == 0:
                raise ConfigError(f"Q={Q} is not squarefree")
            primes.append(d)
        d += 2
    if rem > 1:
        primes.append(rem)
    return primes


def quadratic_residues(Q: int) -> list[int]:
    return sorted({(x * x) % Q for x in range(Q)})


def lambda_q_size(Q: int) -> int:
    """|Lambda_Q| for odd squarefree Q: product of (p+1)/2 over prime factors,
    cross-checked against full enumeration."""
    primes = _odd_squarefree_primes(Q)
    formula = 1
    for p in primes:
        formula *= (p + 1) // 2
    enumerated = len(quadratic_residues(Q))
    if formula != enumerated:
        raise AssertionError(f"residue count mismatch for Q={Q}")  # unreachable
    return formula


@dataclass(frozen=True)
class ResidueProfile:
    Q: int
    r_q: int
    lambda_q: tuple
    densities: dict  # quadratic residue a -> empirical density
    min_nonzero_density: float
    fitted_C: float  # not a fit: C = max of x rho'(x) over x <= max(4, N*)
    bound: float | None  # 1/(3 C |Lambda_Q|); None when rho' vanishes
    bound_met: bool | None
    stabilized: bool
    r_values: tuple
    class_fraction: float
    N_star: int


def residue_density(
    rho: RhoSpec, Q: int, N_list, window: float = 0.5
) -> ResidueProfile:
    """Empirical densities of {j <= N : j^2 + floor(rho(j)) = a + r_Q mod Q}.

    r_Q is the largest residue class of floor(rho(window*N)) mod Q over the
    N_list (the computable surrogate for the diagonal-argument limit; it is
    reported as such, never asserted as the limit).  The 'stabilized' flag
    records whether adjacent N in the list ever share that residue, which at
    desk scale separates slowly growing rho from the power kinds.  The bound
    1/(3 C |Lambda_Q|) takes C = x rho'(x) at x = max(4, N*): that product is
    nondecreasing for every kind, so C is its max over x <= N*.
    """
    _odd_squarefree_primes(Q)  # validates Q
    if not 0 < window < math.inf:
        raise ConfigError(f"window must be finite and > 0, got {window}")
    N_list = [int(N) for N in N_list]
    if not N_list:
        raise ValueError("N_list must not be empty")
    if min(N_list) < 1:
        raise ConfigError(f"every N must be >= 1, got {min(N_list)}")
    r_values = tuple(int(rho.floor_at(window * N)) % Q for N in N_list)
    classes: dict[int, list[int]] = {}
    for N, r in zip(N_list, r_values):
        classes.setdefault(r, []).append(N)
    # largest class; ties go to the class reaching the largest N (the better
    # surrogate for the limit), then to the smallest residue
    r_q = max(sorted(classes), key=lambda r: (len(classes[r]), max(classes[r])))
    class_Ns = classes[r_q]
    N_star = max(class_Ns)

    counts = np.bincount(_perturbed_sites(rho, 1, N_star + 1) % Q, minlength=Q)

    qrs = quadratic_residues(Q)
    densities = {a: counts[(a + r_q) % Q] / N_star for a in qrs}
    nonzero = [densities[a] for a in qrs if a != 0]
    min_nonzero = float(min(nonzero))

    x = np.array([max(4.0, float(N_star))])
    fitted_C = float((x * rho.deriv(x))[0])
    if fitted_C > 0:
        bound = 1.0 / (3.0 * fitted_C * len(qrs))
        bound_met = min_nonzero >= bound
    else:
        bound, bound_met = None, None

    stabilized = any(r_values[i] == r_values[i + 1] for i in range(len(r_values) - 1))
    return ResidueProfile(
        Q=Q,
        r_q=r_q,
        lambda_q=tuple(qrs),
        densities=densities,
        min_nonzero_density=min_nonzero,
        fitted_C=fitted_C,
        bound=bound,
        bound_met=bound_met,
        stabilized=stabilized,
        r_values=r_values,
        class_fraction=len(class_Ns) / len(N_list),
        N_star=N_star,
    )
