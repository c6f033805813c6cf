"""Shared test fixtures: families that genuinely satisfy the selection
inequality at small indices, dyadic-valued random functions for which
all block arithmetic is exact in binary floating point, the dense
Calderon-Zygmund decomposition that ``cz_decompose`` is checked against (one
measure per selected interval; their concatenation is ``bad_sum``), and the
CLI command table that guards refactors (criterion 11 and
``cli_digests.py``)."""

import numpy as np

from ergodecay import MeasureFamily, ResourceCapError, make_measure, point_mass
from ergodecay.czmax import DyadicInterval
from ergodecay.measures import _csum, _from_arrays, _uniform_on

_UNIFORM_SUPPORT_CAP = 1 << 22

# One command per subcommand, plus a fourier grid of complex weights, a
# weyl-audit whose Weyl sums take the residue-grouped path (grid 64 <= N, N
# not always a multiple of 64) and a triviality bracket refined to a grid of
# 2^21, past the whole-grid path (the sub-grid evaluator of measures.py); each
# data file must be byte-identical across runs and across refactors.  ``--out``
# is appended by the runner.
CLI_COMMANDS = {
    "fourier": ["fourier", "--family", "perturbed:power:0.25", "--n", "64", "--grid", "256"],
    "fourier-complex": ["fourier", "--family", "rotated:linear", "--n", "64", "--grid", "256"],
    "triviality": ["triviality", "--family", "squares", "--n", "64", "--tol", "1e-2"],
    "triviality-subgrid": ["triviality", "--family", "squares", "--n", "180", "--tol", "1e-3"],
    "select": ["select", "--family", "squares", "--k", "1", "--cap", "16"],
    "cz-check": ["cz-check", "--count", "25", "--lambdas", "6", "--seed", "7"],
    "maximal": ["maximal", "--family", "squares", "--indices", "2,4,8", "--seed", "1"],
    "weyl-audit": ["weyl-audit", "--grid", "128", "--n", "32,64"],
    "weyl-audit-grouped": ["weyl-audit", "--grid", "64", "--n", "2,3,100,1000"],
    "threshold-audit": ["threshold-audit", "--rho", "power:0.25", "--n-list", "256,512", "--grid", "16384"],
    "residues": ["residues", "--rho", "log:1", "--q", "15", "--n-list", "100000,200000"],
    "dynsys-trace": [
        "dynsys-trace", "--system", "cyclic:15", "--f", "table:3",
        "--family", "squares", "--indices", "4,8,16", "--x-samples", "4",
    ],
}


def uniform_dyadic_family() -> MeasureFamily:
    """mu_n = uniform on {1..2^n}: the decay functional is exactly 2/2^n."""

    def measure(n):
        M = 1 << n
        if M > _UNIFORM_SUPPORT_CAP:
            raise ResourceCapError("test family capped")
        return make_measure((j, 1.0 / M) for j in range(1, M + 1))

    return MeasureFamily("uniform-dyadic", measure, lambda n: 1 << n)


def uniform_zero_based_family(shift: int = -1) -> MeasureFamily:
    """mu_n = uniform on {0..2^(n+shift)-1}; the default gives mu_1 = delta_0.

    (1 - e(g)) mu_hat_n(g) = (1 - e(2^(n-1) g)) / 2^(n-1), so the decay
    functional is exactly 2^(2-n) and tends to 0, as the paper's hypothesis
    asks.  The greedy rule selects n = 1, 7, 21 (S = 0, 6, 20): the index
    where 2^(2-n) equals the stage bound cannot be certified below it, so
    each stage takes the next one.  With shift=1, mu_1 already spans four
    sites and two stages select n = 1, 9 (S = 2, 10).
    """

    def measure(n):
        M = 1 << (n + shift)
        if M > _UNIFORM_SUPPORT_CAP:
            raise ResourceCapError("test family capped")
        return _uniform_on(np.arange(M, dtype=np.int64))

    return MeasureFamily("uniform-zero-based", measure, lambda n: (1 << (n + shift)) - 1)


def dyadic_phi(rng, span=256, n=24):
    """Random signed function whose values are integers / 256."""
    sites = rng.integers(-span, span, size=n)
    vals = rng.integers(-(1 << 16), 1 << 16, size=n) / 256.0
    phi = make_measure(zip(sites.tolist(), vals))
    return phi if phi.n_atoms else point_mass(0)


def dense_cz_decompose(phi, lam):
    """Reference Calderon-Zygmund decomposition over the dense window [A, B).

    The stopping rule of ``cz_decompose`` run on arrays as wide as the
    support's span, with one measure per selected interval.  Returns
    ``(selected, good, bad)`` with ``bad`` as ((DyadicInterval, b), ...).
    """
    tv = phi.total_variation
    s_top = 0
    while (1 << s_top) * lam < tv:
        s_top += 1
    A = (int(phi.sites[0]) >> s_top) << s_top
    B = ((int(phi.sites[-1]) >> s_top) + 1) << s_top
    dense = np.zeros(B - A, dtype=np.complex128)
    dense[phi.sites - A] = phi.weights
    abs_sums = [np.abs(dense)]
    for _ in range(s_top):
        prev = abs_sums[-1]
        abs_sums.append(prev[0::2] + prev[1::2])
    selected = []
    covered = np.zeros((B - A) >> s_top, dtype=bool)
    for s in range(s_top - 1, -1, -1):
        covered = np.repeat(covered, 2)
        mask = (abs_sums[s] > lam * (1 << s)) & ~covered
        selected += [DyadicInterval(s, (A >> s) + int(i)) for i in np.nonzero(mask)[0]]
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
    return tuple(selected), good, tuple(bad)
