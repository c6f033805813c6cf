import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodecay import (
    convergents,
    dirichlet_approx,
    exact_frequency,
    gauss_sum,
    qn_escape_trace,
    smallest_denominator,
    weyl_bound_audit,
    weyl_sum,
)
from ergodecay.measures import _csum, _unit_phases


def brute_weyl(N, beta):
    return sum(cmath.exp(2j * cmath.pi * float((j * j * Fraction(beta)) % 1)) for j in range(1, N + 1)) / N


def brute_gauss(p, q):
    return sum(cmath.exp(2j * cmath.pi * (n * n * p % q) / q) for n in range(q)) / q


def odd_squarefree(limit):
    out = []
    for q in range(3, limit + 1, 2):
        m, ok = q, True
        d = 2
        while d * d <= m:
            if m % (d * d) == 0:
                ok = False
                break
            d += 1
        if ok:
            out.append(q)
    return out


# -- continued fractions / dirichlet -------------------------------------------


def test_convergents_of_sqrt2_minus_1():
    got = []
    for conv in convergents(exact_frequency(math.sqrt(2) - 1)):
        if conv.denominator > 29:
            break
        got.append((conv.numerator, conv.denominator))
    assert got == [(0, 1), (1, 2), (2, 5), (5, 12), (12, 29)]


def test_dirichlet_exact_rational():
    cert = dirichlet_approx(0.5, 10)
    assert (cert.p, cert.q) == (1, 2)
    assert cert.error == 0


def test_dirichlet_sqrt2():
    cert = dirichlet_approx(math.sqrt(2) - 1, 30)
    assert (cert.p, cert.q) == (12, 29)
    assert cert.error <= Fraction(1, 29 * 30)


def test_dirichlet_near_third():
    cert = dirichlet_approx(1 / 3 + 1e-9, 100)
    assert (cert.p, cert.q) == (1, 3)
    assert float(cert.error) == pytest.approx(1e-9, rel=1e-3)
    assert cert.error <= Fraction(1, 300)


def test_dirichlet_certificates_random():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        beta = float(rng.random())
        q_max = float(rng.uniform(1, 10**6))
        cert = dirichlet_approx(beta, q_max)
        assert cert.q <= cert.q_max
        assert cert.error * cert.q * cert.q_max <= 1  # exact Fractions


# -- weyl sums ------------------------------------------------------------------


def test_weyl_sum_at_zero():
    for N in (1, 5, 100):
        assert weyl_sum(N, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_weyl_sum_half_cancels_for_even_N():
    # oracle: e(j^2/2) = (-1)^j, pairs cancel
    for N in (2, 10, 100):
        assert brute_weyl(N, Fraction(1, 2)) == pytest.approx(0.0, abs=1e-13)
        assert abs(weyl_sum(N, 0.5)) < 1e-12


def test_weyl_sum_quarter():
    assert brute_weyl(100, Fraction(1, 4)) == pytest.approx((1 + 1j) / 2, abs=1e-13)
    assert weyl_sum(100, 0.25) == pytest.approx((1 + 1j) / 2, abs=1e-12)


def test_weyl_periodicity_and_reflection():
    rng = np.random.default_rng(5)
    for _ in range(10):
        N = int(rng.integers(2, 200))
        beta = float(rng.random())
        a = weyl_sum(N, beta)
        assert weyl_sum(N, beta + 1.0) == pytest.approx(a, abs=1e-9)
        assert weyl_sum(N, 1.0 - beta) == pytest.approx(a.conjugate(), abs=1e-9)


def direct_weyl(N, beta):
    """The N-term sum, one phase per j: the reference for the grouped path."""
    j = np.arange(1, N + 1, dtype=np.int64)
    return _csum(_unit_phases(j * j, float(beta) % 1.0)) / N


def assert_same_bits(N, beta):
    got, want = weyl_sum(N, beta), direct_weyl(N, beta)
    assert got.real == want.real and got.imag == want.imag, (N, beta, got, want)


@pytest.mark.parametrize("N", [1, 2, 3, 63, 64, 65, 1000, 4096, 5000])
def test_weyl_sum_bit_identical_on_dyadic_grid(N):
    for D in (1, 2, 8, 64, 1024):
        for m in range(D):
            assert_same_bits(N, m / D)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.integers(0, 13), st.data())
def test_weyl_sum_bit_identical_dyadic_property(N, e, data):
    m = data.draw(st.integers(0, (1 << e) - 1))
    assert_same_bits(N, m / (1 << e))


@pytest.mark.parametrize(
    "N, beta",
    [
        (1000, 0.1),
        (1000, 1 / 3),
        (1000, -0.25),  # = 3/4 mod 1
        (1000, -0.1),
        (1000, 1.0),
        (1000, 2.375),
        (5000, 7.5),
        (100, -1e-20),  # mod 1 rounds to 1.0
        # D <= N but N^2 m >= 2^53: the N-term path
        (1 << 18, ((1 << 18) - 1) / (1 << 18)),
    ],
)
def test_weyl_sum_bit_identical_off_grid(N, beta):
    assert_same_bits(N, beta)


@pytest.mark.parametrize("N", [5, 63, 64, 65, 1000, 4097])
@pytest.mark.parametrize("m, D", [(1, 4), (3, 64), (77, 1024)])
def test_exp_bits_independent_of_position(N, m, D):
    # The grouped path evaluates np.exp on the distinct residues only; it
    # matches the N-term sum only if each phase has the same bits wherever it
    # sits in an array, whatever the array's length.
    j = np.arange(1, N + 1, dtype=np.int64)
    full = _unit_phases(j * j, m / D)
    s, first = np.unique(j * j % D, return_index=True)
    fractions = (s * m % D) / D
    for offset in range(8):
        padded = np.concatenate([np.linspace(0.0, 1.0, offset, endpoint=False), fractions])
        phases = np.exp((2j * math.pi) * padded)[offset:]
        assert phases.tobytes() == full[first].tobytes(), (N, m, D, offset)


# -- gauss sums -------------------------------------------------------------------


def test_gauss_trivial():
    assert gauss_sum(0, 1) == pytest.approx(1.0)


def test_gauss_third():
    got = gauss_sum(1, 3)
    expected = (1 + 2 * cmath.exp(2j * cmath.pi / 3)) / 3
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(1j / math.sqrt(3), abs=1e-12)
    assert abs(got) == pytest.approx(3**-0.5, abs=1e-13)


def test_gauss_quarter():
    got = gauss_sum(1, 4)
    assert got == pytest.approx((1 + 1j) / 2, abs=1e-14)
    assert abs(got) == pytest.approx(2**-0.5, abs=1e-13)


def test_gauss_magnitudes_small_moduli():
    for q in odd_squarefree(50):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                got = gauss_sum(p, q)
                assert abs(got) == pytest.approx(q**-0.5, abs=1e-12)
                assert got == pytest.approx(brute_gauss(p, q), abs=1e-12)


def test_gauss_sum_bit_identical_to_direct_formula():
    # the q-term formula gauss_sum evaluated before it became one period of
    # the residue-class sum; p, p - q and p + q share the reference value
    def direct(p, q):
        n = np.arange(q, dtype=np.int64)
        return _csum(np.exp((2j * math.pi) * ((n * n % q) * (p % q) % q / q))) / q

    def bits(z):
        return z.real.hex(), z.imag.hex()

    for q in [*range(1, 200), 4096, 4097, 65537, 100003]:
        for r in range(q) if q < 200 else (1, q - 3, 7):
            if math.gcd(r, q) != 1:
                continue
            want = bits(direct(r, q))
            for p in (r - q, r, r + q):
                assert bits(gauss_sum(p, q)) == want, (p, q)
            assert bits(gauss_sum(Fraction(r - q, q))) == want, (r - q, q)


def test_gauss_rejects_unreduced():
    with pytest.raises(ValueError):
        gauss_sum(2, 4)


# -- audits ------------------------------------------------------------------------


def test_weyl_audit_beta_zero():
    row = weyl_bound_audit(100, 0.0)
    assert row.q == 1
    assert row.value == pytest.approx(1.0, abs=1e-12)
    assert row.ratio <= 1.0


def test_weyl_audit_half_cancellation():
    row = weyl_bound_audit(100, 0.5)
    assert row.value < 1e-12
    assert row.ratio < 1e-11


def test_weyl_audit_sweep_bounded():
    ratios = [
        weyl_bound_audit(N, m / 256).ratio for N in (64, 256) for m in range(256)
    ]
    assert max(ratios) <= 10.0


# -- q_N escape --------------------------------------------------------------------


def test_qn_escape_gamma_zero():
    rows = qn_escape_trace(0.0, range(3, 40))
    assert all(q >= 2 for _, q, _ in rows)


def test_qn_escape_trend_at_half():
    rows = qn_escape_trace(0.5, [10**2, 10**4, 10**6])
    qs = [q for _, q, _ in rows]
    running_min = [min(qs[: i + 1]) for i in range(len(qs))]
    bests = [min(qs[i:]) for i in range(len(qs))]
    assert bests[0] <= bests[-1]  # min-so-far trend does not decrease along the tail
    assert qs[-1] >= qs[0]


def test_qn_escape_avoids_own_denominator():
    a, b = 2, 7
    rows = qn_escape_trace(a / b, [10, 50, 100, 500, 1000, 5000])
    assert all(q != b for _, q, _ in rows)


def test_smallest_denominator_is_minimal():
    # brute oracle over all q for small N: smallest q with ||q beta|| <= N^(-4/3)
    rng = np.random.default_rng(17)
    for _ in range(40):
        beta = float(rng.random())
        N = int(rng.integers(2, 60))
        b = exact_frequency(beta)
        N4 = N**4
        best = None
        q = 1
        while True:
            p = round(b * q)
            if q**3 <= N4 and abs(b * q - p) ** 3 * N4 <= 1:
                best = (p, q)
                break
            q += 1
            if q**3 > N4:
                break
        conv = smallest_denominator(beta, N)
        assert best is not None
        assert (conv.numerator, conv.denominator) == (
            Fraction(best[0], best[1]).numerator,
            Fraction(best[0], best[1]).denominator,
        )
