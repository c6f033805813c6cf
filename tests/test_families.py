import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ergodecay import (
    ConfigError,
    convolve,
    fourier_at,
    make_measure,
    modulate,
    parse_family,
    parse_rho,
    perturbed_family,
    perturbed_squares_measure,
    rho_constant,
    rho_log,
    rho_log_power,
    rho_power,
    rotated_family,
    rotated_squares_measure,
    squares_family,
    squares_measure,
)
from ergodecay import families
from helpers import allclose, is_probability, point_mass


# -- rho menu -------------------------------------------------------------------


def test_power_exponent_range_enforced():
    rho_power(Fraction(1, 4))  # fine
    with pytest.raises(ConfigError):
        rho_power(Fraction(1, 3))
    with pytest.raises(ConfigError):
        rho_power(Fraction(1, 2))
    with pytest.raises(ConfigError):
        rho_power(Fraction(0))


SHAPE_RHOS = (
    rho_power(Fraction(1, 4)),
    rho_power(Fraction(1, 7)),
    rho_power(Fraction(333, 1000)),
    rho_log(1.0),
    rho_log(0.5),
    rho_constant(2),
    *(rho_log_power(c) for c in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0)),
)


@pytest.mark.parametrize("rho", SHAPE_RHOS, ids=lambda r: r.descriptor())
def test_rho_shape_holds_exactly_from_shape_from(rho):
    # the paper's assumptions: rho' >= 0, rho'' <= 0 and rho''' >= 0 for x >= x0
    sp = pytest.importorskip("sympy")
    x, param = sp.Symbol("x", positive=True), sp.nsimplify(rho.param)
    expr = {
        "power": x**param,
        "log_scaled": param * sp.log(1 + x),
        "log_power": sp.log(1 + x) ** param,
        "constant": param + 0 * x,
    }[rho.kind]
    d1, d2, d3 = (sp.diff(expr, x, k) for k in (1, 2, 3))
    x0 = rho.shape_from
    assert x0 >= 0
    if rho.kind == "constant":
        assert x0 == 0 and d1 == d2 == d3 == 0
        return
    if rho.kind == "log_power":
        # rho''' = c L^(c-3) (2L^2 - 3(c-1)L + (c-1)(c-2)) / (1+x)^3, L = log(1+x)
        c, L = param, sp.log(1 + x)
        quad = 2 * L**2 - 3 * (c - 1) * L + (c - 1) * (c - 2)
        assert sp.simplify(d3 - c * L ** (c - 3) * quad / (1 + x) ** 3) == 0
        assert sp.simplify(d2 - c * L ** (c - 2) * ((c - 1) - L) / (1 + x) ** 2) == 0
        # x0 is expm1 of the larger root of that quadratic
        y = sp.Symbol("y")
        r_plus = max(float(r) for r in sp.solve(quad.subs(L, y), y))
        assert math.log1p(x0) == pytest.approx(r_plus, rel=1e-14, abs=1e-15)
    else:
        assert x0 == 0
    funcs = [sp.lambdify(x, d, "mpmath") for d in (d1, d2, d3)]
    with mpmath.workdps(50):
        start = mpmath.mpf(x0)
        for step in (1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e12):
            pt = start + step * (1 + start)
            v1, v2, v3 = (f(pt) for f in funcs)
            assert v1 > 0 and v2 < 0 and v3 > 0, (rho, float(pt))
        if rho.kind == "log_power" and rho.param > 1:
            # x0 is the least such x: rho''' < 0 just below it
            assert funcs[2](start * (1 - mpmath.mpf(1e-6))) < 0


def test_shape_from_past_the_double_range_is_inf():
    assert rho_log_power(700.0).shape_from < math.inf
    assert rho_log_power(800.0).shape_from == math.inf


def test_rho_inverse_roundtrip():
    for rho in (rho_power(Fraction(1, 4)), rho_log(0.5), rho_log_power(2.0)):
        for y in (1.0, 2.5, 7.0):
            x = rho.inverse(y)
            assert float(rho.value(x)) == pytest.approx(y, rel=1e-9)
    with pytest.raises(ValueError):
        rho_constant(1.0).inverse(1.0)


def test_power_floor_exact_at_fourth_powers():
    rho = rho_power(Fraction(1, 4))
    # brute oracle: largest r with r^4 <= k
    for k in [1, 2, 15, 16, 17, 80, 81, 82, 255, 256, 257, 6560, 6561, 6562, 10**5]:
        r = 0
        while (r + 1) ** 4 <= k:
            r += 1
        assert rho.floor_at_int(k) == r, k


def test_log_floor_boundary_recheck():
    rho = rho_log(1.0)
    x_hi = math.e**3 - 1 + 1e-12  # rho just above 3
    x_lo = math.e**3 - 1 - 1e-9  # rho just below 3
    assert rho.floor_at(x_hi) == 3
    assert rho.floor_at(x_lo) == 2


def test_log_floor_recheck_overrules_the_float_pass():
    # x just below e^40 - 1, so log(1 + x) is just below 40; the float pass
    # rounds it to 40 and only the 60-digit recheck finds 39
    with mpmath.workdps(60):
        x = Fraction(int(mpmath.floor((mpmath.e**40 - 1) * 10**30)), 10**30)
    u = x * x
    assert math.floor(math.log1p(math.sqrt(u))) == 40
    assert rho_log(1.0).floor_at_sqrt(u) == 39


def test_log_power_floor_recheck_overrules_the_float_pass():
    # x just below exp(40^(1/1.5)) - 1, so log(1 + x)^1.5 is about 1e-35 below
    # 40; the float pass rounds it to 40 and only the decimal recheck finds 39
    with mpmath.workdps(60):
        x0 = mpmath.expm1(mpmath.mpf(40) ** (1 / mpmath.mpf(1.5)))
        x = Fraction(int(mpmath.floor(x0 * 10**30)), 10**30)
    u = x * x
    rho = rho_log_power(1.5)
    assert math.floor(float(rho.value(math.sqrt(u)))) == 40
    assert rho.floor_at_sqrt(u) == 39


def test_log_floor_recheck_raises_within_1e40_above_an_integer():
    # log(1 + x) is 3.2e-45 above 40: 60 digits resolve it, but a value that
    # close may be a rounded integer, so the oracle refuses to decide
    with mpmath.workdps(100):
        x = Fraction(int(mpmath.ceil((mpmath.e**40 - 1) * 10**27)), 10**27)
        above = mpmath.log1p(mpmath.mpf(x.numerator) / x.denominator) - 40
    assert 1e-45 < above < 1e-44
    with pytest.raises(ArithmeticError):
        rho_log(1.0).floor_at_sqrt(x * x)


def test_log_power_floors_exact_where_the_float_value_is_ulps_off():
    # rho(k) is about 1e11 here, so the float pass errs by a few 1e-5, far
    # past a fixed 1e-9 band: 83302646037.99999807..., 99894454424.0000040...
    # and 162985056460.99999443...
    rho = rho_log_power(11.5)
    ks = np.array([7366, 8488, 12580], dtype=np.int64)
    want = [83302646037, 99894454424, 162985056460]
    assert rho.floor_at_int(ks).tolist() == want
    for k, w in zip(ks.tolist(), want):
        assert rho.floor_at_int(k) == w
        assert rho.floor_at(float(k)) == w
        assert rho.floor_at_sqrt(k * k) == w
    assert 83356903993 in perturbed_family(rho).measure(7366).sites


def test_floor_at_sqrt_matches_direct():
    rho = rho_power(Fraction(1, 4))
    for l in [1, 255, 256, 257, 65535, 65536, 65537]:
        r = 0
        while (r + 1) ** 8 <= l:
            r += 1
        assert rho.floor_at_sqrt(l) == r, l


ALL_KINDS = (
    rho_power(Fraction(1, 4)), rho_power(Fraction(1, 5)), rho_power(Fraction(2, 7)),
    rho_power(Fraction(3, 10)), rho_power(Fraction(1, 7)), rho_log(1.0), rho_log(0.5),
    rho_log_power(1.5), rho_constant(2.5),
)


def exact_power_floor(a: Fraction, x) -> int:
    """Oracle: largest r with r^q den^p <= num^p for x = num/den, by bisection."""
    f = Fraction(x)
    p, q = a.numerator, a.denominator
    top, bottom = f.numerator**p, f.denominator**p
    lo, hi = 0, 1
    while hi**q * bottom <= top:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**q * bottom <= top else (lo, mid)
    return lo


def test_three_floor_entry_points_agree():
    k_all = np.arange(1, 200_001, dtype=np.int64)
    for rho in ALL_KINDS:
        floors = rho.floor_at_int(k_all)
        # every block boundary up to 2e5, with both neighbours, plus a sweep
        edges = np.nonzero(np.diff(floors))[0] + 1
        ks = sorted({*range(1, 2000), *range(2000, 200_001, 997),
                     *(int(e) + d for e in edges for d in (0, 1, 2))})
        for k in ks:
            want = int(floors[k - 1])
            assert rho.floor_at_int(k) == want, (rho, k)
            assert rho.floor_at(float(k)) == want, (rho, k)
            assert rho.floor_at_sqrt(k * k) == want, (rho, k)


def test_power_floor_exact_at_and_around_block_endpoints():
    for a in (Fraction(1, 4), Fraction(1, 5), Fraction(2, 7), Fraction(3, 10), Fraction(1, 7)):
        rho = rho_power(a)
        for y in range(1, 21):
            x = rho.inverse(y)
            for z in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
                assert rho.floor_at(z) == exact_power_floor(a, z), (a, z)
                assert rho.floor_at_sqrt(Fraction(z) ** 2) == exact_power_floor(a, z), (a, z)
    assert rho_power(Fraction(1, 5)).floor_at(100000.0) == 10
    assert rho_power(Fraction(2, 7)).floor_at(128.0) == 4


def test_floor_beyond_the_int64_and_float_ranges():
    # k^3 passes 2^62 near k = 1.66e6, and k^(1/1000) is within the float
    # band of 1 for every int64 k, so exact floors cannot take int64 powers
    ks = np.array([2, 1_650_000, 1_700_000, 10**9, 2**40 - 1, 2**40, 3**25], dtype=np.int64)
    for a in (Fraction(3, 10), Fraction(1, 1000)):
        got = rho_power(a).floor_at_int(ks)
        assert got.tolist() == [exact_power_floor(a, int(k)) for k in ks], a
    # exact far past the float range of x^2
    assert rho_power(Fraction(1, 4)).floor_at(1e200) == exact_power_floor(Fraction(1, 4), 1e200)
    assert rho_log(1.0).floor_at(1e200) == 460  # log(1 + 1e200) = 460.517...
    assert rho_log_power(1.5).floor_at(1e300) == 18155  # 690.7755...^1.5 = 18155.38...


def test_floor_past_int64_corrects_every_element_exactly():
    # k^3 passes 2^62 here, so the floors come from the float pass and the
    # Newton oracle on Python ints.
    # Exact floors are nondecreasing, so matching the oracle at both ends of
    # every constant run pins every element of the range.
    rho = rho_power(Fraction(3, 10))
    ks = np.arange(1_700_000, 1_900_000, dtype=np.int64)
    floors = rho.floor_at_int(ks)
    assert floors.dtype == np.int64
    edges = np.nonzero(np.diff(floors))[0] + 1
    assert len(edges) == 3  # k^(3/10) runs from 73.98 to 76.49
    for i in sorted({0, len(ks) - 1, *(int(e) + d for e in edges for d in (-1, 0))}):
        assert floors[i] == exact_power_floor(rho.param, int(ks[i])), int(ks[i])
    # k^(1/1000) lies within the band of 1 for every k here: all go to the oracle
    ones = rho_power(Fraction(1, 1000)).floor_at_int(np.arange(1, 5001, dtype=np.int64))
    assert ones.dtype == np.int64 and ones.tolist() == [1] * 5000


def _first_k_of_block(a: Fraction, j: int) -> int:
    """Least k with floor(k^a) >= j, i.e. k^p >= j^q, by bisection."""
    p, q = a.numerator, a.denominator
    target = j**q
    lo, hi = 0, 1 << (target.bit_length() // p + 1)  # lo^p < target <= hi^p
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**p < target else (lo, mid)
    return hi


@pytest.mark.parametrize(
    "a, count",
    [(Fraction(3, 10), 300), (Fraction(2, 7), 300), (Fraction(333, 1000), 200)],
    ids=str,
)
def test_power_floor_exact_at_block_edges_below_2_62(a, count):
    # the float pass errs by ulps of rho(k) here, so the floors of the last
    # and the first k of each block must come from the oracle
    rho = rho_power(a)
    j_top = exact_power_floor(a, 2**62)
    ks = [k + d for j in range(j_top - count, j_top) for k in [_first_k_of_block(a, j)]
          for d in (-1, 0)]
    assert max(ks) < 2**62
    got = rho.floor_at_int(np.array(ks, dtype=np.int64)).tolist()
    want = [exact_power_floor(a, k) for k in ks]
    assert got == want
    assert want[0::2] == [j - 1 for j in range(j_top - count, j_top)]


def test_power_floor_oracle_runs_only_at_fourth_powers(monkeypatch):
    calls = []
    real = families.RhoSpec.floor_at_sqrt

    def counted(self, u):
        calls.append(u)
        return real(self, u)

    monkeypatch.setattr(families.RhoSpec, "floor_at_sqrt", counted)
    floors = rho_power(Fraction(1, 4)).floor_at_int(np.arange(1, 100_001, dtype=np.int64))
    assert calls == [(m**4) ** 2 for m in range(1, 18)]  # 17^4 = 83521 <= 10^5 < 18^4
    assert np.array_equal(np.nonzero(np.diff(floors))[0] + 2, [m**4 for m in range(2, 18)])


def test_floor_at_rejects_negative_and_non_finite():
    for rho in ALL_KINDS:
        for x in (-0.5, -1e-300, math.inf, math.nan):
            with pytest.raises(ValueError):
                rho.floor_at(x)
        with pytest.raises(ValueError):
            rho.floor_at_sqrt(Fraction(-4, 9))
        assert rho.floor_at(0.0) == (2 if rho.kind == "constant" else 0)


# -- squares --------------------------------------------------------------------


def test_squares_small():
    assert squares_measure(1) == point_mass(1)
    nu3 = squares_measure(3)
    assert nu3.sites.tolist() == [1, 4, 9]
    assert np.allclose(nu3.weights, 1 / 3)
    assert is_probability(nu3)


def test_squares_100_transform_at_quarter():
    # oracle: j^2 mod 4 is 0 for even j, 1 for odd j; 50/50 split at n=100
    nu = squares_measure(100)
    assert fourier_at(nu, 0.25) == pytest.approx((1 + 1j) / 2, abs=1e-12)


# -- rotated squares ------------------------------------------------------------


def test_rotated_n1_is_delta1():
    for variant in ("linear", "quadratic"):
        assert allclose(rotated_squares_measure(1, variant), point_mass(1))


def test_rotated_quadratic_n4_weights():
    # theta = 1/2: weights e(j^2/2) = (-1)^j
    mu = rotated_squares_measure(4, "quadratic")
    assert mu.sites.tolist() == [1, 4, 9, 16]
    expected = [-0.25, 0.25, -0.25, 0.25]
    assert np.allclose(mu.weights, expected, atol=1e-12)
    assert mu.total_variation == pytest.approx(1.0, abs=1e-12)


def test_rotated_quadratic_shift_identity():
    n, gamma = 25, 0.3
    mu = rotated_squares_measure(n, "quadratic")
    nu = squares_measure(n)
    assert fourier_at(mu, gamma) == pytest.approx(
        fourier_at(nu, (gamma + n**-0.5) % 1.0), abs=1e-10
    )


def test_transference_identity_quadratic():
    # mu_n * phi (k) = e(n^{-1/2} k) * (nu_n * (e(-n^{-1/2} .) phi))(k)
    rng = np.random.default_rng(3)
    for n in (4, 9, 30):
        theta = n**-0.5
        mu = rotated_squares_measure(n, "quadratic")
        nu = squares_measure(n)
        atoms = [(int(s), complex(a, b)) for s, a, b in
                 zip(rng.integers(-20, 20, 6), rng.normal(size=6), rng.normal(size=6))]
        phi = make_measure(atoms)
        lhs = convolve(mu, phi)
        rhs_inner = convolve(nu, modulate(phi, -theta % 1.0))
        rhs = modulate(rhs_inner, theta % 1.0)
        assert lhs.sites.tolist() == rhs.sites.tolist()
        assert np.max(np.abs(lhs.weights - rhs.weights)) < 1e-9


# -- perturbed squares ------------------------------------------------------------


def test_perturbed_constant_zero_is_squares():
    assert perturbed_squares_measure(rho_constant(0), 3) == squares_measure(3)


def test_perturbed_log_sites():
    # floor(log(1+k)) for k=1..4 -> 0,1,1,1
    mu = perturbed_squares_measure(rho_log(1.0), 4)
    assert mu.sites.tolist() == [1, 5, 10, 17]


def test_perturbed_power_site_258():
    mu = perturbed_squares_measure(rho_power(Fraction(1, 4)), 16)
    assert int(mu.sites[-1]) == 258


def test_perturbed_constant_translation():
    c0 = 5.7
    mu = perturbed_squares_measure(rho_constant(c0), 12)
    nu = squares_measure(12)
    assert mu.sites.tolist() == (nu.sites + int(math.floor(c0))).tolist()
    assert np.allclose(mu.weights, nu.weights)


def test_probability_mass_bounds():
    # sum of |weights| equals 1 up to representation error of 1/n, never more
    for fam in (squares_family(), perturbed_family(rho_power(Fraction(1, 4)))):
        for n in (1, 7, 49, 360):
            mu = fam.measure(n)
            assert abs(mu.total_variation - 1.0) <= 1e-12
            assert is_probability(mu)


# -- support radius ---------------------------------------------------------------


def test_support_radius_examples():
    assert squares_family().support_radius(10) == 100
    fam = perturbed_family(rho_power(Fraction(1, 4)))
    assert fam.support_radius(16) == 258
    assert rotated_family().support_radius(7) == 49
    # radius oracle: max |site| of the generated measure
    for fam2 in (squares_family(), fam, rotated_family("linear")):
        for n in (1, 5, 33):
            assert fam2.support_radius(n) == fam2.measure(n).support_radius


@pytest.mark.parametrize("rho", [rho_power(Fraction(1, 4)), rho_power(Fraction(3, 10)), rho_log(1.0)])
def test_perturbed_family_prefix_cache_matches_direct_build(rho):
    fam, squares = perturbed_family(rho), squares_family()
    # across the cache's growth points (1024, 2048, 4096, ...), downwards, and
    # a jump past twice the cached size; squares shares the builder
    for n in (1, 2, 1023, 1024, 1025, 5, 2047, 2048, 2049, 300, 4097, 12_000, 4096, 1):
        pairs = (
            (fam.measure(n), perturbed_squares_measure(rho, n)),
            (squares.measure(n), squares_measure(n)),
        )
        for mu, want in pairs:
            assert mu.sites.tobytes() == want.sites.tobytes(), n
            assert mu.weights.tobytes() == want.weights.tobytes(), n
            assert mu.total_variation == want.total_variation, n
        assert fam.support_radius(n) == n * n + rho.floor_at_int(n), n
        assert squares.support_radius(n) == n * n, n
    # a fresh family whose first call is large
    assert perturbed_family(rho).measure(5000) == perturbed_squares_measure(rho, 5000)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            fam.measure(bad)
        with pytest.raises(ValueError):
            fam.support_radius(bad)


_GROWTH_WALK = (1, 2, 1023, 1024, 1025, 5, 2047, 2048, 2049, 300, 4097, 12_000, 4096, 1)


@pytest.mark.parametrize(
    "rho",
    [rho_power(Fraction(1, 4)), rho_power(Fraction(3, 10)), rho_log(1.0), rho_log_power(1.5)],
)
def test_perturbed_family_residue_counts_match_bincount(rho):
    # c_r(n) = #{k <= n : site_k = r mod 4}, across the growth points,
    # downwards and in jumps, and on a fresh family whose first call is large
    fam = perturbed_family(rho)
    for n in _GROWTH_WALK:
        want = np.bincount(fam.measure(n).sites & 3, minlength=4)
        assert fam.residue_counts(n).tolist() == want.tolist(), n
    fresh = perturbed_family(rho)
    counts = fresh.residue_counts(5000)
    want = np.bincount(perturbed_squares_measure(rho, 5000).sites & 3, minlength=4)
    assert counts.tolist() == want.tolist()
    assert not counts.flags.writeable


def test_squares_family_residue_counts_match_bincount():
    fam = squares_family()
    for n in (1, 2, 3, 4, 99, 100, 1001):
        want = np.bincount(fam.measure(n).sites & 3, minlength=4)
        assert fam.residue_counts(n).tolist() == want.tolist(), n
    assert rotated_family().residue_counts(10) is None  # weights are not uniform


def test_perturbed_family_raises_on_sites_that_do_not_increase(monkeypatch):
    # no rho of the menu gives a block whose sites do not strictly increase
    # (int64 overflow of k^2 past k of about 3.04e9 would); such a block
    # raises, naming the k, and leaves the blocks before it in service
    real = families._perturbed_sites

    def colliding(rho, k_lo, k_hi):
        sites = real(rho, k_lo, k_hi)
        if k_lo > 1:
            sites[1] = sites[0]
        return sites

    monkeypatch.setattr(families, "_perturbed_sites", colliding)
    rho = rho_power(Fraction(1, 4))
    fam = perturbed_family(rho)
    first = fam.measure(1024)
    for n in (1030, 2048):
        with pytest.raises(ArithmeticError, match=r"perturbed:power:0\.25: .* k = 1026 "):
            fam.measure(n)
        with pytest.raises(ArithmeticError, match="k = 1026"):
            fam.residue_counts(n)
    assert fam.measure(1024) == first and first.sites.tolist() == real(rho, 1, 1025).tolist()
    for n in (5, 1024):
        want = np.bincount(real(rho, 1, n + 1) & 3, minlength=4)
        assert fam.residue_counts(n).tolist() == want.tolist(), n


# -- descriptors -------------------------------------------------------------------


def test_parse_family_roundtrip():
    for text in ("squares", "rotated:quadratic", "rotated:linear", "perturbed:power:1/4",
                 "perturbed:power:1/7", "perturbed:power:2/7", "perturbed:power:1/300",
                 "perturbed:log:1.0", "perturbed:logpow:1.5", "perturbed:const:3.0"):
        fam = parse_family(text)
        mu = fam.measure(4)
        assert mu.n_atoms >= 1
        if text.startswith("perturbed:"):
            rho_text = fam.descriptor.removeprefix("perturbed:")
            assert parse_rho(rho_text) == parse_rho(text.removeprefix("perturbed:")), text


def test_power_descriptor_prints_float_only_when_it_round_trips():
    for a, text in ((Fraction(1, 4), "power:0.25"), (Fraction(3, 10), "power:0.3"),
                    (Fraction(1, 1000), "power:0.001"), (Fraction(1, 5), "power:0.2"),
                    (Fraction(1, 7), "power:1/7"), (Fraction(2, 7), "power:2/7"),
                    (Fraction(1, 300), "power:1/300")):
        assert rho_power(a).descriptor() == text
        assert parse_rho(text) == rho_power(a)


def test_power_denominator_above_1000_rejected():
    # the exact oracle takes a root of order 2q of k^(2p), so q = 10^6
    # (power:0.142857) never finishes
    assert parse_rho("power:333/1000").param == Fraction(333, 1000)
    for text in ("power:0.142857", "power:1/1001", "power:0.14285714285714285"):
        with pytest.raises(ConfigError):
            parse_rho(text)
        with pytest.raises(ConfigError):
            parse_family(f"perturbed:{text}")


def test_log_power_above_int64_range_rejected():
    # floors and sites are int64: log(1+x)^c, C log(1+x) and c0 must stay
    # below 2^63 for int64 x
    for text in ("logpow:11.56", "log:1e17", "const:1e18"):
        rho = parse_rho(text)
        assert float(rho.value(2.0**63)) < 2.0**63
        assert rho.floor_at_int(np.array([10**6, 2**62])).dtype == np.int64
    for text in ("logpow:11.57", "logpow:100", "logpow:400", "logpow:inf",
                 "log:2.2e17", "log:1e19", "log:inf", "log:nan",
                 "const:1e19", "const:9223372036854775808", "const:inf", "const:nan"):
        with pytest.raises(ConfigError):
            parse_rho(text)
        with pytest.raises(ConfigError):
            parse_family(f"perturbed:{text}")


def test_parse_family_errors():
    for bad in ("sqares", "perturbed", "perturbed:power:0.5", "rotated:cubic", "squares:1",
                "rotated:quadratic_phase", "rotated:linear_phase"):
        with pytest.raises(ConfigError):
            parse_family(bad)


def test_parse_rho_decimal_power():
    rho = parse_rho("power:0.25")
    assert rho.param == Fraction(1, 4)
