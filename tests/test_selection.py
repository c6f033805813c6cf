import json

import numpy as np
import pytest

from ergodecay import (
    MeasureFamily,
    ResourceCapError,
    SelectionStalled,
    SelectionState,
    VerificationError,
    make_measure,
    n_of_s,
    parse_family,
    point_mass,
    s_of,
    select_subsequence,
    selection_from_json,
    selection_to_json,
    squares_family,
    tail_split,
    verify_selection,
)


from helpers import uniform_dyadic_family


def brute_s_of(family, n):
    radius = max(family.measure(m).support_radius for m in range(1, n + 1))
    s = 0
    while 2**s < radius:
        s += 1
    return s


# -- S(n) and N(s) -----------------------------------------------------------


def test_s_of_squares_examples():
    fam = squares_family()
    assert s_of(fam, 1) == 0
    assert s_of(fam, 3) == 4  # radius 9, 2^3 < 9 <= 2^4
    assert s_of(fam, 10) == 7  # radius 100, 2^6 < 100 <= 2^7


def test_s_of_matches_brute_oracle():
    fam = squares_family()
    for n in range(1, 25):
        assert s_of(fam, n) == brute_s_of(fam, n)


def test_n_of_s_against_definition():
    fam = squares_family()
    for s in range(0, 12):
        n = n_of_s(fam, s)
        assert s_of(fam, n) > s
        assert n == 1 or s_of(fam, n - 1) <= s
    # spot values from the definition: first n with n^2 > 2^s
    assert n_of_s(fam, 0) == 2
    assert n_of_s(fam, 6) == 9  # 81 > 64 already at n=9
    assert n_of_s(fam, 7) == 12  # 121 <= 128 < 144


def test_n_of_s_bounded_support_errors():
    fam = MeasureFamily("point", lambda n: point_mass(1), lambda n: 1)
    with pytest.raises(ResourceCapError):
        n_of_s(fam, 5, search_cap=200)


# -- tail_split ----------------------------------------------------------------


def test_tail_split_examples():
    compact, tail = tail_split(point_mass(0), 5)
    assert compact == point_mass(0) and tail.n_atoms == 0

    mu = make_measure([(1, 0.5), (100, 0.5)])
    compact, tail = tail_split(mu, 10)
    assert compact == make_measure([(1, 0.5)])
    assert tail == make_measure([(100, 0.5)])
    assert compact.total_variation + tail.total_variation == pytest.approx(
        mu.total_variation, abs=1e-15
    )


@pytest.mark.parametrize("radius", [-1, 0, 3, 40, 10**6])
def test_tail_split_matches_atom_list_construction(radius):
    # compact and tail as built from per-atom (site, weight) lists, bit for bit;
    # radius -1 leaves compact empty and 10**6 leaves tail empty
    rng = np.random.default_rng(5)
    mu = make_measure(
        zip(rng.integers(-50, 51, size=40).tolist(), rng.normal(size=40) + 1j * rng.normal(size=40))
    )
    inside = (mu.sites >= -radius) & (mu.sites <= radius)
    want = (
        make_measure(zip(mu.sites[inside].tolist(), mu.weights[inside])),
        make_measure(zip(mu.sites[~inside].tolist(), mu.weights[~inside])),
    )
    for got, ref in zip(tail_split(mu, radius), want):
        assert got.sites.dtype == ref.sites.dtype and got.weights.dtype == ref.weights.dtype
        assert got.sites.tobytes() == ref.sites.tobytes()
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert got.total_variation.hex() == ref.total_variation.hex()
    assert tail_split(mu, -1)[0].n_atoms == 0 and tail_split(mu, 10**6)[1].n_atoms == 0


# -- selection: positive path ----------------------------------------------------


def test_select_uniform_family_succeeds():
    fam = uniform_dyadic_family()
    state = select_subsequence(fam, 2, search_cap=64)
    assert state.chosen[0] == 1
    assert len(state.chosen) == 2
    # S strictly increasing, and the k>=2 inequality holds with margin
    assert state.S_values[1] > state.S_values[0]
    assert state.achieved_sups[1] <= state.bounds[1]
    # greedy minimality: sup(2/2^n) must genuinely exceed the bound below it
    n2 = state.chosen[1]
    assert 2.0 / (1 << (n2 - 1)) >= state.bounds[1]


def test_select_deterministic_and_verifiable():
    fam = uniform_dyadic_family()
    a = select_subsequence(fam, 2, search_cap=64)
    b = select_subsequence(fam, 2, search_cap=64)
    assert a == b
    rows = verify_selection(fam, a)
    assert all(r["k"] == i + 1 for i, r in enumerate(rows))
    assert rows[1]["margin"] >= 0


def test_select_k1_succeeds_immediately_any_family():
    for fam in (squares_family(), uniform_dyadic_family(), parse_family("perturbed:power:1/4")):
        state = select_subsequence(fam, 1, search_cap=10)
        assert state.chosen == [1]


# -- selection: stalls -------------------------------------------------------------


def test_select_squares_stalls_with_high_floor():
    with pytest.raises(SelectionStalled) as exc:
        select_subsequence(squares_family(), 2, search_cap=1500)
    report = exc.value.report
    assert report["stage"] == 2
    assert report["best_sup_lower"] >= 0.9
    assert report["rejected"] > 0


@pytest.mark.parametrize(
    "base, count, cap, chosen",
    [(squares_family(), 2, 40, [1]), (uniform_dyadic_family(), 3, 12, [1, 8])],
)
def test_stalled_selection_reads_each_support_radius_once(base, count, cap, chosen):
    reads = []

    def radius(n):
        if n > cap:
            raise AssertionError(f"support_radius({n}) read past search_cap={cap}")
        reads.append(n)
        return base.support_radius(n)

    fam = MeasureFamily(base.descriptor, base.measure, radius)
    with pytest.raises(SelectionStalled) as exc:
        select_subsequence(fam, count, search_cap=cap)
    assert exc.value.report["chosen_so_far"] == chosen
    assert reads == list(range(1, cap + 1))


def test_select_scan_stall_report_at_cap_8000():
    # the whole report of the benchmark's select-scan, so the fast loop guards
    # the running-minimum rule: the quarter-frequency witness rejects most
    # candidates without a grid and must leave every field, best_sup_lower to
    # the last bit included, as a coarse grid on every candidate gives it
    with pytest.raises(SelectionStalled) as exc:
        select_subsequence(parse_family("perturbed:power:0.25"), 3, search_cap=8000)
    assert exc.value.report == {
        "family": "perturbed:power:0.25",
        "stage": 2,
        "bound": 2.0**-6,
        "best_sup_lower": 0.21033090674203458,
        "rejected": 7999,
        "uncertifiable": 0,
        "skipped_support": 0,
        "search_cap": 8000,
        "chosen_so_far": [1],
    }


def test_select_perturbed_small_cap_stalls():
    fam = parse_family("perturbed:power:1/4")
    with pytest.raises(SelectionStalled) as exc:
        select_subsequence(fam, 2, search_cap=150)
    assert exc.value.report["stage"] == 2


# -- verification -------------------------------------------------------------------


def test_verify_rejects_injected_fault():
    fam = uniform_dyadic_family()
    state = select_subsequence(fam, 2, search_cap=64)
    bad = SelectionState(
        state.family,
        state.chosen,
        state.S_values,
        [state.achieved_sups[0], state.bounds[1] * 4.0],  # pushed past its bound
        state.bounds,
    )
    with pytest.raises(VerificationError, match="k=2"):
        verify_selection(fam, bad)
    bad_s = SelectionState(
        state.family, state.chosen, [s + 1 for s in state.S_values],
        state.achieved_sups, state.bounds,
    )
    with pytest.raises(VerificationError):
        verify_selection(fam, bad_s)
    bad_order = SelectionState(
        state.family, state.chosen[::-1], state.S_values[::-1],
        state.achieved_sups[::-1], state.bounds,
    )
    with pytest.raises(VerificationError, match="k=2: indices not strictly increasing"):
        verify_selection(fam, bad_order)


# -- serialization -------------------------------------------------------------------


def test_selection_json_roundtrip():
    fam = uniform_dyadic_family()
    state = select_subsequence(fam, 2, search_cap=64)
    text = selection_to_json(state)
    payload = json.loads(text)
    assert set(payload) == {"family", "chosen", "S_values", "achieved_sups", "bounds"}
    back = selection_from_json(text)
    assert back.chosen == state.chosen
    assert back.family == state.family
