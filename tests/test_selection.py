import dataclasses
import json
import math
from itertools import islice

import numpy as np
import pytest

from ergodecay import (
    MeasureFamily,
    SelectionStalled,
    SelectionState,
    VerificationError,
    certify_sup_below,
    make_measure,
    parse_family,
    select_subsequence,
    selection_from_json,
    squares_family,
    verify_selection,
)


from ergodecay import measures, selection
from ergodecay.czmax import sigma_n
from helpers import uniform_dyadic_family, uniform_zero_based_family


def brute_s_of(family, n):
    radius = max(family.measure(m).support_radius for m in range(1, n + 1))
    s = 0
    while 2**s < radius:
        s += 1
    return s


def s_of(family, n):
    """S(n) as selection computes it: the n-th value of ``_cumulative_S``."""
    return next(islice(selection._cumulative_S(family), n - 1, None))[1]


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
    # S(n) never decreases, and N(s), the first n with S(n) > s, is the first
    # n with n^2 > 2^s for squares
    S = [S_n for _, S_n in islice(selection._cumulative_S(squares_family()), 100)]
    assert S == sorted(S)

    def n_of_s(s):
        return 1 + next(i for i, S_n in enumerate(S) if S_n > s)

    for s in range(0, 12):
        assert n_of_s(s) == next(n for n in range(1, 100) if n * n > 2**s)
    assert n_of_s(0) == 2
    assert n_of_s(6) == 9  # 81 > 64 already at n=9
    assert n_of_s(7) == 12  # 121 <= 128 < 144


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


def test_sigma_n_scan_stalls_with_fine_grids_of_few_points(monkeypatch):
    # the paper's smoothing measures sigma_n, uniform on {1..2^n}: Delta sigma_n
    # has atoms 2^n apart, so a grid G > 2^16 has period G/2^n and costs a few
    # points; every sub-grid would be 2^22 points for n = 20 alone
    family = MeasureFamily(
        "uniform-dyadic", lambda n: sigma_n(0, n, size_cap=1 << 22), lambda n: 1 << n
    )
    assert select_subsequence(family, 2, search_cap=22).chosen == [1, 8]
    points, whole, fine = [0], [0], {}
    ifft, evaluate = np.fft.ifft, measures._triviality_max

    def counting_ifft(a, *args, **kwargs):
        points[0] += np.size(a)
        return ifft(a, *args, **kwargs)

    def recording(mu, G):
        before = points[0]
        value = evaluate(mu, G)
        if G > measures._SUBGRID_MIN:
            fine[mu.n_atoms.bit_length() - 1, G] = points[0] - before
        else:
            whole[0] += G
        return value

    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    monkeypatch.setattr(measures, "_triviality_max", recording)
    with pytest.raises(SelectionStalled) as exc:
        select_subsequence(family, 3, search_cap=22, grid_cap=1 << 22)
    report = exc.value.report
    assert (report["rejected"], report["uncertifiable"]) == (12, 2)
    assert report["best_sup_lower"] == 0.0 and report["chosen_so_far"] == [1, 8]
    # n = 15..20 refine to the grid 2^(n+2), which has period 4
    assert sorted(fine) == [(n, 1 << (n + 2)) for n in range(15, 21)]
    assert all(p <= 64 for p in fine.values()), fine
    assert points[0] <= whole[0] + 64 * len(fine)


def test_sigma_n_certification_builds_no_site_array():
    # sigma_n is certified from its ends, its closed-form fold and its
    # two-atom difference measure: no step reads its sites.  sigma_22 is
    # undecided on the coarse grid at cap 2^22, and accepted on the aliased
    # 2^24 grid of its difference measure at the default cap.
    mu = sigma_n(0, 22)
    verdict, _, _, grid = certify_sup_below(mu, 2**-10, grid_cap=1 << 22)
    assert (verdict, grid) == (None, 4096)
    verdict, lower, _, grid = certify_sup_below(mu, 2**-10)
    assert (verdict, lower, grid) == (True, 2.0**-21 - measures._FP_SLACK, 1 << 24)
    assert "sites" not in vars(mu)
    made = []

    def measure(n):
        made.append(sigma_n(0, n, size_cap=1 << 22))
        return made[-1]

    family = MeasureFamily("uniform-dyadic", measure, lambda n: 1 << n)
    with pytest.raises(SelectionStalled):
        select_subsequence(family, 3, search_cap=22, grid_cap=1 << 22)
    assert sorted(m.n_atoms for m in made) == [1 << n for n in range(1, 23)]
    assert not any("sites" in vars(m) for m in made)


@pytest.mark.parametrize("family", ["perturbed:power:0.25", "perturbed:log:1"])
def test_stall_report_same_with_and_without_residue_counts(family):
    # the O(1) witness from the family's counts and the witness from a fold of
    # each candidate's atoms must give the same report, bit for bit
    fam = parse_family(family)
    reports = []
    for f in (fam, dataclasses.replace(fam, _residue_counts=None)):
        with pytest.raises(SelectionStalled) as exc:
            select_subsequence(f, 3, search_cap=2000)
        reports.append(json.dumps(exc.value.report, sort_keys=True))
    assert fam.residue_counts(2000) is not None
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["rejected"] == 1999


def _mixed_family():
    # every fifth candidate has quarter values 0, so it always reaches a grid:
    # c_n times uniform on {0..3}, whose functional is exactly c_n / 2
    base = parse_family("perturbed:power:0.25")

    def measure(n):
        if n % 5:
            return base.measure(n)
        c = 2 * (0.9 - n / 1000)
        return make_measure((j, c / 4) for j in range(4))

    return MeasureFamily("mixed", measure, base.support_radius)


_DEFERRAL_FAMILIES = {
    **{f: (lambda f=f: parse_family(f)) for f in (
        "perturbed:power:0.25", "perturbed:log:1", "perturbed:power:3/10",
        "perturbed:logpow:1.5", "perturbed:power:0.1", "squares",
        "rotated:quadratic", "rotated:linear",
    )},
    "no-residue-counts": lambda: dataclasses.replace(
        parse_family("perturbed:power:0.25"), _residue_counts=None
    ),
    "mixed": _mixed_family,
    "uniform-zero-based": uniform_zero_based_family,  # stage 3, every candidate on a grid
}


def _stall_report(family, count, cap):
    with pytest.raises(SelectionStalled) as exc:
        select_subsequence(family, count, search_cap=cap)
    return exc.value.report


def _grid_on_every_candidate(family, report):
    # the least lower bound of the stalled stage with no witness shortcut
    S = dict(islice(selection._cumulative_S(family), report["search_cap"]))
    last = report["chosen_so_far"][-1]
    return min(
        (
            certify_sup_below(family.measure(n), report["bound"])[1]
            for n in range(last + 1, report["search_cap"] + 1)
            if S[n] > S[last]
        ),
        default=math.inf,
    )


@pytest.mark.parametrize("name", _DEFERRAL_FAMILIES)
def test_deferred_grids_give_the_least_lower_bound_of_every_candidate(name, monkeypatch):
    family = _DEFERRAL_FAMILIES[name]
    count, cap = (3, 12) if name == "uniform-zero-based" else (3, 400)
    report = _stall_report(family(), count, cap)
    assert report["best_sup_lower"] == _grid_on_every_candidate(family(), report)
    # how many witness rejections are held back changes no field
    for pending_max in (1, 10**9):
        monkeypatch.setattr(selection, "_PENDING_MAX", pending_max)
        assert _stall_report(family(), count, cap) == report


def test_select_needs_a_grid_cap_holding_the_quarter_points():
    with pytest.raises(ValueError, match="grid_cap"):
        select_subsequence(squares_family(), 2, search_cap=10, grid_cap=3)


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
    text = json.dumps(state.to_dict(), indent=2)
    payload = json.loads(text)
    assert set(payload) == {"family", "chosen", "S_values", "achieved_sups", "bounds"}
    back = selection_from_json(text)
    assert back.chosen == state.chosen
    assert back.family == state.family
