"""Greedy subsequence selection driven by certified Fourier-decay bounds.

The selection rule: indices n_1 < n_2 < ... with S(n_k) strictly increasing
and, for k >= 2, a certified bound

    sup_gamma |(1 - e(gamma)) mu_hat_{n_k}(gamma)|  <=  2^(-2*S(n_{k-1}) - 2k),

where S(n) is the cumulative dyadic support exponent.  The first index is
unconstrained (greedy takes n_1 = 1); its bound column is reported with the
convention S(n_0) = 0 but not enforced.  Admissibility always uses the
rigorous upper end of a sup bracket, so a returned selection satisfies the
inequalities by construction, not merely numerically.

Candidates whose functional cannot be bracketed tightly enough within the
grid cap are counted as inadmissible ("uncertifiable") rather than silently
accepted; for the families this library targets, stalls are themselves the
negative-result diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count, islice

from .errors import ResourceCapError, SelectionStalled, VerificationError
from .families import MeasureFamily
from .measures import (
    DEFAULT_GRID_CAP,
    WeightedMeasure,
    _from_arrays,
    certify_sup_below,
    triviality_sup,
)

__all__ = [
    "SelectionState",
    "s_of",
    "n_of_s",
    "tail_split",
    "select_subsequence",
    "verify_selection",
    "selection_to_json",
    "selection_from_json",
]


def _exponent_for(radius: int) -> int:
    """Minimal s >= 0 with radius <= 2^s."""
    return 0 if radius <= 1 else (radius - 1).bit_length()


def _cumulative_S(family: MeasureFamily):
    """Yield (n, S(n)) for n = 1, 2, ...; each support radius is read once."""
    radius = 0
    for n in count(1):
        radius = max(radius, family.support_radius(n))
        yield n, _exponent_for(radius)


def s_of(family: MeasureFamily, n: int) -> int:
    """S(n): minimal s with supp mu_m inside [-2^s, 2^s] for every m <= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return next(islice(_cumulative_S(family), n - 1, None))[1]


def n_of_s(family: MeasureFamily, s: int, search_cap: int = 10**6) -> int:
    """N(s): minimal n with S(n) > s."""
    for n, S_n in islice(_cumulative_S(family), search_cap):
        if S_n > s:
            return n
    raise ResourceCapError(
        f"n_of_s: no n <= {search_cap} with S(n) > {s}; family supports may be bounded"
    )


def _stage_bound(S_prev: int, k: int) -> float:
    """The stage-k bound 2^(-2 S(n_{k-1}) - 2k) of the selection inequality."""
    return 2.0 ** (-2 * S_prev - 2 * k)


def tail_split(
    mu: WeightedMeasure, radius: int
) -> tuple[WeightedMeasure, WeightedMeasure]:
    """Split mu into (compact, tail): atoms inside [-radius, radius] and the rest."""
    inside = (mu.sites >= -radius) & (mu.sites <= radius)
    compact = _from_arrays(mu.sites[inside], mu.weights[inside])
    tail = _from_arrays(mu.sites[~inside], mu.weights[~inside])
    return compact, tail


@dataclass(frozen=True)
class SelectionState:
    family: str
    chosen: list
    S_values: list
    achieved_sups: list  # certified upper brackets of the triviality functional
    bounds: list  # 2^(-2 S(n_{k-1}) - 2k), with S(n_0) := 0

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "chosen": list(self.chosen),
            "S_values": list(self.S_values),
            "achieved_sups": list(self.achieved_sups),
            "bounds": list(self.bounds),
        }


def selection_to_json(state: SelectionState) -> str:
    return json.dumps(state.to_dict(), indent=2)


def selection_from_json(text: str) -> SelectionState:
    d = json.loads(text)
    return SelectionState(
        d["family"], d["chosen"], d["S_values"], d["achieved_sups"], d["bounds"]
    )


def select_subsequence(
    family: MeasureFamily,
    count: int,
    search_cap: int,
    sup_tol: float = 1e-6,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> SelectionState:
    """Greedy smallest-admissible selection of ``count`` indices.

    Deterministic: same family and parameters give the same state.  Raises
    SelectionStalled when some stage exhausts the cap; the report carries the
    smallest certified lower bound seen at that stage.

    Each candidate gets one ``certify_sup_below`` call with the stage's running
    minimum of lower bounds as ``skip_above``, so a candidate whose
    quarter-frequency witness already exceeds both the bound and that minimum
    is rejected without a grid.  Its coarse-grid lower bound would have been at
    least the witness, so it could not have lowered the minimum: the reported
    ``best_sup_lower`` and the counts are those of a grid run on every
    candidate, and no admissible candidate is skipped (witness <= sup <= bound).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    chosen: list[int] = []
    S_values: list[int] = []
    achieved: list[float] = []
    bounds: list[float] = []

    S_seq = _cumulative_S(family)
    for k in range(1, count + 1):
        bound = _stage_bound(S_values[-1] if S_values else 0, k)
        if k == 1:
            # the first step is unconstrained; bound column is informational
            n, S_n = next(S_seq)
            mu = family.measure(n)
            bracket = triviality_sup(mu, max(sup_tol, 1e-9), grid_cap=grid_cap)
            chosen.append(n)
            S_values.append(S_n)
            achieved.append(bracket.upper)
            bounds.append(bound)
            continue

        best_lower = float("inf")
        n_rejected = 0
        n_uncertifiable = 0
        n_skipped_S = 0
        accepted = None
        for n, S_n in islice(S_seq, max(0, search_cap - chosen[-1])):
            if S_n <= S_values[-1]:
                n_skipped_S += 1
                continue
            mu = family.measure(n)
            verdict, lower, upper, _grid = certify_sup_below(
                mu, bound, grid_cap=grid_cap, skip_above=best_lower
            )
            best_lower = min(best_lower, lower)
            if verdict is True:
                accepted = (n, S_n, upper)
                break
            elif verdict is False:
                n_rejected += 1
            else:
                n_uncertifiable += 1
        if accepted is None:
            report = {
                "family": family.descriptor,
                "stage": k,
                "bound": bound,
                "best_sup_lower": best_lower,
                "rejected": n_rejected,
                "uncertifiable": n_uncertifiable,
                "skipped_support": n_skipped_S,
                "search_cap": search_cap,
                "chosen_so_far": list(chosen),
            }
            raise SelectionStalled(
                f"selection stalled at stage {k}/{count} for {family.descriptor}: "
                f"no admissible index <= {search_cap}; bound {bound:.3g}, best "
                f"certified sup lower bound {best_lower:.4g} "
                f"({n_rejected} rejected, {n_uncertifiable} uncertifiable at grid cap)",
                report,
            )
        n, S_n, upper = accepted
        chosen.append(n)
        S_values.append(S_n)
        achieved.append(upper)
        bounds.append(bound)

    return SelectionState(family.descriptor, chosen, S_values, achieved, bounds)


def verify_selection(family: MeasureFamily, state: SelectionState) -> list[dict]:
    """Independently recompute supports and sup brackets for a selection.

    Returns one report row per index with the margin of each inequality;
    raises VerificationError naming the first failing index.
    """
    rows = []
    S_seq = _cumulative_S(family)
    prev_S = None
    last_n = 0
    for k, n in enumerate(state.chosen, start=1):
        if n <= last_n:
            raise VerificationError(
                f"verification failed at k={k}: indices not strictly increasing"
            )
        S_n = next(S for m, S in S_seq if m == n)
        last_n = n
        if S_n != state.S_values[k - 1]:
            raise VerificationError(
                f"verification failed at k={k}: recomputed S={S_n} != stored "
                f"{state.S_values[k - 1]}"
            )
        if prev_S is not None and S_n <= prev_S:
            raise VerificationError(
                f"verification failed at k={k}: S(n_k) not strictly increasing"
            )
        bound = _stage_bound(prev_S if prev_S is not None else 0, k)
        row = {"k": k, "n": n, "S": S_n, "bound": bound}
        if k >= 2:
            verdict, lower, upper, grid = certify_sup_below(family.measure(n), bound)
            row.update(
                {"sup_upper": upper, "sup_lower": lower, "margin": bound - upper}
            )
            if verdict is not True:
                raise VerificationError(
                    f"verification failed at k={k}: certified sup bracket "
                    f"[{lower:.6g}, {upper:.6g}] does not sit below bound {bound:.6g}"
                )
            if state.achieved_sups[k - 1] > bound:
                raise VerificationError(
                    f"verification failed at k={k}: stored achieved sup "
                    f"{state.achieved_sups[k - 1]:.6g} exceeds bound {bound:.6g}"
                )
        else:
            row.update({"sup_upper": state.achieved_sups[0], "margin": float("nan")})
        rows.append(row)
        prev_S = S_n
    return rows
