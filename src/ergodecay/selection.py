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
import math
from dataclasses import dataclass
from itertools import count, islice

from .errors import SelectionStalled, VerificationError
from .families import MeasureFamily
from .measures import (
    DEFAULT_GRID_CAP,
    _coarse_lower,
    certify_sup_below,
    triviality_sup,
)

__all__ = [
    "SelectionState",
    "select_subsequence",
    "verify_selection",
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


# Witness rejections held back before their coarse grids are settled
_PENDING_MAX = 32
# Tolerance of the first stage's bracket, which only the report shows
_FIRST_STAGE_TOL = 1e-6


def _stage_bound(S_prev: int, k: int) -> float:
    """The stage-k bound 2^(-2 S(n_{k-1}) - 2k) of the selection inequality."""
    return 2.0 ** (-2 * S_prev - 2 * k)


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


def selection_from_json(text: str) -> SelectionState:
    d = json.loads(text)
    return SelectionState(
        d["family"], d["chosen"], d["S_values"], d["achieved_sups"], d["bounds"]
    )


def select_subsequence(
    family: MeasureFamily,
    count: int,
    search_cap: int,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> SelectionState:
    """Greedy smallest-admissible selection of ``count`` indices.

    Deterministic: same family and parameters give the same state.  Raises
    SelectionStalled when some stage exhausts the cap; the report carries the
    smallest certified lower bound seen at that stage.

    Each candidate gets one ``family.measure`` and one ``certify_sup_below``
    call with the family's ``residue_counts``, so a candidate whose
    quarter-frequency witness exceeds the bound is rejected without a grid,
    in O(1); no admissible candidate is skipped (witness <= sup <= bound).
    Families without counts get no witness: every candidate reaches a grid.

    The report's ``best_sup_lower`` is the least coarse-grid lower bound over
    the stage's candidates, as a grid on every candidate gives it, bit for
    bit; the coarse grid runs only where it can lower that minimum.  A
    witness rejection whose witness lies below the least grid-backed lower
    bound so far is held back with its measure.  When _PENDING_MAX are held,
    and before a stall is reported, they are settled: in witness order, each
    gets the coarse grid while its witness is below the least grid value, and
    the rest are dropped.  That is exact because the coarse grid holds 1/4,
    1/2 and 3/4, so no grid value is below its witness.  When the stage
    examined no candidate, ``best_sup_lower`` is None (JSON null).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if search_cap < 1:
        raise ValueError(f"search_cap must be >= 1, got {search_cap}")
    if grid_cap < 4:
        raise ValueError(f"grid_cap must be >= 4 to hold the quarter points, got {grid_cap}")
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
            bracket = triviality_sup(mu, _FIRST_STAGE_TOL, grid_cap=grid_cap)
            chosen.append(n)
            S_values.append(S_n)
            achieved.append(bracket.upper)
            bounds.append(bound)
            continue

        best_lower = float("inf")  # least grid-backed lower bound
        pending = []  # (witness, n, mu) of witness rejections below it
        n_rejected = 0
        n_uncertifiable = 0
        n_skipped_S = 0
        accepted = None
        for n, S_n in islice(S_seq, max(0, search_cap - chosen[-1])):
            if S_n <= S_values[-1]:
                n_skipped_S += 1
                continue
            mu = family.measure(n)
            verdict, lower, upper, grid = certify_sup_below(
                mu, bound, grid_cap=grid_cap, residue_counts=family.residue_counts(n)
            )
            if verdict is True:
                accepted = (n, S_n, upper)
                break
            elif verdict is False:
                n_rejected += 1
            else:
                n_uncertifiable += 1
            if grid:
                best_lower = min(best_lower, lower)
            elif lower < best_lower:
                pending.append((lower, n, mu))
                if len(pending) >= _PENDING_MAX:
                    best_lower = _settle(pending, best_lower, grid_cap)
        if accepted is None:
            best_lower = _settle(pending, best_lower, grid_cap)
            best_text = f"{best_lower:.4g}" if best_lower < math.inf else "none"
            report = {
                "family": family.descriptor,
                "stage": k,
                "bound": bound,
                "best_sup_lower": best_lower if best_lower < math.inf else None,
                "rejected": n_rejected,
                "uncertifiable": n_uncertifiable,
                "skipped_support": n_skipped_S,
                "search_cap": search_cap,
                "chosen_so_far": list(chosen),
            }
            raise SelectionStalled(
                f"selection stalled at stage {k}/{count} for {family.descriptor}: "
                f"no admissible index <= {search_cap}; bound {bound:.3g}, best "
                f"certified sup lower bound {best_text} "
                f"({n_rejected} rejected, {n_uncertifiable} uncertifiable at grid cap)",
                report,
            )
        n, S_n, upper = accepted
        chosen.append(n)
        S_values.append(S_n)
        achieved.append(upper)
        bounds.append(bound)

    return SelectionState(family.descriptor, chosen, S_values, achieved, bounds)


def _settle(pending: list, best_lower: float, grid_cap: int) -> float:
    """Coarse grids on held-back witness rejections, least witness first,
    while the witness is below the least grid value ``best_lower``; returns
    the new least value and empties ``pending``."""
    pending.sort()  # by witness; the distinct n break ties
    for witness, _n, mu in pending:
        if witness >= best_lower:
            break
        best_lower = min(best_lower, _coarse_lower(mu, grid_cap))
    pending.clear()
    return best_lower


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
