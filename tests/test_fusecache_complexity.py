"""FuseCache comparison-count complexity as a tier-1 property test.

Section IV-B claims FuseCache selects the global top-R from k sorted
lists in O(k (log n)^2) comparisons.  The ``bench_fusecache_complexity``
benchmark plots this; these tests *enforce* it with a generous constant,
so a regression that silently degrades the recursion to O(n) fails the
suite rather than just bending a benchmark curve.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fusecache import (
    fuse_cache_detailed,
    lower_bound_comparisons,
    sort_merge_top_n,
)

# Envelope constant: comparisons <= ENVELOPE_C * k * (log2 N)^2.  The
# measured fit constant sits near 0.5 (0.466 at k = 8, N = 2^17; see the
# frozen ratio table in EXPERIMENTS.md); 16 leaves a wide margin for unlucky pivots while still catching any
# linear-in-n regression (at n = 2^16 per list the envelope is ~100x
# below the k-way merge's pop count).
ENVELOPE_C = 16.0


def envelope(k: int, total: int) -> float:
    return ENVELOPE_C * k * max(2.0, math.log2(max(total, 4))) ** 2


def interleaved_lists(n: int, k: int) -> list[list[float]]:
    return [
        [float(n * k - (j * k + i)) for j in range(n)] for i in range(k)
    ]


@pytest.mark.parametrize("exponent", [8, 10, 12, 14, 16])
@pytest.mark.parametrize("k", [2, 8])
def test_comparisons_within_polylog_envelope(exponent, k):
    n = 2**exponent
    lists = interleaved_lists(n, k)
    result = fuse_cache_detailed(lists, (n * k) // 2)
    assert sum(result.topick) == (n * k) // 2
    assert result.comparisons <= envelope(k, n * k), (
        f"n={n} k={k}: {result.comparisons} comparisons exceed "
        f"{envelope(k, n * k):.0f}"
    )


def test_comparisons_grow_polylog_not_linear():
    """Quadrupling n must not quadruple the comparison count."""
    k = 8
    counts = []
    for exponent in (10, 12, 14, 16):
        n = 2**exponent
        result = fuse_cache_detailed(interleaved_lists(n, k), (n * k) // 2)
        counts.append(result.comparisons)
    for smaller, larger in zip(counts, counts[1:]):
        assert larger < 3.0 * smaller, counts
    # And the whole sweep stays far below one pass over the data.
    assert counts[-1] * 50 < (2**16) * k // 2


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2_000),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_random_inputs_stay_in_envelope_and_correct(k, pick_seed, rng):
    """Random ragged, tie-heavy inputs: exact top-R picks, bounded cost."""
    lists = []
    for _ in range(k):
        length = rng.randint(0, 400)
        values = sorted(
            (float(rng.randint(0, 50)) for _ in range(length)), reverse=True
        )
        lists.append(values)
    total = sum(len(lst) for lst in lists)
    pick = min(pick_seed, total)
    result = fuse_cache_detailed(lists, pick)
    assert sum(result.topick) == pick
    assert result.comparisons <= envelope(k, total)
    # Correctness oracle: the picked prefix multiset equals the true
    # global top-``pick`` (ties may split differently across lists).
    expected = sort_merge_top_n(lists, pick)
    chosen = sorted(
        (
            value
            for lst, count in zip(lists, result.topick)
            for value in lst[:count]
        ),
        reverse=True,
    )
    reference = sorted(
        (
            value
            for lst, count in zip(lists, expected)
            for value in lst[:count]
        ),
        reverse=True,
    )
    assert chosen == reference


def test_lower_bound_is_respected_but_not_absurd():
    """Sanity-pin the theoretical bound the benchmark normalizes by."""
    n, k = 2**12, 8
    result = fuse_cache_detailed(interleaved_lists(n, k), (n * k) // 2)
    bound = lower_bound_comparisons((n * k) // 2, k)
    assert bound > 0
    assert result.comparisons < 1_000 * bound


def test_single_list_shortcut_costs_nothing():
    """With k=1 the answer is a prefix; no comparison rounds needed."""
    values = [float(v) for v in range(1_000, 0, -1)]
    result = fuse_cache_detailed([values], 400)
    assert result.topick == [400]
    assert result.comparisons <= envelope(1, 1_000)


def test_worst_case_all_ties():
    """Every timestamp equal: ties must not blow up the round count."""
    k = 8
    lists = [[5.0] * 2_048 for _ in range(k)]
    rng = random.Random(7)
    for pick in (0, 1, 1_000, rng.randint(0, k * 2_048), k * 2_048):
        result = fuse_cache_detailed(lists, pick)
        assert sum(result.topick) == pick
        assert result.comparisons <= envelope(k, k * 2_048)
