"""Property test: FuseCache equals the brute-force oracle.

FuseCache's median-of-medians pruning (Section IV) is the subtlest piece
of the reproduction: a silent off-by-one in its boundary handling would
migrate slightly-wrong item sets and quietly distort every hit-ratio
figure.  The oracle is the dumbest possible implementation of the same
specification -- merge everything, sort, take the top ``n`` -- and
:func:`check_fusecache` asserts the fast algorithm selects exactly the
same *multiset* of timestamps (ties may resolve to different lists, which
is allowed; hotness totals may not differ).

~200 randomized seeded configurations, weighted toward the nasty
regions: duplicate timestamps shared across lists (tie-breaking), empty
lists, k=1, n=0, and n past the total item count.
"""

import random
import sys
from typing import Sequence

import pytest

from repro.core.fusecache import (
    FuseCacheResult,
    fuse_cache_detailed,
    selected_multiset,
)
from repro.errors import InvariantViolation

Timestamps = Sequence[float]


def fusecache_oracle(lists: Sequence[Timestamps], n: int) -> list[float]:
    """The reference answer: hottest ``min(n, total)`` timestamps, sorted
    hottest-first, computed by full merge-and-sort."""
    merged = sorted(
        (value for lst in lists for value in lst), reverse=True
    )
    if n < 0:
        raise InvariantViolation(
            "fusecache", "oracle", f"n must be non-negative, got {n}"
        )
    return merged[: min(n, len(merged))]


def check_fusecache(
    lists: Sequence[Timestamps], n: int, validate: bool = True
) -> FuseCacheResult:
    """Run FuseCache and assert it matches the brute-force oracle.

    Verifies the pick counts are in range, their sum equals
    ``min(n, total)``, and the selected multiset of timestamps equals the
    oracle's.  Returns the (trusted) :class:`FuseCacheResult` so callers
    can use the checked answer directly.
    """
    result = fuse_cache_detailed(lists, n, validate=validate)
    for index, (picked, lst) in enumerate(zip(result.topick, lists)):
        if not 0 <= picked <= len(lst):
            raise InvariantViolation(
                "fusecache",
                f"list {index}",
                "pick count out of range",
                diff={
                    "topick": {
                        "expected": f"0..{len(lst)}",
                        "actual": picked,
                    }
                },
            )
    total = sum(len(lst) for lst in lists)
    expected_selected = min(n, total)
    if result.selected != expected_selected:
        raise InvariantViolation(
            "fusecache",
            f"k={len(lists)}, n={n}",
            "selected-count mismatch",
            diff={
                "selected": {
                    "expected": expected_selected,
                    "actual": result.selected,
                }
            },
        )
    chosen = selected_multiset(lists, result.topick)
    reference = fusecache_oracle(lists, n)
    if chosen != reference:
        divergence = next(
            (
                index
                for index, (got, want) in enumerate(zip(chosen, reference))
                if got != want
            ),
            min(len(chosen), len(reference)),
        )
        raise InvariantViolation(
            "fusecache",
            f"k={len(lists)}, n={n}",
            f"selected multiset diverges from the oracle at rank "
            f"{divergence}",
            diff={
                "timestamp_at_rank": {
                    "expected": reference[divergence]
                    if divergence < len(reference)
                    else None,
                    "actual": chosen[divergence]
                    if divergence < len(chosen)
                    else None,
                }
            },
        )
    return result



def random_case(seed: int):
    rng = random.Random(seed)
    k = rng.randint(1, 8)
    lists = []
    for _ in range(k):
        length = rng.choice([0, rng.randint(1, 50), rng.randint(1, 8)])
        if rng.random() < 0.5:
            # Integer timestamps from a narrow range: many exact
            # duplicates within and across lists.
            values = [float(rng.randint(0, 12)) for _ in range(length)]
        else:
            values = [rng.uniform(0.0, 1000.0) for _ in range(length)]
        lists.append(sorted(values, reverse=True))
    total = sum(len(lst) for lst in lists)
    n = rng.choice(
        [0, rng.randint(0, max(total, 1)), total, total + rng.randint(1, 5)]
    )
    return lists, n


@pytest.mark.parametrize("seed", range(200))
def test_fusecache_matches_oracle_on_random_config(seed):
    lists, n = random_case(seed)
    result = check_fusecache(lists, n)
    assert result.selected == min(n, sum(len(lst) for lst in lists))


def test_oracle_on_known_case():
    lists = [[9.0, 5.0, 1.0], [8.0, 7.0, 2.0]]
    assert fusecache_oracle(lists, 4) == [9.0, 8.0, 7.0, 5.0]
    assert fusecache_oracle(lists, 0) == []
    assert fusecache_oracle(lists, 99) == [
        9.0, 8.0, 7.0, 5.0, 2.0, 1.0,
    ]


def test_oracle_handles_all_empty_lists():
    assert fusecache_oracle([[], [], []], 5) == []
    result = check_fusecache([[], []], 3)
    assert result.topick == [0, 0]


def test_oracle_rejects_negative_n():
    with pytest.raises(InvariantViolation):
        fusecache_oracle([[1.0]], -1)


def test_duplicate_timestamps_compare_as_multisets():
    # Every item identical: any split of picks is a valid answer, and
    # the checker must accept whichever FuseCache chose.
    lists = [[3.0] * 10, [3.0] * 10, [3.0] * 10]
    result = check_fusecache(lists, 17)
    assert result.selected == 17
    assert selected_multiset(lists, result.topick) == [3.0] * 17


def test_check_fusecache_detects_a_wrong_selection(monkeypatch):
    """A deliberately corrupted FuseCache answer must be rejected."""
    lists = [[9.0, 5.0, 1.0], [8.0, 7.0, 2.0]]

    def broken(lists, n, validate=False):
        # Right count, but takes cold 5.0 instead of hot 7.0.
        return FuseCacheResult(topick=[2, 1])

    monkeypatch.setattr(sys.modules[__name__], "fuse_cache_detailed", broken)
    with pytest.raises(InvariantViolation) as excinfo:
        check_fusecache(lists, 3)
    assert excinfo.value.invariant == "fusecache"


def test_check_fusecache_detects_a_wrong_count(monkeypatch):
    def broken(lists, n, validate=False):
        return FuseCacheResult(topick=[1, 0])

    monkeypatch.setattr(sys.modules[__name__], "fuse_cache_detailed", broken)
    with pytest.raises(InvariantViolation) as excinfo:
        check_fusecache([[9.0, 5.0], [8.0]], 2)
    assert "selected" in excinfo.value.diff
