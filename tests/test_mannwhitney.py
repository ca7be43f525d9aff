import math
from itertools import combinations

import numpy as np
import pytest

from bsf.mannwhitney import mann_whitney_u


def exact_oracle(a, b, u_obs):
    """Full permutation enumeration of P(U <= u_obs)."""
    pooled = list(a) + list(b)
    n = len(a)
    hits = total = 0
    for first in combinations(range(len(pooled)), n):
        fs = set(first)
        aa = [pooled[i] for i in first]
        bb = [pooled[i] for i in range(len(pooled)) if i not in fs]
        u = sum(
            1.0 if x > y else 0.5 if x == y else 0.0 for x in aa for y in bb
        )
        total += 1
        if u <= u_obs:
            hits += 1
    return hits / total


def test_separated_samples():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6], "less")
    assert u == 0.0
    assert p == pytest.approx(1 / math.comb(6, 3))
    assert p == pytest.approx(0.05)


def test_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.integers(0, 6, size=5).tolist()
        b = rng.integers(0, 6, size=6).tolist()
        u, p = mann_whitney_u(a, b, "less")
        assert p == pytest.approx(exact_oracle(a, b, u))


def test_greater_is_mirror():
    a, b = [4, 5, 6], [1, 2, 3]
    u_less, _ = mann_whitney_u(b, a, "less")
    u_greater, p_greater = mann_whitney_u(a, b, "greater")
    _, p_mirror = mann_whitney_u(b, a, "less")
    assert u_greater == 9.0 - u_less + 0.0  # n*m - reversed statistic
    assert p_greater == p_mirror


def test_null_is_roughly_uniform():
    rng = np.random.default_rng(1)
    ps = []
    for _ in range(40):
        a = rng.normal(size=12).tolist()
        b = rng.normal(size=12).tolist()
        ps.append(mann_whitney_u(a, b, "less")[1])
    assert 0.3 <= float(np.mean(ps)) <= 0.7


def test_normal_approximation_close_to_exact():
    rng = np.random.default_rng(2)
    a = rng.normal(size=8).tolist()
    b = (rng.normal(size=8) + 0.8).tolist()
    _, p_exact = mann_whitney_u(a, b, "less")
    # widen one group beyond the exact limit with the same values duplicated
    u2, p_norm = mann_whitney_u(a + a, b + b, "less")
    assert 0 < p_norm < 1
    # direction preserved: clearly shifted samples stay significant-ish
    assert (p_exact < 0.2) == (p_norm < 0.2)


def test_ties_counted_half():
    u, _ = mann_whitney_u([1, 1], [1, 2], "less")
    assert u == 1.0  # pairs: (1,1)=.5, (1,2)=0, twice


def test_large_groups_use_normal_path():
    rng = np.random.default_rng(3)
    a = rng.normal(size=20).tolist()
    b = (rng.normal(size=20) + 1.5).tolist()
    u, p = mann_whitney_u(a, b, "less")
    assert p < 0.01
    u_rev, p_rev = mann_whitney_u(b, a, "less")
    assert p_rev > 0.9


def test_empty_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0], "less")
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [2.0], "sideways")


@pytest.mark.parametrize("alternative", ["less", "greater"])
def test_all_tied_groups_above_the_exact_limit_give_p_one(alternative):
    # every value tied: the tie correction leaves no variance, and U sits at its mean
    assert mann_whitney_u([2.0] * 9, [2.0] * 12, alternative) == (54.0, 1.0)
