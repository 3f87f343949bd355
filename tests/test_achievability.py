import numpy as np
import pytest

import ifcbounds as ifc
from ifcbounds import achievability
from ifcbounds.errors import BetaInvalid, NotSorted, TooLarge

from support import random_rank_one, random_upper_triangular_channel


def test_parallel_links_sum():
    for K in (1, 2, 4):
        ch = ifc.validate_channel(np.eye(K))
        assert abs(ifc.tin_sum_rate(ch) - K) < 1e-12


def test_worked_two_user_ladder():
    ch = ifc.validate_channel([[1.0, 1.0], [0.0, 2.0]])
    r = ifc.succ_dec_rates(ch)
    assert abs(r[0] - np.log2(1.5)) < 1e-12
    assert abs(r[1] - np.log2(5.0)) < 1e-12
    assert abs(ifc.tin_sum_rate(ch) - np.log2(7.5)) < 1e-12


def test_ladder_sums_to_tin():
    rng = np.random.default_rng(10)
    for _ in range(25):
        K = int(rng.integers(1, 7))
        ch = random_upper_triangular_channel(rng, K)
        assert abs(np.sum(ifc.succ_dec_rates(ch)) - ifc.tin_sum_rate(ch)) < 1e-12


def test_last_user_interference_free():
    rng = np.random.default_rng(11)
    ch = random_upper_triangular_channel(rng, 4)
    r = ifc.succ_dec_rates(ch)
    h = ch.entries[3, 3].real
    assert abs(r[3] - np.log2(1 + h * h)) < 1e-12


def test_general_tin_never_exceeds_tail_ladder():
    # counting all interferers can only shrink each per-user term
    rng = np.random.default_rng(12)
    for _ in range(25):
        K = int(rng.integers(2, 6))
        H = (rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))) / np.sqrt(2)
        H[np.diag_indices(K)] = np.abs(np.diagonal(H)) + 0.3
        ch = ifc.validate_channel(H)
        assert ifc.tin_sum_rate_general(ch) <= ifc.tin_sum_rate(ch) + 1e-12


def test_mac_single_user_feasible():
    assert ifc.mac_feasibility(ifc.validate_channel([[1.5]])).feasible


def test_mac_decodes_only_the_users_a_receiver_hears():
    res = ifc.mac_feasibility(ifc.validate_channel(np.eye(2)))
    assert res.feasible and res.violations == ()
    res = ifc.mac_feasibility(ifc.validate_channel([[1.0, 0.0], [0.5, 1.0]]))
    ((k, subset, lhs, rhs),) = res.violations
    assert not res.feasible and (k, subset) == (2, (1,))
    assert abs(lhs - 2.0) < 1e-12 and abs(rhs - np.log2(2.25)) < 1e-12
    # receiver 3 hears user 1 but not user 2
    res = ifc.mac_feasibility(ifc.validate_channel(
        [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]))
    third = [subset for k, subset, _, _ in res.violations if k == 3]
    assert third == [(1,)]


def test_mac_feasible_on_strictly_upper_triangular_channels():
    rng = np.random.default_rng(15)
    for _ in range(25):
        ch = random_upper_triangular_channel(rng, int(rng.integers(1, 8)))
        res = ifc.mac_feasibility(ch)
        assert res.feasible and res.violations == ()


def test_mac_cap_counts_the_earlier_users_a_receiver_hears(monkeypatch):
    def refuse(*args):
        raise AssertionError("subsets enumerated before the size check")

    monkeypatch.setattr(achievability, "combinations", refuse)
    H = np.eye(21)
    H[20, :20] = 0.1  # receiver 21 hears 20 earlier users
    with pytest.raises(TooLarge):
        ifc.mac_feasibility(ifc.validate_channel(H))


def test_mac_rank_one_worked_example():
    ch = ifc.rank_one_channel([1.0, 2.0], [1.0, 1.0])
    res = ifc.mac_feasibility(ch)
    assert res.feasible and res.violations == ()


def test_bc_single_user():
    v = ifc.bc_bound([1.0], [2.0], [1.0])
    assert abs(v[0] - np.log2(1 + 4.0)) < 1e-12


def test_bc_worked_example():
    v = ifc.bc_bound([1.0, 2.0], [1.0, 1.0], [0.5, 0.5])
    assert abs(v[0] - np.log2(1.5)) < 1e-12
    assert abs(v[1] - np.log2(5.0)) < 1e-12


def test_bc_requires_sorted_a():
    with pytest.raises(NotSorted):
        ifc.bc_bound([2.0, 1.0], [1.0, 1.0], [0.5, 0.5])


def test_bc_requires_proper_beta():
    with pytest.raises(BetaInvalid):
        ifc.bc_bound([1.0, 2.0], [1.0, 1.0], [0.7, 0.7])
    with pytest.raises(BetaInvalid):
        ifc.bc_bound([1.0, 2.0], [1.0, 1.0], [-0.2, 1.2])


def test_bc_monotone_in_tail_weight():
    # shifting weight downstream increases user k's interference
    rng = np.random.default_rng(13)
    for _ in range(50):
        K = int(rng.integers(2, 5))
        _, a, b = random_rank_one(rng, K)
        beta = rng.random(K) + 0.05
        beta = beta / beta.sum()
        k = int(rng.integers(0, K - 1))
        shift = 0.5 * beta[k]
        beta2 = beta.copy()
        beta2[k] -= shift
        beta2[K - 1] += shift
        v1 = ifc.bc_bound(a, b, beta)
        v2 = ifc.bc_bound(a, b, beta2)
        assert v2[k] <= v1[k] + 1e-12


def test_degraded_sum_worked_example():
    s = ifc.degraded_sum_capacity([1.0, 2.0], [1.0, 1.0])
    ch = ifc.rank_one_channel([1.0, 2.0], [1.0, 1.0])
    assert abs(s - np.log2(7.5)) < 1e-12
    assert abs(s - ifc.tin_sum_rate(ch)) < 1e-12


def test_degraded_three_way_equality():
    rng = np.random.default_rng(14)
    for _ in range(30):
        K = int(rng.integers(2, 6))
        ch, a, b = random_rank_one(rng, K)
        s14 = ifc.degraded_sum_capacity(a, b)
        s10 = ifc.tin_sum_rate(ch)
        s13 = ifc.degraded_chain_sum_rate(a, np.diagonal(ch.entries).real)
        assert abs(s14 - s10) < 1e-9
        assert abs(s10 - s13) < 1e-9
        assert abs(s14 - s13) < 1e-9


def test_zero_b_entry_kills_the_channel_upstream():
    # a zero b entry zeroes a direct gain, so the channel itself is invalid
    from ifcbounds.errors import NonStandardDiagonal
    with pytest.raises(NonStandardDiagonal):
        ifc.rank_one_channel([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(BetaInvalid):
        ifc.degraded_sum_capacity([1.0, 2.0], [0.0, 0.0])
