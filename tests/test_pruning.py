"""Pruning of KRA orderings at the convex-duality lower bound.

``region`` solves the orderings of a subset in order of their starting value
and stops a solve once ``_kra_lower_bound`` shows that the ordering cannot
reach the least value reported before it.  These tests hold that the bound
is a lower bound, that it is tight at an interior minimiser, and that pruning
changes no byte of any report, nor does the start ``region`` builds once per
ordering and hands to ``kra_term_min``.
"""

import json
import math

import numpy as np
import pytest

import ifcbounds as ifc
from ifcbounds import outer_bound
from ifcbounds.outer_bound import (
    _chain_covariances,
    _chain_value_grad,
    _kra_lower_bound,
    _kra_start,
    _reduced_channel,
)

from support import count_calls, random_channel, random_z_channel, sample_interior_sigma


def _unpruned(monkeypatch):
    """Make region solve every ordering to the end: each kra_term_min call
    gets +inf as the value to prune above.  Results are memoised per channel
    and term, since they do not depend on the families asked for."""
    real, memo = outer_bound.kra_term_min, {}

    def solve_all(ch, t, prune_above=None, **kwargs):  # forwards region's start
        key = (ch.entries.tobytes(), t)
        if key not in memo:
            memo[key] = real(ch, t, math.inf, **kwargs)
        return memo[key]
    monkeypatch.setattr(outer_bound, "kra_term_min", solve_all)


def _reports(channels, families, sum_rate_only=False):
    return [json.dumps(ifc.region(ch, families=families, sum_rate_only=sum_rate_only)
                       .to_json_dict()) for ch in channels]


def _symmetric(K, a=1.0, b=0.4 + 0.3j):
    """a I + b (J - I): every relabelling leaves it as it is, so all
    orderings of a subset tie exactly."""
    return ifc.validate_channel(a * np.eye(K) + b * (np.ones((K, K)) - np.eye(K)))


@pytest.mark.parametrize("K", [3, 4])
@pytest.mark.parametrize("scale", [0.5, 2.0, 8.0, 30.0])
def test_pruning_changes_no_report(monkeypatch, K, scale):
    channels = [random_channel(np.random.default_rng(seed), K, scale) for seed in range(6)]
    families = ["kra", "kra,etw"]
    pruned = [_reports(channels, f) for f in families]
    with monkeypatch.context() as m:
        _unpruned(m)
        assert [_reports(channels, f) for f in families] == pruned


def test_pruning_changes_no_sum_rate_at_five_users(monkeypatch):
    channels = [random_channel(np.random.default_rng(seed), 5, 2.0) for seed in range(2)]
    pruned = [_reports(channels, f, sum_rate_only=True) for f in ("kra", "kra,etw")]
    with monkeypatch.context() as m:
        _unpruned(m)
        assert [_reports(channels, f, sum_rate_only=True) for f in ("kra", "kra,etw")] == pruned


@pytest.mark.parametrize("K", [3, 4])
def test_exact_ties_keep_the_first_ordering(monkeypatch, K):
    ch = _symmetric(K)
    rep = ifc.region(ch, families="kra")
    # every ordering of a subset has the same reduced channel: the first wins
    assert all(q.witness["perm"] == q.subset for q in rep.inequalities)
    pruned = _reports([ch], "kra") + _reports([ch], "kra,etw")
    with monkeypatch.context() as m:
        _unpruned(m)
        assert _reports([ch], "kra") + _reports([ch], "kra,etw") == pruned


def _bound_at(sigma, chain):
    return _kra_lower_bound(sigma, *_chain_value_grad(sigma, chain), chain)


@pytest.mark.parametrize("K, scale, seed", [(3, 1.0, 71), (4, 8.0, 72)])
def test_lower_bound_is_below_the_minimum(monkeypatch, K, scale, seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, K, scale)
    subset = (1, 2, K)
    real = outer_bound._factored_value_grad
    for perm in (subset, subset[::-1]):
        t = ifc.BoundTerm(subset, perm)
        grid, _ = ifc.grid_min_sigma(ch, t, resolution=8)
        val, _ = ifc.kra_term_min(ch, t)
        chain = _chain_covariances(_reduced_channel(ch, t))
        bounds = [_bound_at(sample_interior_sigma(rng, 3).sigma, chain) for _ in range(20)]
        iterates = []

        def spy(x, chain, seen=None):  # the bound at every point the solve evaluates
            mine: list = []
            out = real(x, chain, mine)
            if mine:
                iterates.append(_kra_lower_bound(*mine, chain))
                if seen is not None:
                    seen[:] = mine
            return out
        with monkeypatch.context() as m:
            m.setattr(outer_bound, "_factored_value_grad", spy)
            assert ifc.kra_term_min(ch, t, math.inf)[0] == val  # +inf prunes nothing
        assert len(iterates) > 1
        for lb, _ in bounds + iterates:
            # the grid's value is the term at a feasible coupling, so it is at
            # least the minimum; 1e-9 covers its explicit formula's round-off
            assert lb <= grid + 1e-9, (perm, lb - grid)
            assert lb <= val + 1e-9, (perm, lb - val)


def test_lower_bound_is_tight_at_an_interior_minimiser():
    # a constructed channel's generating coupling is the exact minimiser of
    # its natural-order term, and it is interior
    rng = np.random.default_rng(25)
    t = ifc.BoundTerm((1, 2, 3), (1, 2, 3))
    for _ in range(3):
        ch, sig = random_z_channel(rng, 3)
        val, _ = ifc.kra_term_min(ch, t)
        lb, allowance = _bound_at(sig.sigma, _chain_covariances(_reduced_channel(ch, t)))
        assert abs(val - lb) <= 1e-6 and allowance < 1e-6
    # a dense channel whose solve ends inside the cone, where BFGS_GTOL leaves
    # the end point a little short of the minimiser
    ch = random_channel(np.random.default_rng(94), 3)
    t = ifc.BoundTerm((1, 2, 3), (2, 1, 3))
    chain, candidates = _kra_start(ch, t)
    end = outer_bound._factored_min_sigma(candidates[-1], chain)
    assert np.linalg.eigvalsh(end)[0] > 1e-2
    val, _ = ifc.kra_term_min(ch, t)
    lb, _ = _bound_at(end, chain)
    assert val - 1e-6 <= lb <= val + 1e-9


@pytest.mark.parametrize("K", [3, 4])
def test_region_calls_each_term_once_and_rescores_fewer(monkeypatch, K):
    ch = random_channel(np.random.default_rng(80 + K), K)
    mins = count_calls(monkeypatch, outer_bound.kra_term_min)
    values = count_calls(monkeypatch, outer_bound.kra_term_value)
    ifc.region(ch)
    assert len(mins) == ifc.count_bounds(K)
    # the benchmark's tracer reads the term off the second positional argument
    assert all(isinstance(args[1], ifc.BoundTerm) for args in mins)
    assert len(values) < ifc.count_bounds(K)


def _result_bytes(res):
    return None if res is None else (res[0], res[1].sigma.tobytes())


@pytest.mark.parametrize("K", [3, 4, 5])
def test_a_handed_start_changes_no_result(K):
    # region builds each ordering's start once and hands it to kra_term_min;
    # the same call building its own start must give the same bytes, with
    # no pruning, with +inf and with the least value of the subset
    ch = random_channel(np.random.default_rng(90 + K), K, 2.0)
    by_subset, pruned = {}, 0
    for t in ifc.enumerate_terms(K):
        by_subset.setdefault(t.subset, []).append(t)
    for subset, terms in by_subset.items():
        built = {t: ifc.kra_term_min(ch, t) for t in terms}
        least = min(res[0] for res in built.values())
        for prune_above in (None, math.inf, least):
            for t in terms:
                if prune_above is not None:
                    built[t] = ifc.kra_term_min(ch, t, prune_above)
                handed = ifc.kra_term_min(ch, t, prune_above, start=_kra_start(ch, t))
                assert _result_bytes(handed) == _result_bytes(built[t]), (t, prune_above)
                pruned += handed is None
    assert pruned > 0  # the finite value stops some solves
