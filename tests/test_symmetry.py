"""Exact symmetries of the bound region, as a referee at any K.

Relabelling the users permutes the inequalities; conjugating H, and rotating
its phases as H -> D H D* with D diagonal and unit-modulus, leave every value
unchanged.  Values are compared subset by subset.  This catches a slip that
depends on labels or orderings, such as a pair table read at the wrong
(k, pi_k), which the reference re-score cannot: a re-scored witness is a valid
bound even when it is not the minimum.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import ifcbounds as ifc

from support import random_channel

SYMMETRIES = ("relabel", "conjugate", "rotate")


def _transformed(H, symmetry, rng):
    """(H', old_subset): the transformed gains, and the subset of H's users
    that a subset of H''s users stands for."""
    K = H.shape[0]
    if symmetry == "relabel":
        perm = rng.permutation(K)  # new user i + 1 is old user perm[i] + 1
        return H[np.ix_(perm, perm)], lambda s: tuple(sorted(int(perm[i - 1]) + 1 for i in s))
    if symmetry == "conjugate":
        return H.conj(), lambda s: s
    d = np.exp(2j * np.pi * rng.random(K))
    return d[:, None] * H * d.conj()[None, :], lambda s: s


def _assert_symmetric(seed, K, scale, symmetry, families, tol):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, K, scale)
    H2, old_subset = _transformed(ch.entries, symmetry, rng)
    values = {q.subset: q.value_bits for q in ifc.region(ch, families=families).inequalities}
    moved = ifc.region(ifc.validate_channel(H2), families=families).inequalities
    assert len(moved) == len(values)
    for q in moved:
        assert abs(q.value_bits - values[old_subset(q.subset)]) <= tol, (q.subset, symmetry)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.sampled_from([0.5, 1.0, 3.0, 8.0]),
       st.sampled_from(SYMMETRIES))
def test_genie_region_is_symmetric(seed, K, scale, symmetry):
    _assert_symmetric(seed, K, scale, symmetry, "etw", 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.sampled_from([0.5, 1.0, 3.0, 8.0]),
       st.sampled_from(SYMMETRIES))
def test_region_is_symmetric(seed, K, scale, symmetry):
    # the KRA solver's end points spread by up to ~6e-8 bits (ROADMAP item 9)
    _assert_symmetric(seed, K, scale, symmetry, "kra,etw", 1e-6)
