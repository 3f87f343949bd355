"""Exact symmetries of the bound region, as a referee at any K.

Relabelling the users permutes the inequalities; conjugating H, and rotating
its phases as H -> D H D* with D diagonal and unit-modulus, leave every value
unchanged.  Values are compared subset by subset.  This catches a slip that
depends on labels or orderings, such as a pair table read at the wrong
(k, pi_k), which the reference re-score cannot: a re-scored witness is a valid
bound even when it is not the minimum.
"""

import numpy as np
import pytest
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
    # the KRA solver's end points, blended to EIG_FLOOR, spread by up to
    # ~1.5e-6 bits under a phase rotation (ROADMAP item 9): about one channel
    # in 60 at K = 4 and scale 8 moves past this bound, as the one below does
    _assert_symmetric(seed, K, scale, symmetry, "kra,etw", 1e-6)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: KRA witnesses on the EIG_FLOOR blend "
                   "move by up to ~1.5e-6 bits under a phase rotation")
def test_region_is_symmetric_on_the_phase_rotation_reproducer():
    # hypothesis drew seed 522140 for the test above: subset (1, 3, 4) moved by
    # 2.94e-6 bits under scipy's BFGS, and a value moves by 1.36e-6 under the
    # package's own.  The full-set value of random_channel(default_rng(54), 4,
    # scale=8.0) moved by 1.48e-6 bits under D H D* with D = diag(e^{ik}), and
    # by 1.35e-6 with D = diag(e^{i pi k / 2}) (8.0e-7 and 5.8e-7 now); where a
    # value lands follows the last bits of the rotated gains, so each is tried
    _assert_symmetric(522140, 4, 8.0, "rotate", "kra,etw", 1e-6)
    ch = random_channel(np.random.default_rng(54), 4, scale=8.0)
    values = {q.subset: q.value_bits for q in ifc.region(ch).inequalities}
    for phases in (np.arange(1, 5), 2 * np.pi * np.arange(1, 5) / 4):
        D = np.diag(np.exp(1j * phases))
        for q in ifc.region(ifc.validate_channel(D @ ch.entries @ D.conj().T)).inequalities:
            assert abs(q.value_bits - values[q.subset]) <= 1e-6, (q.subset, phases)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.sampled_from([0.5, 1.0, 3.0, 8.0]))
def test_correlated_noise_region_is_relabelling_invariant_bit_for_bit(seed, K, scale):
    # every step of a KRA term, its solve and its reference value, reads only
    # the reduced law (H[pi, pi], Sigma[pi, pi]), which relabelling leaves
    # entry for entry the same
    _assert_symmetric(seed, K, scale, "relabel", "kra", 0.0)
