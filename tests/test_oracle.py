import numpy as np
import pytest

import ifcbounds as ifc
from ifcbounds.errors import TooLarge, ValidationError
from ifcbounds.model import make_joint
from ifcbounds.oracle import CorrelationAngles, _explicit_value
from ifcbounds.outer_bound import _embed_sigma, _reduced_channel

from support import random_channel, random_joint, random_upper_triangular_channel


def two_user_unit_mi_joint():
    # X ~ CN(0,1), Y = X + Z: I(Y;X) = 1 bit
    cov = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    return make_joint(("X1", "Y1"), cov)


def test_mc_recovers_one_bit():
    j = two_user_unit_mi_joint()
    est, se = ifc.mc_mutual_information(j, ["Y1"], ["X1"], [], n_samples=400_000, seed=7)
    assert se < 0.01
    assert abs(est - 1.0) <= 3 * se + 1e-12


def test_mc_error_shrinks_with_samples():
    j = two_user_unit_mi_joint()
    _, se1 = ifc.mc_mutual_information(j, ["Y1"], ["X1"], [], n_samples=50_000, seed=11)
    _, se2 = ifc.mc_mutual_information(j, ["Y1"], ["X1"], [], n_samples=200_000, seed=11)
    # 4x the samples should halve the reported error, up to sampling noise
    assert se2 < se1 * 0.6
    assert se2 > se1 * 0.4


def test_mc_deterministic_given_seed():
    rng = np.random.default_rng(60)
    j, _, _ = random_joint(rng, 3)
    r1 = ifc.mc_mutual_information(j, ["Y1"], ["X1", "X2"], ["X3"], n_samples=20_000, seed=3)
    r2 = ifc.mc_mutual_information(j, ["Y1"], ["X1", "X2"], ["X3"], n_samples=20_000, seed=3)
    assert r1 == r2  # bit-exact, not approximately
    r3 = ifc.mc_mutual_information(j, ["Y1"], ["X1", "X2"], ["X3"], n_samples=20_000, seed=4)
    assert r1 != r3


def test_mc_independent_blocks_near_zero():
    cov = np.eye(2, dtype=complex)
    j = make_joint(("X1", "Y1"), cov)
    est, se = ifc.mc_mutual_information(j, ["Y1"], ["X1"], [], n_samples=100_000, seed=5)
    assert abs(est) <= 3 * se + 1e-9


def test_mc_matches_schur_on_bound_style_query():
    rng = np.random.default_rng(61)
    _, ch, sig = random_joint(rng, 3)
    j = ifc.build_joint(ch, sig)
    a, b, c = ["Y2"], ["X2", "X3"], ["X1", "Y1"]
    exact = ifc.conditional_mi(j, a, b, c)
    est, se = ifc.mc_mutual_information(j, a, b, c, n_samples=1_000_000, seed=13)
    assert abs(est - exact) <= 3 * se


def test_mc_rejects_tiny_sample_budget():
    j = two_user_unit_mi_joint()
    with pytest.raises(ValidationError):
        ifc.mc_mutual_information(j, ["Y1"], ["X1"], [], n_samples=5_000, seed=1)


def test_entropy_identity_route_matches_schur():
    rng = np.random.default_rng(62)
    for _ in range(50):
        j, _, _ = random_joint(rng, int(rng.integers(2, 5)))
        K = (j.cov.shape[0]) // 2
        a = [f"Y{1 + rng.integers(K)}"]
        others = [f"X{i}" for i in range(1, K + 1)]
        rng.shuffle(others)
        cut = int(rng.integers(1, K + 1))
        b, c = others[:cut], others[cut:]
        direct = ifc.conditional_mi(j, a, b, c)
        via_identity = ifc.entropy_identity_mi(j, a, b, c)
        assert abs(direct - via_identity) < 1e-9


def test_grid_resolution_one_is_identity_point():
    rng = np.random.default_rng(63)
    ch = random_upper_triangular_channel(rng, 2)
    t = ifc.BoundTerm((1, 2), (1, 2))
    val, sig = ifc.grid_min_sigma(ch, t, resolution=1)
    assert np.allclose(sig.sigma, np.eye(2))
    assert abs(val - ifc.kra_term_value(ch, ifc.identity_noise(2), t)) < 1e-12


def test_grid_agrees_with_optimizer_two_user():
    rng = np.random.default_rng(64)
    ch = random_upper_triangular_channel(rng, 2)
    t = ifc.BoundTerm((1, 2), (1, 2))
    gval, _ = ifc.grid_min_sigma(ch, t, resolution=200)
    oval, _ = ifc.kra_term_min(ch, t)
    assert abs(gval - oval) < 1e-4


def test_grid_singleton_term():
    rng = np.random.default_rng(65)
    ch = random_channel(rng, 2)
    t = ifc.BoundTerm((2,), (2,))
    val, sig = ifc.grid_min_sigma(ch, t, resolution=50)
    h = ch.entries[1, 1].real
    assert abs(val - np.log2(1 + h * h)) < 1e-12
    assert sig.K == 2


def test_grid_size_guards():
    rng = np.random.default_rng(66)
    ch4 = random_channel(rng, 4)
    with pytest.raises(TooLarge):
        ifc.grid_min_sigma(ch4, ifc.BoundTerm((1, 2, 3, 4), (1, 2, 3, 4)), resolution=4)
    ch2 = random_channel(rng, 2)
    with pytest.raises(TooLarge):
        ifc.grid_min_sigma(ch2, ifc.BoundTerm((1, 2), (1, 2)), resolution=4000)
    ch3 = random_channel(rng, 3)
    with pytest.raises(TooLarge):
        ifc.grid_min_sigma(ch3, ifc.BoundTerm((1, 2, 3), (1, 2, 3)), resolution=64)


def test_grid_witness_rescoring_matches_reported_value():
    # The returned coupling must reproduce the reported minimum through the
    # general evaluator; a convention slip between the scan's explicit
    # determinants and the factor parameterization shows up here first.
    rng = np.random.default_rng(67)
    for K, res in ((2, 150), (3, 16)):
        for _ in range(3):
            ch = random_upper_triangular_channel(rng, K)
            t = ifc.BoundTerm(tuple(range(1, K + 1)), tuple(range(1, K + 1)))
            val, sig = ifc.grid_min_sigma(ch, t, resolution=res)
            assert abs(ifc.kra_term_value(ch, sig, t) - val) < 1e-6


def test_grid_takes_small_terms_on_four_users():
    # the grid reduces every term to its own users, so only |S| is capped
    ch = random_channel(np.random.default_rng(7), 4)
    for t, res in ((ifc.BoundTerm((1, 3, 4), (3, 1, 4)), 16),
                   (ifc.BoundTerm((2, 4), (4, 2)), 200)):
        gval, sig = ifc.grid_min_sigma(ch, t, resolution=res)
        oval, _ = ifc.kra_term_min(ch, t)
        assert sig.K == 4
        assert abs(gval - oval) < 1e-9


def test_grid_search_crosses_a_zero_correlation():
    # a search boxed at theta <= pi/2 stops on this term where the (1, 2)
    # correlation is zero, 3.3e-3 bits above the optimizer; past pi/2 that
    # entry changes sign and the search reaches the minimum
    ch = random_channel(np.random.default_rng(0), 3, 2.0)
    t = ifc.BoundTerm((1, 2, 3), (1, 2, 3))
    gval, _ = ifc.grid_min_sigma(ch, t, resolution=12)
    oval, _ = ifc.kra_term_min(ch, t)
    assert abs(gval - oval) < 1e-9


def test_explicit_value_matches_reference_term():
    # the scan and the refinement share this evaluator; check it pointwise
    # against the conditional-MI reference at random interior angles
    rng = np.random.default_rng(68)
    for subset, perm in (((1, 2), (2, 1)), ((1, 2, 3), (2, 3, 1)), ((2, 3), (2, 3))):
        t = ifc.BoundTerm(subset, perm)
        par = CorrelationAngles(t.size)
        lo, hi = np.array(par.bounds).T
        for _ in range(5):
            ch = random_channel(rng, 3)
            x = lo + (0.1 + 0.8 * rng.random(par.n_params)) * (hi - lo)
            got = _explicit_value(_reduced_channel(ch, t), par.rows(x))
            ref = ifc.kra_term_value(ch, _embed_sigma(par.sigma(x), t, 3), t)
            assert abs(got - ref) < 1e-9
