import numpy as np
import pytest

import ifcbounds as ifc
from ifcbounds.errors import (
    ConditionViolated,
    IndexOutOfRange,
    NonStandardDiagonal,
    SingularCovariance,
    WitnessFailure,
)

from support import (
    random_channel,
    random_gains,
    random_z_channel,
    sample_interior_sigma,
    witness_referee,
)


def test_z_channel_lower_triangle_is_exactly_zero():
    rng = np.random.default_rng(40)
    for _ in range(20):
        K = int(rng.integers(2, 6))
        ch, _ = random_z_channel(rng, K)
        low = np.tril(ch.entries, -1)
        assert np.all(low == 0)  # structural zero, not approximately


def test_z_channel_two_user_coupling_relation():
    # with no tail, h_{1,2} = g_2 * sigma_{12} exactly
    rng = np.random.default_rng(41)
    for _ in range(10):
        sig = sample_interior_sigma(rng, 2)
        g = random_gains(rng, 2)
        ch = ifc.build_z_channel(sig, g)
        assert abs(ch.entries[0, 1] - g[1] * sig.sigma[0, 1]) < 1e-14
        assert abs(ch.entries[0, 0] - g[0]) < 1e-15


def test_z_channel_witness_passes_by_construction():
    rng = np.random.default_rng(42)
    ch, sig = random_z_channel(rng, 4)
    rep = ifc.degradedness_witness(ch, sig)
    assert rep.passed
    assert rep.max_residual() <= 1e-9


def test_witness_rejects_generic_channel():
    ch = ifc.validate_channel(np.array([[1.0, 0.9], [0.0, 1.0]]))
    rep = ifc.degradedness_witness(ch, ifc.identity_noise(2))
    assert not rep.passed
    assert rep.max_residual() > 1e-3


def test_witness_residuals_match_a_covariance_referee():
    # well-conditioned channels, degraded and generic: the square-root
    # residuals agree with the covariance Cholesky ones
    rng = np.random.default_rng(47)
    for i in range(40):
        K = int(rng.integers(2, 5))
        if i % 2:
            ch, sig = random_z_channel(rng, K)
        else:
            ch, sig = random_channel(rng, K), sample_interior_sigma(rng, K)
        for k, coef, mi in ifc.degradedness_witness(ch, sig).residuals:
            want_coef, want_mi = witness_referee(ch, sig, k)
            assert abs(coef - want_coef) <= 1e-12 and abs(mi - want_mi) <= 1e-12, (i, k)


def test_witness_refuses_couplings_it_cannot_factor():
    ch = ifc.validate_channel(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(IndexOutOfRange, match="noise correlation is 3x3"):
        ifc.degradedness_witness(ch, ifc.identity_noise(3))
    singular = ifc.validate_noise_correlation([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularCovariance, match="not positive definite"):
        ifc.degradedness_witness(ch, singular)


def test_recovery_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(10):
        K = int(rng.integers(2, 6))
        ch, sig = random_z_channel(rng, K)
        rec = ifc.recover_noise_correlation(ch)
        assert np.max(np.abs(rec.sigma - sig.sigma)) < 1e-9
        g = np.real(np.diagonal(ch.entries))
        rebuilt = ifc.build_z_channel(rec, g)
        assert np.max(np.abs(rebuilt.entries - ch.entries)) < 1e-9


def test_many_to_one_is_a_coupled_z_channel():
    rng = np.random.default_rng(44)
    for _ in range(10):
        K = int(rng.integers(2, 5))
        raw = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
        v = 0.9 * raw / np.linalg.norm(raw)
        g = random_gains(rng, K)
        ch = ifc.many_to_one(v, g)
        alt = ifc.build_z_channel(ifc.many_to_one_noise(v), g)
        assert np.array_equal(ch.entries, alt.entries)
        # only receiver 1 is interfered, at h_{1,k} = v_k h_{k,k}
        assert np.array_equal(ch.entries[0, 1:], v * g[1:])
        assert np.all(np.triu(ch.entries[1:, 1:], 1) == 0)


def test_many_to_one_power_condition():
    v = [0.8, 0.7]  # sum of squares 1.13 > 1
    with pytest.raises(ConditionViolated):
        ifc.many_to_one(v, [1.0, 1.0, 1.0])


def test_many_to_one_noise_is_valid_and_rank_structured():
    v = np.array([0.6, 0.5]) * np.exp(1j * np.array([0.3, -1.1]))
    sig = ifc.many_to_one_noise(v)
    assert sig.K == 3
    assert np.max(np.abs(sig.sigma[0, 1:] - v)) < 1e-15
    # users 2..K see no correlation among themselves
    assert abs(sig.sigma[1, 2]) < 1e-15


def test_rank_one_structure():
    rng = np.random.default_rng(45)
    for _ in range(20):
        K = int(rng.integers(2, 7))
        t = np.sort(rng.uniform(0.3, 2.5, size=K))
        b = (0.3 + rng.random(size=K)) * np.exp(2j * np.pi * rng.random(size=K))
        a = t * b / np.abs(b)
        ch = ifc.rank_one_channel(a, b)
        s = np.linalg.svd(ch.entries, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]
        assert np.max(np.abs(np.imag(np.diagonal(ch.entries)))) == 0.0


def test_rank_one_worked_entries():
    ch = ifc.rank_one_channel([1.0, 2.0], [1.0, 1.0])
    assert np.allclose(ch.entries, [[1.0, 1.0], [2.0, 2.0]])


def test_rank_one_rejects_nonpositive_diagonal():
    with pytest.raises(NonStandardDiagonal):
        ifc.rank_one_channel([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(NonStandardDiagonal):
        ifc.rank_one_channel([1j, 2.0], [1.0, 1.0])


def test_witness_failure_surfaces_from_builder(monkeypatch):
    # sabotage the witness so the builder's own guard fires
    import ifcbounds.construct as construct

    class Bad:
        passed = False

        @staticmethod
        def max_residual():
            return 1.0

    monkeypatch.setattr(construct, "degradedness_witness", lambda ch, noise: Bad)
    rng = np.random.default_rng(46)
    sig = sample_interior_sigma(rng, 2)
    with pytest.raises(WitnessFailure):
        construct.build_z_channel(sig, [1.0, 1.0])
    with pytest.raises(WitnessFailure):  # many_to_one is checked as a Z construction
        construct.many_to_one([0.5, 0.3j], [1.0, 2.0, 1.5])


def test_large_direct_gains_build_their_constructions():
    many = ifc.many_to_one([0.5, 0.3], [300.0, 200.0, 500.0])
    z = ifc.build_z_channel(ifc.validate_noise_correlation([[1.0, 0.5], [0.5, 1.0]]),
                            [3000.0, 2000.0])
    assert np.all(np.tril(many.entries, -1) == 0) and np.all(np.tril(z.entries, -1) == 0)


def test_large_gain_z_constructions_pass_their_witness():
    # direct gains up to 10^3.5: the covariance route split its decisions or
    # failed degraded channels on about half of such draws
    rng = np.random.default_rng(909)
    for _ in range(60):
        K = int(rng.integers(2, 6))
        sig = sample_interior_sigma(rng, K)
        ch = ifc.build_z_channel(sig, 10.0 ** rng.uniform(0.0, 3.5, K))
        assert ifc.degradedness_witness(ch, sig).max_residual() <= 1e-10


def test_constructions_at_gains_of_a_million_refuse_a_lost_pivot():
    # X2 given (Y2, X1) keeps 1/(1 + g^2) of its variance: within EIG_TOL
    sig = ifc.validate_noise_correlation([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(SingularCovariance, match=(
            r"cov of \['X2'\] given \['Y2', 'X1'\] has a pivot within EIG_TOL = 1e-12")):
        ifc.build_z_channel(sig, [1e6, 1e6])
    ifc.build_z_channel(sig, [10 ** 5.5, 10 ** 5.5])
