import numpy as np
import pytest

import ifcbounds as ifc
import ifcbounds.certify as certify
import ifcbounds.outer_bound as outer_bound
from ifcbounds.certify import (
    BOUND_ONLY,
    CERTIFIED,
    PATH_DEGRADED,
    PATH_MAC,
    PATH_NUMERIC,
    PATH_Z,
)

from support import random_gains, random_rank_one, random_z_channel, sample_interior_sigma


def test_z_channel_certified_via_recovery():
    rng = np.random.default_rng(50)
    ch, _ = random_z_channel(rng, 3)
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == CERTIFIED
    assert cert.path == PATH_Z
    assert abs(cert.gap_bits) <= 1e-9
    assert abs(cert.upper_bits - ifc.tin_sum_rate(ch)) <= 1e-9


def test_rank_one_certified_degraded():
    rng = np.random.default_rng(51)
    ch, a, b = random_rank_one(rng, 4)
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == CERTIFIED
    assert cert.path == PATH_DEGRADED
    direct = ifc.degraded_sum_capacity(a, b)
    assert abs(cert.upper_bits - direct) <= 1e-9


def test_mac_path_on_strong_lower_coupling():
    # not upper-triangular, but the recovered coupling plus receiver-side
    # decodability makes the ladder value tight
    ch = ifc.validate_channel(np.array([[1.0, 0.5], [2.5, 2.0]]))
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == CERTIFIED
    assert cert.path == PATH_MAC
    assert abs(cert.gap_bits) <= 1e-9


def test_large_z_channel_certified_via_recovery():
    # no receiver of a Z channel hears an earlier user, so the joint-decoding
    # cap does not bind however many users there are
    rng = np.random.default_rng(56)
    ch = ifc.build_z_channel(sample_interior_sigma(rng, 22), random_gains(rng, 22))
    cert = ifc.certify_sum_capacity(ch)
    assert (cert.status, cert.path) == (CERTIFIED, PATH_Z)


def test_one_to_many_channel_certified_by_the_ladder():
    # user 1 interferes strongly at every receiver; the others are not heard
    ch = ifc.validate_channel(np.array([[1.0, 0, 0], [3.0, 1.2, 0], [4.0, 0, 0.9]]))
    cert = ifc.certify_sum_capacity(ch)
    assert (cert.status, cert.path) == (CERTIFIED, PATH_MAC)
    assert abs(cert.lower_bits - ifc.tin_sum_rate(ch)) <= 1e-12


def test_single_user_certified_degraded():
    cert = ifc.certify_sum_capacity(ifc.validate_channel([[1.5]]))
    assert (cert.status, cert.path) == (CERTIFIED, PATH_DEGRADED)
    assert abs(cert.upper_bits - np.log2(3.25)) < 1e-12


def test_symmetric_weak_interference_is_bound_only():
    ch = ifc.validate_channel(np.array([[1.0, 0.5], [0.5, 1.0]]))
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == BOUND_ONLY
    assert cert.path is None
    assert cert.gap_bits > 0.01  # genuinely open gap, not a tolerance artifact
    assert cert.upper_bits >= cert.lower_bits


def test_certificate_bounds_are_really_bounds():
    rng = np.random.default_rng(52)
    for _ in range(5):
        ch, _ = random_z_channel(rng, 2)
        cert = ifc.certify_sum_capacity(ch)
        tin = ifc.tin_sum_rate(ch)
        assert cert.lower_bits >= tin - 1e-9
        assert cert.upper_bits >= tin - 1e-9


def test_certification_deterministic():
    ch = ifc.validate_channel(np.array([[1.0, 0.5], [0.5, 1.0]]))
    c1 = ifc.certify_sum_capacity(ch).to_json_dict()
    c2 = ifc.certify_sum_capacity(ch).to_json_dict()
    assert c1 == c2


def test_details_name_the_decision():
    rng = np.random.default_rng(53)
    ch, _ = random_z_channel(rng, 2)
    cert = ifc.certify_sum_capacity(ch)
    assert any("witness" in d or "ladder" in d for d in cert.details)


def test_witness_and_recovery_consistency():
    rng = np.random.default_rng(54)
    ch, sig = random_z_channel(rng, 4)
    rec = ifc.recover_noise_correlation(ch)
    rep = ifc.degradedness_witness(ch, rec)
    assert rep.passed
    assert np.max(np.abs(rec.sigma - sig.sigma)) < 1e-9


def test_rank_deficient_symmetric_pair_certifies_degraded():
    # all-ones gains are unit rank AND recover a fully correlated coupling;
    # the degenerate joint law must not abort the run before the pooled route
    ch = ifc.validate_channel(np.array([[1.0, 1.0], [1.0, 1.0]]))
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == ifc.CERTIFIED
    assert cert.path == ifc.PATH_DEGRADED
    assert abs(cert.upper_bits - np.log2(3)) < 1e-12


def _close_rank_one(rng, K, spacing):
    """Unit-rank channel whose receiver gains |a_k| are `spacing` apart."""
    t = rng.uniform(0.3, 2.3) + spacing * np.arange(K)
    b = (0.3 + rng.random(K)) * np.exp(2j * np.pi * rng.random(K))
    return ifc.rank_one_channel(t * b / np.abs(b), b)


def test_near_equal_rank_one_gains_certify_degraded():
    # near-equal receiver gains put round-off at the size of the residuals a
    # degradedness check would read; certify must reach the pooled route
    ch = ifc.rank_one_channel([1.0, 1.0 + 1e-8, 1.0 + 2e-8], [1.0, 0.8, 0.6])
    cert = ifc.certify_sum_capacity(ch)
    assert (cert.status, cert.path) == (CERTIFIED, PATH_DEGRADED)
    rng = np.random.default_rng(55)
    for _ in range(20):
        cert = ifc.certify_sum_capacity(_close_rank_one(rng, 5, 1e-8))
        assert (cert.status, cert.path) == (CERTIFIED, PATH_DEGRADED)
        assert abs(cert.gap_bits) <= 1e-9


def test_verdicts_do_not_depend_on_the_degradedness_witness(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify must not call the degradedness witness")

    monkeypatch.setattr(certify, "degradedness_witness", refuse)
    z, _ = random_z_channel(np.random.default_rng(50), 3)
    rank_one, _, _ = random_rank_one(np.random.default_rng(51), 4)
    cases = [
        (z, CERTIFIED, PATH_Z),
        (rank_one, CERTIFIED, PATH_DEGRADED),
        (ifc.validate_channel(np.array([[1.0, 1.0], [1.0, 1.0]])), CERTIFIED, PATH_DEGRADED),
        (ifc.validate_channel(np.array([[1.0, 0.5], [2.5, 2.0]])), CERTIFIED, PATH_MAC),
        (ifc.validate_channel(np.array([[1.0, 0.5], [0.5, 1.0]])), BOUND_ONLY, None),
    ]
    for ch, status, path in cases:
        cert = ifc.certify_sum_capacity(ch)
        assert (cert.status, cert.path) == (status, path)


def test_degenerate_recovered_coupling_skips_the_ladder_routes():
    # fully correlated recovered coupling, MAC-feasible, not unit rank: the
    # bound at that coupling cannot be scored, so the MAC route must step
    # aside rather than raise
    ch = ifc.validate_channel(np.array([[1.0, 1.0], [3.0, 1.0]]))
    rec = ifc.recover_noise_correlation(ch)
    assert rec is not None and abs(abs(rec.sigma[0, 1]) - 1.0) < 1e-12
    assert ifc.mac_feasibility(ch).feasible
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == BOUND_ONLY
    assert "unit-rank gain matrix: no" in cert.details
    assert any("bound at the recovered coupling is degenerate" in d for d in cert.details)


# channels whose sum capacity only the numeric route certifies, with the
# family and ordering of the winning sum-rate inequality
NUMERIC_CASES = [
    ([[1.0, 0.0], [0.5, 1.0]], "ETW", (2, 1)),
    ([[2.0, 0.0, 0.0], [0.3, 1.5, 0.0], [0.2, 0.4, 1.0]], "KRA", (3, 2, 1)),
]


@pytest.mark.parametrize("H, family, perm", NUMERIC_CASES)
def test_numeric_match(H, family, perm):
    ch = ifc.validate_channel(np.array(H))
    ineq = ifc.region(ch, sum_rate_only=True).inequalities[-1]
    assert (ineq.family, tuple(ineq.witness["perm"])) == (family, perm)
    cert = ifc.certify_sum_capacity(ch)
    assert (cert.status, cert.path) == (CERTIFIED, PATH_NUMERIC)
    assert abs(cert.gap_bits) <= 1e-9


@pytest.mark.parametrize("H, family, perm", NUMERIC_CASES)
def test_numeric_match_upper_recheck_is_a_second_route(monkeypatch, H, family, perm):
    # region scores the winner by kra_term_value / etw_term_value; the recheck
    # must reach the entropy chain (KRA) or the closed-form summands (ETW)
    owner, name = ((certify, "_term_by_entropies") if family == "KRA"
                   else (outer_bound, "_etw_summand"))
    route = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: route(*args) + 1e-6)
    with pytest.raises(ifc.InternalConsistencyError, match="re-verification"):
        ifc.certify_sum_capacity(ifc.validate_channel(np.array(H)))


# a certificate of each ladder theorem, and the second routes its re-check reaches
LADDER_RECHECKS = [
    ([[1.0, 1.0], [1.0, 1.0]], PATH_DEGRADED, "degraded_chain_sum_rate"),
    ([[1.0, 1.0], [1.0, 1.0]], PATH_DEGRADED, "_ladder_by_information"),
    ([[1.0, 0.4], [0.0, 1.0]], PATH_Z, "_term_by_entropies"),
    ([[1.0, 0.4], [0.0, 1.0]], PATH_Z, "_ladder_by_information"),
    ([[1.0, 0.5], [2.5, 2.0]], PATH_MAC, "_term_by_entropies"),
    ([[1.0, 0.5], [2.5, 2.0]], PATH_MAC, "_ladder_by_information"),
]


@pytest.mark.parametrize("H, path, name", LADDER_RECHECKS)
def test_ladder_certificates_are_rechecked_by_a_second_route(monkeypatch, H, path, name):
    ch = ifc.validate_channel(np.array(H))
    assert ifc.certify_sum_capacity(ch).path == path
    route = getattr(certify, name)
    monkeypatch.setattr(certify, name, lambda *args: route(*args) + 1e-6)
    with pytest.raises(ifc.InternalConsistencyError, match="re-verification"):
        ifc.certify_sum_capacity(ch)
