import numpy as np

import ifcbounds as ifc
from ifcbounds.certify import (
    BOUND_ONLY,
    CERTIFIED,
    PATH_DEGRADED,
    PATH_MAC,
    PATH_Z,
)

from support import random_rank_one, random_z_channel


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
    # the degenerate witness must not abort the run before the pooled route
    ch = ifc.validate_channel(np.array([[1.0, 1.0], [1.0, 1.0]]))
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == ifc.CERTIFIED
    assert cert.path == ifc.PATH_DEGRADED
    assert abs(cert.upper_bits - np.log2(3)) < 1e-12
    assert any("degenerate" in d for d in cert.details)
