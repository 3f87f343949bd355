"""Every reported value is its witness's value (ROADMAP item 18).

Re-scoring a witness through the reference route shows that the witness is
feasible, not that the printed number is its value.  These tests hold each
inequality ``region`` reports, and each certificate's ``upper_bits``, to the
50-digit referee of ``tests/support.py`` at the reported witness or recovered
coupling: no value may sit more than 1e-12 bits below the referee, which would
make it less than the bound it stands for, nor more than 1e-9 bits from it.
The samples are fixed, so a failure names a reproducible channel: random
channels at K = 2-4 and scales 0.5-30, the large-gain family [[1, g], [0, g]],
and Z, many-to-one and MAC constructions, all up to gains 10^3.5.
"""

from itertools import combinations

import numpy as np

import ifcbounds as ifc
from ifcbounds.construct import recover_noise_correlation
from ifcbounds.model import CERTIFIED, PATH_MAC, PATH_Z

from support import (
    random_channel,
    referee_etw_term,
    referee_kra_term,
    sample_interior_sigma,
)

#: a reported value may sit this far below its referee: round-off, not a looser claim
BELOW = 1e-12

#: and this far from it either way
APART = 1e-9


def _sample():
    rng = np.random.default_rng(1903)
    channels = [random_channel(rng, K, scale)
                for K in (2, 3, 4) for scale in (0.5, 2.0, 8.0, 30.0) for _ in range(2)]
    channels += [ifc.validate_channel(np.array([[1.0, g], [0.0, g]]))
                 for g in 10.0 ** np.arange(0.5, 3.6, 0.5)]
    for top in (1.5, 2.5, 3.5):
        gains = 10.0 ** rng.uniform(0.0, top, 3)
        gains[rng.integers(3)] = 10.0 ** top
        channels.append(ifc.build_z_channel(sample_interior_sigma(rng, 3), gains))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        channels.append(ifc.many_to_one(v * np.sqrt(0.9 / np.sum(np.abs(v) ** 2)), gains))
    return channels


def _misses(family, referee):
    """(channel index, subset, value - referee) of every reported inequality
    of ``family`` whose value is not backed by its witness."""
    out = []
    for i, ch in enumerate(_sample()):
        for q in ifc.region(ch, families=family).inequalities:
            delta = q.value_bits - referee(ch, q)
            if delta < -BELOW or abs(delta) > APART:
                out.append((i, q.subset, delta))
    return out


def _kra_referee(ch, q):
    return referee_kra_term(ch, ifc.NoiseCorrelation(q.witness["sigma"]),
                            ifc.BoundTerm(q.subset, q.witness["perm"]))


def _etw_referee(ch, q):
    return referee_etw_term(ch, ifc.BoundTerm(q.subset, q.witness["perm"]), q.witness["rhos"])


def test_kra_values_are_their_witnesses_values():
    assert _misses("kra", _kra_referee) == []


def test_etw_values_are_their_witnesses_values():
    # [[1, g], [0, g]] at g = 1000: a covariance Cholesky route read the
    # winning value 7.2e-7 bits below its referee
    assert _misses("etw", _etw_referee) == []


def _mac_construction(rng, gains):
    """A Z construction whose receivers also hear every earlier user, each
    25% louder than joint decoding of the ladder rates needs; the upper
    triangle, and so the recovered coupling and the ladder, are the Z
    channel's, and the certificate is MAC_THEOREM3's."""
    K = len(gains)
    H = ifc.build_z_channel(sample_interior_sigma(rng, K), gains).entries.copy()
    rates = ifc.succ_dec_rates(ifc.validate_channel(H))
    for k in range(1, K):
        base = 1.0 + np.sum(np.abs(H[k, k + 1:]) ** 2) + H[k, k].real ** 2
        need = max((2.0 ** sum(rates[list(S)]) - 1.0) / len(S)
                   for n in range(1, k + 1) for S in combinations(range(k), n))
        H[k, :k] = np.sqrt(1.25 * base * need) * np.exp(2j * np.pi * rng.random(k))
    return ifc.validate_channel(H)


def _constructions():
    """(theorem path, channel): Z, many-to-one and MAC constructions on
    K = 2-4 users, one direct gain at 10^top and the others below it."""
    rng = np.random.default_rng(1904)
    out = []
    for K in (2, 3, 4):
        for top in (1.5, 2.5, 3.5):
            gains = 10.0 ** rng.uniform(0.0, top, K)
            gains[rng.integers(K)] = 10.0 ** top
            v = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
            out += [(PATH_Z, ifc.build_z_channel(sample_interior_sigma(rng, K), gains)),
                    (PATH_Z, ifc.many_to_one(v * np.sqrt(0.9 / np.sum(np.abs(v) ** 2)), gains)),
                    (PATH_MAC, _mac_construction(rng, gains))]
    return out


def test_certified_upper_bits_are_their_couplings_values():
    misses = []
    for i, (path, ch) in enumerate(_constructions()):
        cert = ifc.certify_sum_capacity(ch)
        assert (cert.status, cert.path) == (CERTIFIED, path), i
        users = tuple(range(1, ch.K + 1))
        delta = cert.upper_bits - referee_kra_term(ch, recover_noise_correlation(ch),
                                                   ifc.BoundTerm(users, users))
        if delta < -BELOW or abs(delta) > APART:
            misses.append((i, delta))
    assert misses == []
