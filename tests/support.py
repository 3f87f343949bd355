"""Shared samplers for the test suite.

Everything takes an explicit numpy Generator so individual tests stay
reproducible under pytest -p no:randomly and friends.
"""

import numpy as np

import ifcbounds as ifc
from ifcbounds.oracle import CorrelationAngles


def sample_interior_sigma(rng, K, margin=0.15, eig_floor=5e-3):
    """Random unit-diagonal PSD coupling strictly inside the PSD cone.

    Draws that land too close to the cone boundary are blended toward the
    identity (which preserves the unit diagonal) until the smallest eigenvalue
    clears eig_floor, so downstream log-dets stay well conditioned.
    """
    par = CorrelationAngles(K)
    lo = np.array([b[0] for b in par.bounds])
    hi = np.array([b[1] for b in par.bounds])
    u = rng.random(par.n_params)
    x = lo + (margin + (1.0 - 2.0 * margin) * u) * (hi - lo)
    sig = par.sigma(x)
    e0 = float(np.linalg.eigvalsh(sig)[0])
    if e0 < eig_floor:
        t = (eig_floor - e0) / (1.0 - e0)
        sig = (1.0 - t) * sig + t * np.eye(K)
    return ifc.validate_noise_correlation(sig)


def random_gains(rng, K, lo=0.25, hi=4.0):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), K))


def random_z_channel(rng, K):
    """Channel with exactly known sum capacity, plus its generating coupling."""
    sig = sample_interior_sigma(rng, K)
    ch = ifc.build_z_channel(sig, random_gains(rng, K))
    return ch, sig


def random_channel(rng, K, scale=1.0):
    """Dense channel with complex cross gains and positive direct gains."""
    H = scale * (rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))) / np.sqrt(2)
    H[np.diag_indices(K)] = np.abs(np.diagonal(H)) + 0.3
    return ifc.validate_channel(H)


def random_upper_triangular_channel(rng, K, scale=1.0):
    """Random channel where receiver k hears only users k..K."""
    H = scale * (rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))) / np.sqrt(2)
    H = np.triu(H, 1)
    H[np.diag_indices(K)] = random_gains(rng, K)
    return ifc.validate_channel(H)


def random_rank_one(rng, K):
    """Unit-rank channel in standard form: returns (channel, a, b)."""
    t = np.sort(rng.uniform(0.3, 2.5, K))
    b = (0.3 + rng.random(K)) * np.exp(2j * np.pi * rng.random(K))
    a = t * b / np.abs(b)  # makes a_k * conj(b_k) = t_k |b_k| real positive
    return ifc.rank_one_channel(a, b), a, b


def random_joint(rng, K):
    """Joint law of a random channel with a random interior noise coupling."""
    ch = random_channel(rng, K)
    sig = sample_interior_sigma(rng, K)
    return ifc.build_joint(ch, sig), ch, sig
