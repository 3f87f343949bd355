"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of CLI requests over channel-spec files that
are written during set-up.  The workload seed is the only source of
randomness; the same seed gives byte-identical spec files.

Region workloads (``region-k3``, ``etw-k4``) use dense complex channels drawn
once from a fixed profile in the style of the test suite's ``random_channel``;
the workload seed turns every cross-gain phase by a random offset.  The
bounds depend on the phases, so each seed is a different problem, but its
size stays put.  With fully random channels the sum of the reported bound
values moves by 12-14% from seed to seed and the optimiser's evaluation count
by about 7%, which would swamp the regression bounds; with fixed magnitudes
and jittered phases both move by a few percent or less.

``certify-cli`` mixes channels whose sum capacity is known by construction
(Z, many-to-one, rank-one and strong-lower-coupling channels, K=2..5) with a
small share of generic dense K=2 channels that fall through to the numeric
route and end BOUND_ONLY.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

import ifcbounds as ifc

#: the region workloads' gain magnitudes and base phases come from this seed
PROFILE_SEED = 2011
#: largest phase offset (radians) the workload seed adds to a cross gain
PHASE_JITTER = 0.3

#: K of each channel in a region workload, in request order.  Sized so that a
#: pass takes 8-12 s on a 2-vCPU Xeon: a 25-second run then holds three or
#: four passes, and 70 such runs finish within an hour.  On region-k3 the
#: median request is a K=2 region and the tail (the slowest request) the K=3 one.
REGION_SIZES = {"region-k3": (3, 2, 2, 2, 2), "etw-k4": (4, 4)}
REGION_ARGS = {"region-k3": [], "etw-k4": ["--families", "etw"]}

CERTIFY_REQUESTS = 1000
#: generic channels end BOUND_ONLY through region(sum_rate_only=True); 20 of
#: 1000 puts the p99 tail (10 requests beyond it) in the middle of that group
CERTIFY_GENERIC = 20
CONSTRUCTED_KINDS = ("z", "many-to-one", "rank-one", "mac")


@dataclass(frozen=True)
class Request:
    """One CLI call; ``capacity`` is the construction-known sum capacity."""

    kind: str
    K: int
    argv: Tuple[str, ...]
    channel: ifc.ChannelMatrix
    capacity: Optional[float] = None


# ---------------------------------------------------------------------------
# channel samplers

def phase_channel(profile: np.random.Generator, rng: np.random.Generator,
                  K: int) -> ifc.ChannelMatrix:
    """Dense channel: the profile fixes magnitudes and base phases, the seed
    turns every cross gain by up to PHASE_JITTER radians."""
    H = (profile.normal(size=(K, K)) + 1j * profile.normal(size=(K, K))) / np.sqrt(2)
    H *= np.exp(1j * PHASE_JITTER * rng.uniform(-1.0, 1.0, (K, K)))
    H[np.diag_indices(K)] = np.abs(np.diagonal(H)) + 0.3
    return ifc.validate_channel(H)


def dense_channel(rng: np.random.Generator, K: int) -> ifc.ChannelMatrix:
    H = (rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))) / np.sqrt(2)
    H[np.diag_indices(K)] = np.abs(np.diagonal(H)) + 0.3
    return ifc.validate_channel(H)


def _gains(rng: np.random.Generator, K: int, hi: float = 4.0) -> np.ndarray:
    return np.exp(rng.uniform(np.log(0.25), np.log(hi), K))


def interior_sigma(rng: np.random.Generator, K: int,
                   eig_floor: float = 5e-3) -> ifc.NoiseCorrelation:
    """Random unit-diagonal coupling, blended toward the identity until its
    smallest eigenvalue clears ``eig_floor``."""
    V = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    G = V @ V.conj().T
    d = 1.0 / np.sqrt(np.diagonal(G).real)
    sig = (G * d[:, None]) * d[None, :]
    np.fill_diagonal(sig, 1.0)
    e0 = float(np.linalg.eigvalsh(sig)[0])
    if e0 < eig_floor:
        t = (eig_floor - e0) / (1.0 - e0)
        sig = (1.0 - t) * sig + t * np.eye(K)
    return ifc.validate_noise_correlation(sig)


def ladder_bits(H: np.ndarray) -> float:
    """Successive-decoding ladder: receiver k treats users k+1..K as noise."""
    K = H.shape[0]
    return float(sum(
        np.log2(1.0 + abs(H[k, k]) ** 2 / (1.0 + np.sum(np.abs(H[k, k + 1:]) ** 2)))
        for k in range(K)))


def pooled_bits(a: np.ndarray, b: np.ndarray) -> float:
    """Sum capacity of the unit-rank channel a b^H, written over (a, b)."""
    a2 = np.abs(a) ** 2
    b2 = np.abs(b) ** 2
    return float(sum(np.log2(1.0 + a2[k] * b2[k] / (1.0 + a2[k] * np.sum(b2[k + 1:])))
                     for k in range(a.shape[0])))


def _mac_channel(rng: np.random.Generator, K: int) -> ifc.ChannelMatrix:
    """Z channel plus coupling below the diagonal, just strong enough.

    Receiver k sees every earlier user at power 1.25 B max_S (2^R_S - 1)/|S|,
    with B = 1 + tail_k + h_kk^2 and R_S the ladder rates of a subset S of
    earlier users, so every joint-decoding check holds with a 25% margin.
    The upper triangle, which alone fixes the recovered coupling and the
    ladder, is the Z channel's.
    """
    H = build_z(rng, K, gain_hi=1.5).entries.copy()
    rates = [np.log2(1.0 + H[k, k].real ** 2 / (1.0 + np.sum(np.abs(H[k, k + 1:]) ** 2)))
             for k in range(K)]
    for k in range(1, K):
        base = 1.0 + np.sum(np.abs(H[k, k + 1:]) ** 2) + H[k, k].real ** 2
        need = max((2.0 ** sum(rates[j] for j in S) - 1.0) / len(S)
                   for n in range(1, k + 1) for S in combinations(range(k), n))
        H[k, :k] = np.sqrt(1.25 * base * need) * np.exp(2j * np.pi * rng.random(k))
    return ifc.validate_channel(H)


def build_z(rng: np.random.Generator, K: int, gain_hi: float = 4.0) -> ifc.ChannelMatrix:
    return ifc.build_z_channel(interior_sigma(rng, K), _gains(rng, K, gain_hi))


def constructed(rng: np.random.Generator, kind: str, K: int) -> Tuple[ifc.ChannelMatrix, float]:
    """A channel of the given family and its known sum capacity (bits)."""
    if kind == "z":
        ch = build_z(rng, K)
    elif kind == "many-to-one":
        v = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
        v *= np.sqrt(rng.uniform(0.2, 0.95) / np.sum(np.abs(v) ** 2))
        ch = ifc.many_to_one(v, _gains(rng, K))
    elif kind == "rank-one":
        # receiver gains at least 0.05 apart: within about 1e-4 of each other
        # the certify path's degradedness witness splits its decision (exit 4)
        t = 0.3 + np.cumsum(rng.uniform(0.05, 0.6, K))
        b = (0.3 + rng.random(K)) * np.exp(2j * np.pi * rng.random(K))
        a = t * b / np.abs(b)
        return ifc.rank_one_channel(a, b), pooled_bits(a, b)
    elif kind == "mac":
        ch = _mac_channel(rng, K)
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    return ch, ladder_bits(ch.entries)


# ---------------------------------------------------------------------------
# request lists

def _write_spec(workdir: Path, name: str, ch: ifc.ChannelMatrix) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(ch.to_spec_dict(), indent=2) + "\n", encoding="utf-8")
    return str(path)


def region_requests(workload: str, seed: int, workdir: Path) -> List[Request]:
    profile = np.random.default_rng(PROFILE_SEED)
    rng = np.random.default_rng([seed, 1])
    out = []
    for i, K in enumerate(REGION_SIZES[workload]):
        ch = phase_channel(profile, rng, K)
        path = _write_spec(workdir, f"{workload}-{i:02d}", ch)
        out.append(Request("dense", K, ("evaluate", path, *REGION_ARGS[workload]), ch))
    return out


def certify_requests(seed: int, workdir: Path) -> List[Request]:
    """Each constructed kind at each K=2..5 in equal shares (so the sum of
    the known capacities moves little from seed to seed), plus the generic
    channels, in a seeded order."""
    rng = np.random.default_rng([seed, 2])
    plan = [(CONSTRUCTED_KINDS[j % len(CONSTRUCTED_KINDS)], 2 + (j // len(CONSTRUCTED_KINDS)) % 4)
            for j in range(CERTIFY_REQUESTS - CERTIFY_GENERIC)]
    plan += [("generic", 2)] * CERTIFY_GENERIC
    out = []
    for i, j in enumerate(rng.permutation(len(plan))):
        kind, K = plan[j]
        if kind == "generic":
            ch, cap = dense_channel(rng, K), None
        else:
            ch, cap = constructed(rng, kind, K)
        path = _write_spec(workdir, f"certify-{i:04d}", ch)
        out.append(Request(kind, K, ("certify", path), ch, cap))
    return out


def smoke_requests(workdir: Path) -> List[Request]:
    """Two tiny K=2 requests, one per command, for the benchmark's own tests."""
    rng = np.random.default_rng(0)
    ch = phase_channel(np.random.default_rng(PROFILE_SEED), rng, 2)
    z, cap = constructed(rng, "z", 2)
    return [Request("dense", 2, ("evaluate", _write_spec(workdir, "smoke-eval", ch)), ch),
            Request("z", 2, ("certify", _write_spec(workdir, "smoke-cert", z)), z, cap)]
