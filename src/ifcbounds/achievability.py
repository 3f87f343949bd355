"""Achievable rates and closed-form reference bounds.

The workhorse quantity is the per-user rate

    r_k = log2(1 + |h_kk|^2 / (1 + sum_{i>k} |h_ki|^2)),

i.e. receiver k treats only the *later* users (i > k) as noise.  On channels
whose gain matrix is upper-triangular this is plain interference-as-noise
decoding and therefore achievable; on general channels it is achievable
when the rate vector survives the per-receiver multiple-access check of
:func:`mac_feasibility` (receiver k jointly decodes its own message with the
earlier users it hears).  The check is sufficient, not necessary; it is exact
on n + 1 sorted prefixes of n heard users, not 2^n subsets (Tse & Hanly 1998).

`tin_sum_rate_general` counts *all* interference and is achievable on any
channel; it backs the consistency guard in bound reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import BetaInvalid, NotSorted
from .model import ChannelMatrix

#: slack for the MAC rate comparisons, in bits
MAC_TOL = 1e-12


def succ_dec_rates(ch: ChannelMatrix) -> np.ndarray:
    """Per-user rates r_k with only users k+1..K treated as noise (bits)."""
    H = ch.entries
    K = ch.K
    out = np.empty(K)
    for k in range(K):
        tail = np.sum(np.abs(H[k, k + 1:]) ** 2)
        out[k] = np.log2(1.0 + H[k, k].real ** 2 / (1.0 + tail))
    return out


def tin_sum_rate(ch: ChannelMatrix) -> float:
    """Sum of succ_dec_rates — the closed-form sum rate of the r_k ladder."""
    return float(np.sum(succ_dec_rates(ch)))


def tin_sum_rate_general(ch: ChannelMatrix) -> float:
    """Sum rate when every receiver treats *all* interference as noise.

    Achievable on any channel with Gaussian codebooks, hence a universally
    safe lower reference for outer bounds.
    """
    H = ch.entries
    total = 0.0
    for k in range(ch.K):
        interference = np.sum(np.abs(H[k]) ** 2) - H[k, k].real ** 2
        total += np.log2(1.0 + H[k, k].real ** 2 / (1.0 + interference))
    return float(total)


@dataclass(frozen=True)
class MacCheckResult:
    """One violation per failing receiver k: (k, its tightest S, sorted, lhs, rhs), 1-based."""

    feasible: bool
    violations: tuple


def _least_slack(H: np.ndarray, r: np.ndarray, k: int) -> tuple:
    """(k + 1, S, lhs, rhs) at the least slack of receiver k (0-based); S is 1-based."""
    w = {j: abs(H[k, j]) ** 2 for j in range(k) if H[k, j] != 0}
    order = sorted(w, reverse=True, key=lambda j: (
        w[j] == 0, Fraction(r[j]) / Fraction(w[j]) if w[j] else 0, -j))
    base = 1.0 + np.sum(np.abs(H[k, k + 1:]) ** 2)
    lhs = list(accumulate((r[j] for j in order), initial=r[k]))
    rhs = [np.log2(1.0 + g / base)
           for g in accumulate((w[j] for j in order), initial=H[k, k].real ** 2)]
    n = min(range(len(lhs)), key=lambda i: rhs[i] - lhs[i])
    return k + 1, tuple(sorted(j + 1 for j in order[:n])), float(lhs[n]), float(rhs[n])


def mac_feasibility(ch: ChannelMatrix) -> MacCheckResult:
    """Check that every receiver k can jointly decode its own message with
    each subset S of the earlier users it hears (h_kj != 0) at the rates
    r = succ_dec_rates(ch); with w_j = |h_kj|^2 and g(S) = sum_{j in S} w_j,

        r_k + r(S) <= phi(g(S)) = log2(1 + (|h_kk|^2 + g(S)) / (1 + sum_{i>k} |h_ki|^2))

    Only each receiver's least slack is checked.  phi is concave in g, so it
    is the minimum of its tangents c(lam) + lam g.  Swapping the two
    minimisations, min_S [phi(g(S)) - r(S)] = min_lam [c(lam) + min_S
    sum_{j in S} (lam w_j - r_j)], whose inner minimum is S = {j : r_j > lam w_j}:
    one of the n + 1 prefixes of the heard users sorted by r_j / w_j,
    descending, whatever the order of equal ratios.  The ratios are exact
    rationals (w_j can underflow to 0, which ranks first); ties go to the
    lower index.  A receiver that hears nobody, as on upper-triangular gains,
    meets its one constraint (S = {}) by the definition of r_k.
    """
    H, r = ch.entries, succ_dec_rates(ch)
    least = [_least_slack(H, r, k) for k in range(ch.K) if H[k, :k].any()]
    violations = tuple(v for v in least if v[2] > v[3] + MAC_TOL)
    return MacCheckResult(feasible=not violations, violations=violations)


# ---------------------------------------------------------------------------
# cooperative-transmitter (degraded broadcast) bound

def _check_sorted(a: np.ndarray) -> None:
    mags = np.abs(a)
    if np.any(mags[:-1] > mags[1:]):
        raise NotSorted("entries of a must satisfy |a_1| <= ... <= |a_K|")


def bc_bound(a: Sequence[complex], b: Sequence[complex], beta: Sequence[float]) -> np.ndarray:
    """Per-user rate limits when all transmitters pool their power.

    With pooled transmission the K receivers see scaled copies of one signal
    (scale a_k), so the system is an ordered broadcast channel; ``beta`` splits
    the pooled power ||b||^2 across users and user k is interfered by the
    shares of users k+1..K:

        R_k <= log2(1 + beta_k ||b||^2 |a_k|^2 / (1 + (sum_{j>k} beta_j) ||b||^2 |a_k|^2))
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    beta = np.asarray(beta, dtype=float)
    K = a.shape[0]
    if b.shape != (K,) or beta.shape != (K,):
        raise BetaInvalid("a, b, beta must have equal lengths")
    _check_sorted(a)
    if np.any(beta < 0) or abs(float(np.sum(beta)) - 1.0) > 1e-12:
        raise BetaInvalid("beta must be nonnegative and sum to 1 (within 1e-12)")

    p = float(np.sum(np.abs(b) ** 2))
    out = np.empty(K)
    for k in range(K):
        snr = beta[k] * p * abs(a[k]) ** 2
        inr = float(np.sum(beta[k + 1:])) * p * abs(a[k]) ** 2
        out[k] = np.log2(1.0 + snr / (1.0 + inr))
    return out


def degraded_sum_capacity(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Sum rate of the pooled-power bound at the split beta_k = |b_k|^2/||b||^2.

    For a unit-rank channel h_{i,j} = a_i b_j^* this choice collapses the
    broadcast bound onto the successive-decoding ladder, so the value is both
    an upper and a lower bound — the sum capacity of that channel.
    """
    b = np.asarray(b, dtype=complex)
    p = float(np.sum(np.abs(b) ** 2))
    if p == 0.0:
        raise BetaInvalid("b must be nonzero")
    beta = np.abs(b) ** 2 / p
    return float(np.sum(bc_bound(a, b, beta)))


def degraded_chain_sum_rate(a: Sequence[complex], diag_gains: Sequence[float]) -> float:
    """Same sum rate written over (a, direct gains) instead of (a, b).

    Evaluates sum_k log2(1 + |a_k|^2 |d_k/a_k|^2 / (1 + |a_k|^2 sum_{j>k} |d_j/a_j|^2))
    with d = diag_gains; independent arithmetic route used to cross-check
    degraded_sum_capacity (b_k^* = d_k / a_k).
    """
    a = np.asarray(a, dtype=complex)
    d = np.asarray(diag_gains, dtype=float)
    _check_sorted(a)
    if np.any(np.abs(a) == 0):
        raise BetaInvalid("entries of a must be nonzero")
    ratios = np.abs(d / a) ** 2
    total = 0.0
    for k in range(a.shape[0]):
        ak2 = abs(a[k]) ** 2
        total += np.log2(1.0 + ak2 * ratios[k] / (1.0 + ak2 * float(np.sum(ratios[k + 1:]))))
    return float(total)
