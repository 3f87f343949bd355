"""Entropies and mutual informations of circularly-symmetric Gaussian vectors.

Everything here reduces to log-determinants of conditional covariances, each
read off the Cholesky factor of one joint covariance block; this module is
the engine every bound term runs on.  The joint vector is assembled once per
channel/noise/genie configuration by :func:`build_joint`, after which queries
are pure covariance algebra.

Conventions: cov[a, b] = E[v_a v_b^*]; entropies in bits; a complex
circularly-symmetric vector with covariance S has h = log2 det(pi e S).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    InternalConsistencyError,
    LabelOverlap,
    RhoTooLarge,
    SingularCovariance,
)
from .model import ChannelMatrix, JointGaussian, NoiseCorrelation, make_joint

LOG2PIE = float(np.log2(np.pi * np.e))

#: relative singularity cutoff: a conditional variance (Cholesky pivot) at or
#: below EIG_TOL times its unconditional variance is lost to round-off
EIG_TOL = 1e-12

#: genie noise correlation magnitudes are capped strictly inside the unit disc
RHO_CAP = 1.0 - 1e-6


@dataclass(frozen=True)
class GenieSpec:
    """Side information G_m = sum_{j != m} h_{m,j} X_j + noise.

    The genie noise has unit variance, correlates with receiver noise
    Z_{paired_with} with coefficient ``rho`` (E[Z_k Z~*] = rho), and is
    independent of every other noise and of all inputs.
    """

    target: int
    rho: complex
    paired_with: int

    def __post_init__(self):
        if abs(self.rho) > RHO_CAP:
            raise RhoTooLarge(f"|rho| = {abs(self.rho):.8f} exceeds {RHO_CAP}")


def build_joint(ch: ChannelMatrix, noise: NoiseCorrelation,
                genies: Sequence[GenieSpec] = ()) -> JointGaussian:
    """Joint law of (X_1..X_K, Y_1..Y_K, G_m per genie) with unit-power inputs.

    Labels are "X1".."XK", "Y1".."YK", then "G<m>" in genie order.  Inputs are
    iid unit-power; Y = H X + Z with Cov(Z) = noise.sigma.
    """
    K = ch.K
    if noise.K != K:
        raise IndexOutOfRange(f"noise correlation is {noise.K}x{noise.K}, channel is {K}x{K}")
    H = ch.entries
    seen_targets = set()
    for g in genies:
        if not (1 <= g.target <= K) or not (1 <= g.paired_with <= K):
            raise IndexOutOfRange(
                f"genie indices (target={g.target}, paired_with={g.paired_with}) outside 1..{K}")
        if g.target in seen_targets:
            raise LabelOverlap(f"two genies share target {g.target}")
        seen_targets.add(g.target)

    n_g = len(genies)
    d = 2 * K + n_g
    cov = np.zeros((d, d), dtype=complex)
    labels = ([f"X{i}" for i in range(1, K + 1)]
              + [f"Y{i}" for i in range(1, K + 1)]
              + [f"G{g.target}" for g in genies])

    cov[:K, :K] = np.eye(K)
    cov[K:2 * K, :K] = H                       # E[Y_i X_j^*] = h_{i,j}
    cov[:K, K:2 * K] = H.conj().T
    cov[K:2 * K, K:2 * K] = H @ H.conj().T + noise.sigma

    for a, g in enumerate(genies):
        col = 2 * K + a
        m = g.target - 1
        # signal part of G: the m-th channel row with the direct gain removed
        row = H[m].copy()
        row[m] = 0.0
        cov[:K, col] = row.conj()              # E[X_i G^*]
        cov[col, :K] = row
        yg = H @ row.conj()                    # E[Y_j G^*], signal part
        yg[g.paired_with - 1] += g.rho
        cov[K:2 * K, col] = yg
        cov[col, K:2 * K] = yg.conj()
        cov[col, col] = 1.0 + np.sum(np.abs(row) ** 2)
        for b in range(a):
            g2 = genies[b]
            col2 = 2 * K + b
            row2 = H[g2.target - 1].copy()
            row2[g2.target - 1] = 0.0
            v = np.vdot(row2, row)             # sum_i row_i conj(row2_i), noises independent
            cov[col, col2] = v
            cov[col2, col] = np.conj(v)

    return make_joint(labels, cov)


# ---------------------------------------------------------------------------
# conditioning through one Cholesky factor
#
# Factor the joint block ordered (C, A) as L L^H.  Its trailing |A| x |A|
# corner factors Cov(A | C), and the rows of A left of that corner hold the
# regression of A on C, so no conditioning block is ever inverted.

def _cholesky(j: JointGaussian, a: Sequence[str], c: Sequence[str]) -> np.ndarray:
    """Cholesky factor of the joint block ordered (C, A); a failed factor or a
    trailing pivot at or below EIG_TOL times its variance raises
    SingularCovariance."""
    idx = j.indices(list(c) + list(a))
    block = j.cov[np.ix_(idx, idx)]
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        raise SingularCovariance(
            f"joint cov of {list(c)} and {list(a)} is not positive definite") from None
    pivots = np.diagonal(L)[len(c):].real ** 2
    var = np.diagonal(block)[len(c):].real
    if np.any(pivots <= EIG_TOL * var):
        raise SingularCovariance(
            f"cov of {list(a)} given {list(c)} has a pivot within EIG_TOL = {EIG_TOL:g} times "
            f"its variance ({np.min(pivots / var):.3e} of it), lost to round-off")
    return L


def _cond_logdet(j: JointGaussian, a: Sequence[str], c: Sequence[str]) -> float:
    """log2 det Cov(A | C): the trailing |A| pivots of the (C, A) factor."""
    return 2.0 * float(np.sum(np.log2(np.diagonal(_cholesky(j, a, c))[len(c):].real)))


def regression_coefficients(j: JointGaussian, targets: Sequence[str],
                            predictors: Sequence[str]) -> np.ndarray:
    """MMSE estimator matrix W with E[T | P] = W p (shape |T| x |P|).

    From the factor of the (P, T) block, Sigma_TP = L_TP L_PP^H and
    Sigma_PP = L_PP L_PP^H, so W = L_TP L_PP^-1.
    """
    n = len(predictors)
    L = _cholesky(j, targets, predictors)
    return np.linalg.solve(L[:n, :n].T, L[n:, :n].T).T


def diff_entropy(j: JointGaussian, a: Sequence[str]) -> float:
    """Differential entropy h(A) in bits: |A| log2(pi e) + log2 det Sigma_A."""
    return conditional_entropy(j, a, [])


def conditional_entropy(j: JointGaussian, a: Sequence[str], c: Sequence[str]) -> float:
    """h(A | C) in bits from the factor of the (C, A) block."""
    a, c = list(a), list(c)
    if set(a) & set(c):
        raise LabelOverlap(f"A and C overlap: {sorted(set(a) & set(c))}")
    if not a:
        raise LabelOverlap("entropy of an empty label set")
    return len(a) * LOG2PIE + _cond_logdet(j, a, c)


def conditional_mi(j: JointGaussian, a: Sequence[str], b: Sequence[str],
                   c: Sequence[str] = ()) -> float:
    """I(A; B | C) in bits.

    Computed as log2 det Sigma_{A|C} - log2 det Sigma_{A|B,C}, each read off
    one Cholesky factor (of the (C, A) and (B, C, A) blocks).  Small negative
    values are floating-point dust on a provably nonnegative quantity and are
    clamped to zero; anything below -1e-9 indicates a bug upstream and raises.
    """
    a, b, c = list(a), list(b), list(c)
    if not a or not b:
        raise LabelOverlap("A and B must be nonempty")
    overlap = (set(a) & set(b)) | (set(a) & set(c)) | (set(b) & set(c))
    if overlap:
        raise LabelOverlap(f"label sets overlap: {sorted(overlap)}")
    mi = _cond_logdet(j, a, c) - _cond_logdet(j, a, b + c)
    if mi < 0.0:
        if mi > -1e-9:
            return 0.0
        raise InternalConsistencyError(
            f"I({a};{b}|{c}) = {mi:.3e} < 0 beyond numerical dust")
    return mi
