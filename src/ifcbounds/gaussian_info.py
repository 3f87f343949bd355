"""Entropies and mutual informations of circularly-symmetric Gaussian vectors.

Everything here reduces to log-determinants of conditional covariances.  The
genie terms, ``verify`` and the public queries read each off the Cholesky
factor of one joint covariance block; a law resolves its labels once, and each
query reads its factor's pivots once.  :func:`build_joint` writes the joint
vector as one invertible linear map of inputs and noises, so only its noise
law is left to check.  The correlated-noise terms, ``construct`` and
``certify`` read the same pivots off a QR factor of the law's
:func:`square_root`, which does not square the gains; all routes word a lost
pivot alike.  ``model.make_joint`` validates covariances from elsewhere.

Conventions: cov[a, b] = E[v_a v_b^*]; entropies in bits; a complex
circularly-symmetric vector with covariance S has h = log2 det(pi e S).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    InternalConsistencyError,
    LabelOverlap,
    NotPSD,
    RhoTooLarge,
    SingularCovariance,
)
from .model import PSD_EIG_TOL, ChannelMatrix, JointGaussian, NoiseCorrelation

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
        if not abs(self.rho) <= RHO_CAP:  # also refuses a NaN rho
            raise RhoTooLarge(f"|rho| = {abs(self.rho):.8f} exceeds {RHO_CAP}")


def _check_size(ch: ChannelMatrix, noise: Optional[NoiseCorrelation]) -> None:
    if noise is not None and noise.K != ch.K:
        raise IndexOutOfRange(f"noise correlation is {noise.K}x{noise.K}, channel is {ch.K}x{ch.K}")


def build_joint(ch: ChannelMatrix, noise: Optional[NoiseCorrelation] = None,
                genies: Sequence[GenieSpec] = ()) -> JointGaussian:
    """Joint law of (X_1..X_K, Y_1..Y_K, G_m per genie) with unit-power inputs.

    Labels are "X1".."XK", "Y1".."YK", then "G<m>" in genie order.  Inputs are
    iid unit-power; Y = H X + Z with Cov(Z) = noise.sigma, or I by default.
    (X, Y, G) is [[I, 0], [B, I]] (X, Z, Z~) with B = [H; R], R's rows the
    targets' channel rows less their direct gains, so it is PSD exactly when
    N = Cov(Z, Z~) = [[Sigma, C], [C^H, I]] is (C[k-1, a] = rho_a, k paired).

    N is eigen-checked only when genies meet a noise coupling or share a
    receiver.  Without genies N is Sigma: the identity, or a coupling
    validated when it was built.  Without a coupling and with each genie on
    its own receiver, N is a direct sum of ones and blocks
    [[1, rho], [conj(rho), 1]], whose smallest eigenvalue 1 - max|rho| is at
    least 1 - RHO_CAP > 0, so the check cannot fail; every ETW term's law is
    of this kind.
    """
    K = ch.K
    _check_size(ch, noise)
    seen_targets = set()
    for g in genies:
        if not (1 <= g.target <= K) or not (1 <= g.paired_with <= K):
            raise IndexOutOfRange(
                f"genie indices (target={g.target}, paired_with={g.paired_with}) outside 1..{K}")
        if g.target in seen_targets:
            raise LabelOverlap(f"two genies share target {g.target}")
        seen_targets.add(g.target)

    n_g = len(genies)
    B = np.empty((K + n_g, K), dtype=complex)
    B[:K] = ch.entries
    N = np.eye(K + n_g, dtype=complex)
    if noise is not None:
        N[:K, :K] = noise.sigma
    for a, g in enumerate(genies):
        B[K + a] = ch.entries[g.target - 1]
        B[K + a, g.target - 1] = 0.0
        N[g.paired_with - 1, K + a] = g.rho
        N[K + a, g.paired_with - 1] = np.conj(g.rho)
    if n_g and (noise is not None or len({g.paired_with for g in genies}) < n_g):
        w = np.linalg.eigvalsh(N)
        if w[0] < -PSD_EIG_TOL * max(1.0, float(w[-1])):
            raise NotPSD(f"noise law of Sigma and the genie correlations has "
                         f"eigenvalue {w[0]:.3e}: no such joint law exists")

    cov = np.empty((2 * K + n_g, 2 * K + n_g), dtype=complex)
    cov[:K, :K] = np.eye(K)
    cov[K:, :K] = B
    cov[:K, K:] = B.conj().T
    P = B @ B.conj().T
    cov[K:, K:] = (P + P.conj().T) / 2.0 + N
    cov.setflags(write=False)
    labels = ([f"X{i}" for i in range(1, K + 1)]
              + [f"Y{i}" for i in range(1, K + 1)]
              + [f"G{g.target}" for g in genies])
    return JointGaussian(tuple(labels), cov)


# ---------------------------------------------------------------------------
# conditioning through one Cholesky factor
#
# Factor the joint block ordered (C, A) as L L^H.  Its trailing |A| x |A|
# corner factors Cov(A | C), so no conditioning block is ever inverted.

def _lost_pivot(a: Sequence[str], c: Sequence[str], ratio: float) -> SingularCovariance:
    return SingularCovariance(
        f"cov of {list(a)} given {list(c)} has a pivot within EIG_TOL = {EIG_TOL:g} times "
        f"its variance ({ratio:.3e} of it), lost to round-off")


def _cholesky(j: JointGaussian, a: Sequence[str],
              c: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L of the joint block ordered (C, A) and its trailing
    |A| pivots |diag(L)[|C|:]|, read once for both the refusal and the
    log-det; a failed factor or a squared pivot at or below EIG_TOL times its
    variance raises SingularCovariance.  The block is selected by plain
    indexing, rows then columns: the same entries as np.ix_, at less cost."""
    idx = j.indices(list(c) + list(a))
    block = j.cov[idx][:, idx]
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        raise SingularCovariance(
            f"joint cov of {list(c)} and {list(a)} is not positive definite") from None
    pivots = np.diagonal(L)[len(c):].real  # a Cholesky diagonal is real and positive
    squares, var = pivots ** 2, np.diagonal(block)[len(c):].real
    if np.any(squares <= EIG_TOL * var):
        raise _lost_pivot(a, c, np.min(squares / var))
    return L, pivots


def _cond_logdet(j: JointGaussian, a: Sequence[str], c: Sequence[str]) -> float:
    """log2 det Cov(A | C): twice the summed log2 of the (C, A) factor's trailing pivots."""
    return 2.0 * float(np.sum(np.log2(_cholesky(j, a, c)[1])))


# ---------------------------------------------------------------------------
# conditioning through a square root: (X, Y) = [[I, 0], [H, L]] (X, W), W white,
# L L^H = Sigma.  A QR factor R of some of its rows (conjugated, as columns) has
# R^H R = their covariance, so |R_ii|^2 is row i's variance given the rows
# before it, with an error of eps times the gains, not their squares.

def square_root(ch: ChannelMatrix, noise: Optional[NoiseCorrelation] = None,
                users: Optional[Sequence[int]] = None) -> np.ndarray:
    """[[I, 0], [H, L]], rows X1..XK, Y1..YK, with L L^H = noise.sigma (I by default),
    or given 1-based ``users`` the root of their law given every other input
    (H and Sigma cut to those users, in that order); a coupling of another
    size raises IndexOutOfRange, a singular one SingularCovariance."""
    _check_size(ch, noise)
    idx = np.arange(ch.K) if users is None else np.array(users) - 1
    H = ch.entries.take(idx, 0).take(idx, 1)  # the entries np.ix_ selects, at less cost
    K = H.shape[0]
    root = np.eye(2 * K, dtype=complex)
    root[K:, :K] = H
    if noise is not None:
        try:
            root[K:, K:] = np.linalg.cholesky(noise.sigma.take(idx, 0).take(idx, 1))
        except np.linalg.LinAlgError:
            raise SingularCovariance("the noise coupling is not positive definite") from None
    return root


def refuse_lost_pivots(squares: np.ndarray, var: np.ndarray, query: Callable) -> None:
    """SingularCovariance at the first squared pivot at or below EIG_TOL times its
    variance; ``query(i)`` names pivot i's (target, given) labels."""
    for i in np.flatnonzero(squares <= EIG_TOL * var)[:1]:
        raise _lost_pivot(*query(int(i)), squares[i] / var[i])


def _check_disjoint(a: Sequence[str], b: Sequence[str], c: Sequence[str]) -> None:
    """Raise LabelOverlap if any two of the label sets A, B, C share a label."""
    overlap = (set(a) & set(b)) | (set(a) & set(c)) | (set(b) & set(c))
    if overlap:
        raise LabelOverlap(f"label sets overlap: {sorted(overlap)}")


def diff_entropy(j: JointGaussian, a: Sequence[str]) -> float:
    """Differential entropy h(A) in bits: |A| log2(pi e) + log2 det Sigma_A."""
    return conditional_entropy(j, a, [])


def conditional_entropy(j: JointGaussian, a: Sequence[str], c: Sequence[str]) -> float:
    """h(A | C) in bits from the factor of the (C, A) block."""
    a, c = list(a), list(c)
    _check_disjoint(a, [], c)
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
    _check_disjoint(a, b, c)
    mi = _cond_logdet(j, a, c) - _cond_logdet(j, a, b + c)
    if mi < 0.0:
        if mi > -1e-9:
            return 0.0
        raise InternalConsistencyError(
            f"I({a};{b}|{c}) = {mi:.3e} < 0 beyond numerical dust")
    return mi
