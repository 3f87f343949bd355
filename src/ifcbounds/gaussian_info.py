"""Entropies and mutual informations of circularly-symmetric Gaussian vectors.

Everything here reduces to log-determinants of conditional covariances, each
read off the squared pivots of a QR factor of some rows of a square root of
the law (:func:`squared_pivots`), which does not square the gains.  A
``JointGaussian`` holds its root, and every channel law's starts from
:func:`square_root`: :func:`build_joint` appends one written row per genie,
the correlated-noise terms, ``construct`` and ``certify`` read it as it is,
and ``model.make_joint`` factors covariances from elsewhere.  A law resolves
its labels once.  Every route refuses a pivot by one rule, which also words
it (:func:`refuse_pivots`), in the route's own order.

Conventions: cov[a, b] = E[v_a v_b^*]; entropies in bits; a complex
circularly-symmetric vector with covariance S has h = log2 det(pi e S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    InternalConsistencyError,
    LabelOverlap,
    RhoTooLarge,
    SingularCovariance,
)
from .model import ChannelMatrix, JointGaussian, NoiseCorrelation

LOG2PIE = float(np.log2(np.pi * np.e))
_EPS = float(np.finfo(float).eps)

#: relative singularity cutoff: a conditional variance (squared QR pivot) at or
#: below EIG_TOL times its unconditional variance is lost to round-off
EIG_TOL = 1e-12

#: genie noise correlation magnitudes are capped strictly inside the unit disc
RHO_CAP = 1.0 - 1e-6


@dataclass(frozen=True)
class GenieSpec:
    """Side information G_m = sum_{j != m} h_{m,j} X_j + noise.

    The genie noise is Z~ = conj(rho) Z_k + sqrt(1 - |rho|^2) W', k =
    ``paired_with`` and W' a fresh unit noise: unit variance, E[Z_k Z~*] = rho,
    independent of the inputs, and tied to the other noises only through Z_k.
    """

    target: int
    rho: complex
    paired_with: int

    def __post_init__(self):
        if not abs(self.rho) <= RHO_CAP:  # also refuses a NaN rho
            raise RhoTooLarge(f"|rho| = {abs(self.rho):.8f} exceeds {RHO_CAP}")


def build_joint(ch: ChannelMatrix, noise: Optional[NoiseCorrelation] = None,
                genies: Sequence[GenieSpec] = ()) -> JointGaussian:
    """Joint law of (X_1..X_K, Y_1..Y_K, G_m per genie) with unit-power inputs.

    Labels are "X1".."XK", "Y1".."YK", then "G<m>" in genie order.  Inputs are
    iid unit-power; Y = H X + Z with Cov(Z) = noise.sigma, or I by default.
    The (X, Y) rows are :func:`square_root`'s, and each genie's row is written
    out: the target's channel row less its direct gain on X, conj(rho) times
    row ``paired_with`` of the noise factor, and sqrt(1 - |rho|^2) on a fresh
    noise W'.  So every GenieSpec has a law, and a coupling is refused only
    as square_root refuses it.
    """
    K = ch.K
    seen_targets = set()
    for g in genies:
        if not (1 <= g.target <= K) or not (1 <= g.paired_with <= K):
            raise IndexOutOfRange(
                f"genie indices (target={g.target}, paired_with={g.paired_with}) outside 1..{K}")
        if g.target in seen_targets:
            raise LabelOverlap(f"two genies share target {g.target}")
        seen_targets.add(g.target)

    n_g = len(genies)
    root = np.zeros((2 * K + n_g, 2 * K + n_g), dtype=complex)
    root[:2 * K, :2 * K] = square_root(ch, noise)
    for a, g in enumerate(genies):
        row = root[2 * K + a]
        row[:K] = ch.entries[g.target - 1]
        row[g.target - 1] = 0.0
        # zeros kept unsigned (+ 0.0) and |rho|^2 summed as re^2 + im^2: with genies on
        # distinct receivers, the Cholesky factor of Cov(Z, Z~) entry for entry
        row[K:2 * K] = root[K + g.paired_with - 1, K:2 * K] * g.rho.conjugate() + 0.0
        row[2 * K + a] = math.sqrt(1.0 - (g.rho.conjugate() * g.rho).real)
    root.setflags(write=False)
    labels = ([f"X{i}" for i in range(1, K + 1)]
              + [f"Y{i}" for i in range(1, K + 1)]
              + [f"G{g.target}" for g in genies])
    return JointGaussian(tuple(labels), root=root)


def squared_pivots(rows: np.ndarray) -> np.ndarray:
    """|R_ii|^2 of a QR factor R of the rows' conjugate transpose, for rows of a
    root M of a law (v = M w, w white): R^H R is their covariance, so |R_ii|^2
    is row i's variance given the rows before it, with an error of eps times
    the gains, not their squares, and no conditioning block is inverted.  The
    raw Householder output holds R's diagonal, so no triangle is copied out.
    A stack of row blocks (..., n, m) is factored in one batched call, block
    by block as LAPACK factors one, so each block's pivots are bit for bit
    those of its own call."""
    h = np.linalg.qr(np.swapaxes(rows.conj(), -1, -2), mode="raw")[0]
    return np.abs(np.diagonal(h, axis1=-2, axis2=-1)) ** 2


def square_root(ch: ChannelMatrix, noise: Optional[NoiseCorrelation] = None,
                users: Optional[Sequence[int]] = None) -> np.ndarray:
    """[[I, 0], [H, L]], rows X1..XK, Y1..YK, with L L^H = noise.sigma (I by default),
    or given 1-based ``users`` the root of their law given every other input
    (H and Sigma cut to those users, in that order); a coupling of another
    size raises IndexOutOfRange, a singular one SingularCovariance."""
    if noise is not None and noise.K != ch.K:
        raise IndexOutOfRange(f"noise correlation is {noise.K}x{noise.K}, channel is {ch.K}x{ch.K}")
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


def refuse_pivots(squares: np.ndarray, var: np.ndarray, factor, name: Callable) -> None:
    """SingularCovariance at the first squared pivot (in C order) at or below
    ``factor`` times its variance, all broadcast, in one comparison: EIG_TOL
    for a target, lost to round-off below it; eps for a conditioning row,
    whose set is singular to working precision below it.  Only then is
    ``name(i)`` called, for pivot i's (target, given) labels (no target for a
    conditioning row)."""
    fails = squares <= factor * var
    if fails.any():
        i = int(fails.argmax())
        a, c = name(i)
        if not a:
            raise SingularCovariance(f"cov of {list(c)} is singular to working precision")
        raise SingularCovariance(
            f"cov of {list(a)} given {list(c)} has a pivot within EIG_TOL = {EIG_TOL:g} times "
            f"its variance ({(squares / var).flat[i]:.3e} of it), lost to round-off")


def _check_disjoint(a: Sequence[str], b: Sequence[str], c: Sequence[str]) -> None:
    """Raise LabelOverlap if any two of the label sets A, B, C share a label."""
    overlap = (set(a) & set(b)) | (set(a) & set(c)) | (set(b) & set(c))
    if overlap:
        raise LabelOverlap(f"label sets overlap: {sorted(overlap)}")


def diff_entropy(j: JointGaussian, a: Sequence[str]) -> float:
    """Differential entropy h(A) in bits: |A| log2(pi e) + log2 det Sigma_A."""
    return conditional_entropy(j, a, [])


def pivot_log2det(rows: np.ndarray, a: list, c: list) -> float:
    """log2 det Cov(A | C) for the rows (C, A) of a root, labelled c then a:
    the summed log2 of A's squared pivots, after refuse_pivots holds C's to eps
    and then A's to EIG_TOL, with each row's variance its squared norm."""
    squares, n = squared_pivots(rows), len(c)
    refuse_pivots(squares, np.sum(rows.real ** 2 + rows.imag ** 2, axis=1),
                  np.repeat((_EPS, EIG_TOL), (n, len(a))), lambda i: (a if i >= n else [], c))
    return sum(math.log2(s) for s in squares[n:].tolist())


def conditional_entropy(j: JointGaussian, a: Sequence[str], c: Sequence[str]) -> float:
    """h(A | C) in bits from the squared QR pivots of the root's rows (C, A)."""
    a, c = list(a), list(c)
    _check_disjoint(a, [], c)
    if not a:
        raise LabelOverlap("entropy of an empty label set")
    return len(a) * LOG2PIE + pivot_log2det(j.root[j.indices(c + a)], a, c)


def conditional_mi(j: JointGaussian, a: Sequence[str], b: Sequence[str],
                   c: Sequence[str] = ()) -> float:
    """I(A; B | C) in bits.

    Computed as log2 det Sigma_{A|C} - log2 det Sigma_{A|B,C}, each read off
    one QR of the root's rows ((C, A) and (B, C, A)).  A pivot errs by about
    eps times its row's norm, so each log-det errs by about eps times the
    gains over the pivots it reads: small negative values are floating-point
    dust on a provably nonnegative quantity and are clamped to zero; anything
    below -1e-9 indicates a bug upstream and raises.
    """
    a, b, c = list(a), list(b), list(c)
    if not a or not b:
        raise LabelOverlap("A and B must be nonempty")
    _check_disjoint(a, b, c)
    mi = (pivot_log2det(j.root[j.indices(c + a)], a, c)
          - pivot_log2det(j.root[j.indices(b + c + a)], a, b + c))
    if mi < 0.0:
        if mi > -1e-9:
            return 0.0
        raise InternalConsistencyError(
            f"I({a};{b}|{c}) = {mi:.3e} < 0 beyond numerical dust")
    return mi
