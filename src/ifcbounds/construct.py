"""Channel families with exactly known sum capacity, and the coupling
recursion that defines the constructible ones.

`build_z_channel` turns any positive definite noise correlation into an
upper-triangular gain matrix for which the correlated-noise bound provably
collapses onto the interference-as-noise ladder: column k (k = K..2) is

    H[1:k-1, k] = (h_kk / (1 + ||H[k, k+1:]||^2)) * (rho_{k-1} + H[1:k-1, k+1:] H[k, k+1:]^H)

with rho_{k-1} the first k-1 entries of sigma's column k.  The product's
second factor is conjugated (forming a column); that convention is the one
under which the degradedness identity holds, and every construction is
checked against `degradedness_witness` before being returned, so a convention
or feasibility slip fails loudly instead of producing a quietly wrong channel.

`invert_coupling_recursion` runs it backward on any upper triangle: it warm
starts `outer_bound`'s KRA solves, and `certify` recovers the generating
coupling with it (`recover_noise_correlation`).  `many_to_one` (only receiver
1 is interfered) is the Z construction at `many_to_one_noise(v)`;
`rank_one_channel` (all rows proportional) is the other family with
closed-form capacity used by the certificate paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConditionViolated,
    InternalConsistencyError,
    NonPositiveDiagonal,
    NonStandardDiagonal,
    NotSorted,
    WitnessFailure,
)
from .gaussian_info import EIG_TOL, build_joint, conditional_mi, regression_coefficients
from .model import (
    PSD_EIG_TOL,
    ChannelMatrix,
    NoiseCorrelation,
    validate_channel,
    validate_noise_correlation,
)

#: residual threshold for the degradedness witness, both in estimator
#: coefficient magnitude and in bits of conditional information
WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class WitnessReport:
    """Per-receiver degradedness residuals.

    residuals[i] = (k, coef, mi): for receiver index k, `coef` is the largest
    magnitude the MMSE estimate of the earlier outputs from
    (Y_k, X_1..X_k) assigns to X_k, and `mi` is
    I(Y_1..Y_{k-1}; X_k | Y_k, X_1..X_{k-1}) in bits.  Degradedness makes
    both vanish.
    """

    passed: bool
    residuals: Tuple[Tuple[int, float, float], ...]

    def max_residual(self) -> float:
        return max((max(c, m) for _, c, m in self.residuals), default=0.0)


def degradedness_witness(ch: ChannelMatrix, noise: NoiseCorrelation) -> WitnessReport:
    """Check that under `noise` the first k-1 outputs are degraded copies of
    output k once the first k-1 inputs are known, for every k.

    Two equivalent residuals are computed — the estimator coefficient on X_k
    and the leftover conditional information — and their pass/fail decisions
    must agree; a split decision means the engine is inconsistent and raises.
    """
    j = build_joint(ch, noise)  # refuses a coupling of another size
    residuals: List[Tuple[int, float, float]] = []
    ok = True
    for k in range(2, ch.K + 1):
        targets = [f"Y{i}" for i in range(1, k)]
        earlier_x = [f"X{i}" for i in range(1, k)]
        predictors = [f"Y{k}"] + earlier_x + [f"X{k}"]
        w = regression_coefficients(j, targets, predictors)
        coef = float(np.max(np.abs(w[:, -1])))
        mi = conditional_mi(j, targets, [f"X{k}"], [f"Y{k}"] + earlier_x)
        pass_coef = coef <= WITNESS_TOL
        pass_mi = mi <= WITNESS_TOL
        if pass_coef != pass_mi:
            raise InternalConsistencyError(
                f"witness disagreement at k={k}: coefficient {coef:.3e} vs "
                f"information {mi:.3e} bits")
        ok = ok and pass_coef
        residuals.append((k, coef, mi))
    return WitnessReport(passed=ok, residuals=tuple(residuals))


def build_z_channel(noise: NoiseCorrelation, diag_gains: Sequence[float]) -> ChannelMatrix:
    """Upper-triangular channel whose sum capacity is the ladder value.

    The coupling must be positive definite (a singular one makes the joint
    law degenerate, and is refused with ConditionViolated).  The recursion
    fills columns right to left, so each column sees the already-built tail
    of its own row.  The output is validated by the degradedness witness
    under the generating correlation.
    """
    K, sigma = noise.K, noise.sigma
    g = np.asarray(diag_gains, dtype=float)
    if g.shape != (K,):
        raise NonPositiveDiagonal(f"expected {K} diagonal gains, got shape {g.shape}")
    if np.any(g <= 0) or not np.all(np.isfinite(g)):
        raise NonPositiveDiagonal("diagonal gains must be finite and strictly positive")
    w = np.linalg.eigvalsh(sigma)
    if w[0] <= EIG_TOL * w[-1]:
        raise ConditionViolated(
            f"the noise coupling must be positive definite (smallest eigenvalue {w[0]:.3e})")
    H = np.zeros((K, K), dtype=complex)
    np.fill_diagonal(H, g)
    for k in range(K, 1, -1):
        tail = H[k - 1, k:]
        t2 = float(np.sum(np.abs(tail) ** 2))
        col = sigma[:k - 1, k - 1]
        if tail.size:
            col = col + H[:k - 1, k:] @ tail.conj()
        H[:k - 1, k - 1] = (g[k - 1] / (1.0 + t2)) * col
    ch = validate_channel(H)
    report = degradedness_witness(ch, noise)
    if not report.passed:
        raise WitnessFailure(
            f"constructed channel failed the degradedness check "
            f"(max residual {report.max_residual():.3e})")
    return ch


@np.errstate(over="ignore", invalid="ignore")
def invert_coupling_recursion(H: np.ndarray) -> Optional[np.ndarray]:
    """The unit-diagonal matrix whose recursion reproduces H's upper triangle.

    Entries below the diagonal are ignored; the result is Hermitian and
    read-only, or None when it overflows (a tiny direct gain under a large
    cross gain) or is not PSD by validate_noise_correlation's bound (an
    eigenvalue below -PSD_EIG_TOL): H's upper triangle is then not constructible.
    """
    s = H.shape[0]
    sigma = np.eye(s, dtype=complex)
    for k in range(s, 1, -1):
        tail = H[k - 1, k:]
        t2 = float(np.sum(np.abs(tail) ** 2))
        col = ((1.0 + t2) / H[k - 1, k - 1].real) * H[:k - 1, k - 1]
        if tail.size:
            col = col - H[:k - 1, k:] @ tail.conj()
        sigma[:k - 1, k - 1] = col
        sigma[k - 1, :k - 1] = col.conj()
    sigma.setflags(write=False)
    psd = np.all(np.isfinite(sigma)) and np.linalg.eigvalsh(sigma)[0] >= -PSD_EIG_TOL
    return sigma if psd else None


def recover_noise_correlation(ch: ChannelMatrix) -> Optional[NoiseCorrelation]:
    """The noise correlation from which `build_z_channel` rebuilds ch's upper
    triangle at ch's diagonal, or None when ch is not constructible; the
    inverse passed validate_noise_correlation's bound and is not checked again."""
    sigma = invert_coupling_recursion(ch.entries)
    return None if sigma is None else NoiseCorrelation(sigma)


def many_to_one(v: Sequence[complex], diag_gains: Sequence[float]) -> ChannelMatrix:
    """Channel where only receiver 1 is interfered: h_{1,k} = v_k h_{k,k}.

    This is the Z construction at the coupling `many_to_one_noise(v)`; its
    ladder value is the sum capacity.  sum |v_k|^2 > 1 is refused with
    ConditionViolated, and so is sum |v_k|^2 = 1, where the coupling is
    singular.
    """
    power = float(np.sum(np.abs(np.asarray(v, dtype=complex)) ** 2))
    if power > 1.0 + 1e-12:
        raise ConditionViolated(f"sum |v_k|^2 = {power:.6f} > 1")
    return build_z_channel(many_to_one_noise(v), diag_gains)


def many_to_one_noise(v: Sequence[complex]) -> NoiseCorrelation:
    """The noise correlation whose recursion gives many_to_one(v, ...):
    couples noise 1 to each other noise with coefficient v_k."""
    v = np.asarray(v, dtype=complex)
    K = v.shape[0] + 1
    sigma = np.eye(K, dtype=complex)
    sigma[0, 1:] = v
    sigma[1:, 0] = v.conj()
    return validate_noise_correlation(sigma)


def rank_one_channel(a: Sequence[complex], b: Sequence[complex]) -> ChannelMatrix:
    """Unit-rank channel h_{i,j} = a_i b_j^*.

    Requires |a_1| <= ... <= |a_K| (the receiver ordering the capacity
    argument relies on) and a real, strictly positive diagonal a_k b_k^*.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 1:
        raise NonStandardDiagonal("a and b must be equal-length nonempty vectors")
    mags = np.abs(a)
    if np.any(mags[:-1] > mags[1:]):
        raise NotSorted("entries of a must be sorted by magnitude, ascending")
    diag = a * b.conj()
    if np.any(np.abs(diag.imag) > 1e-12 * np.maximum(1.0, np.abs(diag.real))):
        raise NonStandardDiagonal("a_k b_k^* must be real (phase-align a and b first)")
    if np.any(diag.real <= 0):
        raise NonStandardDiagonal("a_k b_k^* must be strictly positive")
    return validate_channel(np.outer(a, b.conj()))
