"""Sum-capacity certificates.

A certificate is issued when an upper bound and an achievable rate coincide
to within 1e-9 bits.  Four routes are tried in a fixed order, so results are
reproducible and the cheap analytic routes win over the numeric one:

1. Z_THEOREM2 — the gain matrix is strictly upper triangular and inverting
   the coupling recursion on its upper entries yields a feasible noise
   correlation, under which earlier outputs are degraded versions of later
   ones by construction (so this is not checked separately); the
   correlated-noise bound then collapses onto the interference-as-noise
   ladder, which is achievable.
2. DEGRADED — the gain matrix is numerically unit-rank; the pooled-transmitter
   (broadcast) bound meets the successive-decoding ladder.
3. MAC_THEOREM3 — the recursion inversion is feasible (so degradedness again
   follows; a nonzero lower triangle is allowed) and the ladder rates survive
   every per-receiver joint-decoding check, making them achievable.
4. NUMERIC_MATCH — the optimized outer bound and the best general lower bound
   agree within tolerance.

Every issued certificate is re-verified through independent recomputations of
both sides before it is returned.  ``degradedness_witness`` is a diagnostic
that ``build_z_channel`` runs on what it builds; no route calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .achievability import (
    degraded_chain_sum_rate,
    degraded_sum_capacity,
    mac_feasibility,
    tin_sum_rate,
)
from .errors import InternalConsistencyError, SingularCovariance, TooLarge
from .gaussian_info import (
    LOG2PIE,
    build_joint,
    conditional_entropy,
    conditional_mi,
    regression_coefficients,
)
from .model import (
    BOUND_ONLY,
    CERTIFIED,
    PATH_DEGRADED,
    PATH_MAC,
    PATH_NUMERIC,
    PATH_Z,
    Certificate,
    ChannelMatrix,
    NoiseCorrelation,
    RateInequality,
    identity_noise,
    validate_channel,
    validate_noise_correlation,
)
from .outer_bound import (
    BoundTerm,
    _etw_summand,
    _etw_summand_data,
    _warm_sigma_candidate,
    kra_term_value,
    region,
)

CERT_TOL = 1e-9

#: residual threshold for the degradedness witness, both in estimator
#: coefficient magnitude and in bits of conditional information
WITNESS_TOL = 1e-9

#: second singular value below this multiple of the first counts as unit rank
RANK_ONE_TOL = 1e-9


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
        if not self.residuals:
            return 0.0
        return max(max(c, m) for _, c, m in self.residuals)


def degradedness_witness(ch: ChannelMatrix, noise: NoiseCorrelation) -> WitnessReport:
    """Check that under `noise` the first k-1 outputs are degraded copies of
    output k once the first k-1 inputs are known, for every k.

    Two equivalent residuals are computed — the estimator coefficient on X_k
    and the leftover conditional information — and their pass/fail decisions
    must agree; a split decision means the engine is inconsistent and raises.
    """
    if noise.K != ch.K:
        raise InternalConsistencyError("channel/noise size mismatch")
    j = build_joint(ch, noise)
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


def recover_noise_correlation(ch: ChannelMatrix) -> Optional[NoiseCorrelation]:
    """Invert the coupling recursion on the upper triangle of the gains.

    Returns the unique noise correlation whose recursion reproduces the upper
    triangle, or None when that matrix is not positive semidefinite (the
    channel is not in the constructible family).  Entries below the diagonal
    are ignored by construction.
    """
    sigma = _warm_sigma_candidate(ch.entries)
    return None if sigma is None else validate_noise_correlation(sigma)


def _rank_one_factors(H: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(a, b) with H ~= a b^H when H is numerically unit rank, else None."""
    u, s, vh = np.linalg.svd(H)
    if H.shape[0] > 1 and s[1] > RANK_ONE_TOL * s[0]:
        return None
    root = np.sqrt(s[0])
    return root * u[:, 0], root * vh[0].conj()


# ---------------------------------------------------------------------------
# independent recomputations used to re-verify a certificate before issuing

def _ladder_by_information(ch: ChannelMatrix) -> float:
    """Successive-decoding ladder recomputed as conditional informations."""
    j = build_joint(ch, identity_noise(ch.K))
    total = 0.0
    for k in range(1, ch.K + 1):
        total += conditional_mi(j, [f"Y{k}"], [f"X{k}"],
                                [f"X{i}" for i in range(1, k)])
    return total


def _tin_by_information(ch: ChannelMatrix) -> float:
    """All-interference-as-noise sum recomputed as plain informations."""
    j = build_joint(ch, identity_noise(ch.K))
    return sum(conditional_mi(j, [f"Y{k}"], [f"X{k}"]) for k in range(1, ch.K + 1))


def _term_by_entropies(ch: ChannelMatrix, noise: NoiseCorrelation) -> float:
    """Natural-order full-set bound term via the chain of output entropies:
    sum_k h(Y_k | X_<k, Y_<k) - h(Z_1..Z_K)."""
    j = build_joint(ch, noise)
    total = 0.0
    for k in range(1, ch.K + 1):
        cond = ([f"X{i}" for i in range(1, k)] + [f"Y{i}" for i in range(1, k)])
        total += conditional_entropy(j, [f"Y{k}"], cond)
    sign, logdet = np.linalg.slogdet(noise.sigma)
    return total - ch.K * LOG2PIE - float(logdet) / float(np.log(2.0))


def _sum_rate_by_second_route(ch: ChannelMatrix, ineq: RateInequality) -> float:
    """The winning full-set inequality of a sum-rate-only region, re-scored at
    its witness by a route other than the one ``region`` reported: the chain
    of output entropies on the channel and coupling relabeled in the
    witness's order (KRA), or the closed-form summands (ETW)."""
    perm = ineq.witness["perm"]
    if ineq.family == "KRA":
        idx = np.ix_([p - 1 for p in perm], [p - 1 for p in perm])
        return _term_by_entropies(validate_channel(ch.entries[idx]),
                                  validate_noise_correlation(ineq.witness["sigma"][idx]))
    return sum(_etw_summand(r, *_etw_summand_data(ch.entries, k, m))
               for k, m, r in zip(ineq.subset, perm, ineq.witness["rhos"]))


def _recheck(upper: float, upper2: float, lower: float, lower2: float) -> None:
    if abs(upper - upper2) > 1e-8 or abs(lower - lower2) > 1e-8:
        raise InternalConsistencyError(
            f"certificate re-verification failed: upper {upper!r} vs {upper2!r}, "
            f"lower {lower!r} vs {lower2!r}")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _ladder_certificate(ch: ChannelMatrix, recovered: NoiseCorrelation, path: str,
                        details: List[str], met: str, missed: str) -> Optional[Certificate]:
    """Natural-order full-set bound at the recovered coupling against the
    successive-decoding ladder (the Z_THEOREM2 and MAC_THEOREM3 routes).

    Returns the re-verified certificate when they meet; otherwise records the
    miss in ``details`` and returns None.
    """
    full = tuple(range(1, ch.K + 1))
    lower = tin_sum_rate(ch)
    try:
        upper = kra_term_value(ch, recovered, BoundTerm(full, full))
        gap = upper - lower
        if abs(gap) > CERT_TOL:
            details.append(f"{missed} by {gap:.3e} bits")
            return None
        upper2 = _term_by_entropies(ch, recovered)
    except SingularCovariance:
        # a gain matrix of deficient rank can recover a coupling on the cone
        # boundary; the joint law degenerates and this route cannot speak
        details.append("bound at the recovered coupling is degenerate, route skipped")
        return None
    _recheck(upper, upper2, lower, _ladder_by_information(ch))
    details.append(f"ladder value {_fmt(lower)} bits {met} (gap {gap:.3e})")
    return Certificate(CERTIFIED, path, gap, upper, lower, tuple(details))


def certify_sum_capacity(ch: ChannelMatrix) -> Certificate:
    """Try the four certification routes in priority order.

    Deterministic given the channel.  The returned certificate's
    details trace which routes were attempted and why they concluded.
    """
    H = ch.entries
    details: List[str] = []

    strictly_upper = bool(np.all(np.tril(H, -1) == 0))
    details.append(f"strictly upper triangular gains: {'yes' if strictly_upper else 'no'}")

    recovered = recover_noise_correlation(ch)
    details.append("noise-coupling recovery from upper triangle: "
                   + ("feasible" if recovered is not None else "not PSD"))

    if strictly_upper and recovered is not None:
        cert = _ladder_certificate(ch, recovered, PATH_Z, details,
                                   "met by bound at the recovered coupling",
                                   "recovered-coupling bound missed the ladder")
        if cert is not None:
            return cert

    factors = _rank_one_factors(H)
    details.append(f"unit-rank gain matrix: {'yes' if factors is not None else 'no'}")
    if factors is not None:
        a, b = factors
        order = np.argsort(np.abs(a), kind="stable")
        sorted_ch = validate_channel(H[np.ix_(order, order)])
        upper = degraded_sum_capacity(a[order], b[order])
        lower = tin_sum_rate(sorted_ch)
        gap = upper - lower
        if abs(gap) <= CERT_TOL:
            _recheck(upper,
                     degraded_chain_sum_rate(a[order], np.diagonal(sorted_ch.entries).real),
                     lower, _ladder_by_information(sorted_ch))
            details.append(f"pooled-transmitter bound {_fmt(upper)} bits meets the "
                           f"ladder (gap {gap:.3e})")
            return Certificate(CERTIFIED, PATH_DEGRADED, gap, upper, lower, tuple(details))
        details.append(f"pooled-transmitter bound missed the ladder by {gap:.3e} bits")

    if recovered is not None:
        try:
            mac = mac_feasibility(ch)
        except TooLarge:
            mac = None
            details.append("joint-decoding check skipped (too many users)")
        if mac is not None:
            details.append(f"per-receiver joint decoding of the ladder rates: "
                           f"{'feasible' if mac.feasible else f'{len(mac.violations)} violations'}")
            if mac.feasible:
                cert = _ladder_certificate(ch, recovered, PATH_MAC, details,
                                           "is jointly decodable and met by the bound",
                                           "bound missed the decodable ladder")
                if cert is not None:
                    return cert

    rep = region(ch, sum_rate_only=True)
    upper = rep.sum_rate_upper
    lower_name = max(rep.lower_bounds, key=lambda n: rep.lower_bounds[n])
    lower = rep.lower_bounds[lower_name]
    gap = upper - lower
    details.append(f"optimized sum-rate bound {_fmt(upper)} bits vs best achievable "
                   f"({lower_name}) {_fmt(lower)} bits")
    if abs(gap) <= CERT_TOL:
        if lower_name == "SUCC_DEC":
            lower2 = _ladder_by_information(ch)
        else:
            lower2 = _tin_by_information(ch)
        _recheck(upper, _sum_rate_by_second_route(ch, rep.inequalities[-1]), lower, lower2)
        return Certificate(CERTIFIED, PATH_NUMERIC, gap, upper, lower,
                           tuple(details), warnings=rep.warnings)
    return Certificate(BOUND_ONLY, None, gap, upper, lower,
                       tuple(details), warnings=rep.warnings)
