"""Sum-capacity certificates.

A certificate is issued when an upper bound and an achievable rate coincide
to within 1e-9 bits.  Three routes are tried in a fixed order, so results are
reproducible and the cheap analytic routes win over the numeric one.  The
first two share one check (``_ladder_certificate``): a bound meets the
successive-decoding ladder.

1. DEGRADED — the gain matrix is numerically unit-rank; the bound is the
   pooled-transmitter (broadcast) bound.
2. The recovery route — inverting the coupling recursion on the upper
   entries (``construct.recover_noise_correlation``) yields a feasible noise
   correlation, under which earlier outputs are degraded versions of later
   ones by construction (so this is not checked separately); the ladder
   rates survive every per-receiver joint decoding of the earlier users that
   receiver hears, so they are achievable; and the bound is the
   correlated-noise bound at the recovered coupling, scored by the reference
   route ``outer_bound.kra_term_value``: the chain of output entropies read
   off one QR of its square root.  A coupling that is not
   positive definite, as on the cone boundary, makes the route step aside as
   degenerate.  The route's linear algebra does not grow with K: one SVD (the
   unit-rank test), one eigen-solve (the recovered coupling's PSD test), two
   Cholesky factors of the coupling and three QR calls (the bound, its
   re-check and the ladder).  The certificate is labelled Z_THEOREM2
   when the gains are strictly upper triangular (no receiver hears an earlier
   user, so the decoding check holds trivially) and MAC_THEOREM3 otherwise.
3. NUMERIC_MATCH — the optimized outer bound and the best general lower bound
   agree within tolerance.

Every issued certificate is re-verified through independent recomputations of
both sides before it is returned: a correlated-noise bound, which both routes
report from ``kra_term_value``, by ``outer_bound._bound_at_coupling`` (the
telescoped form, one batched QR), a genie bound by its closed-form summands,
and the ladder and the interference-as-noise sum off QR pivots of
``gaussian_info.square_root``, so every re-check errs as eps times the gains,
not their squares.
``degradedness_witness`` is re-exported from ``construct``, whose
``build_z_channel`` runs it; no route calls it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .achievability import (
    degraded_chain_sum_rate,
    degraded_sum_capacity,
    mac_feasibility,
    tin_sum_rate,
)
# degradedness_witness is re-exported: the benchmark's tracer wraps it, and tests patch it, here
from .construct import degradedness_witness, recover_noise_correlation
from .errors import InternalConsistencyError, SingularCovariance
from .gaussian_info import refuse_lost_pivots, square_root
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
    validate_channel,
)
from .outer_bound import (
    FAMILY_KRA,
    BoundTerm,
    _bound_at_coupling,
    _etw_closed_form,
    kra_term_value,
    region,
)

CERT_TOL = 1e-9

#: second singular value below this multiple of the first counts as unit rank
RANK_ONE_TOL = 1e-9


def _rank_one_factors(H: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(a, b) with H ~= a b^H when H is numerically unit rank, else None."""
    u, s, vh = np.linalg.svd(H)
    if H.shape[0] > 1 and s[1] > RANK_ONE_TOL * s[0]:
        return None
    root = np.sqrt(s[0])
    return root * u[:, 0], root * vh[0].conj()


# ---------------------------------------------------------------------------
# independent recomputations used to re-verify a certificate before issuing

def _ladder_by_information(ch: ChannelMatrix, earlier_known: bool = True) -> float:
    """Successive-decoding ladder recomputed as conditional informations,
    I(Y_k; X_k | X_<k) = -log2 Var(X_k | X_<k, Y_k) for unit-power inputs, or,
    with no ``earlier_known`` input, I(Y_k; X_k): the interference-as-noise sum.

    Given X_<k, Y_k's row of [H, I] loses the columns of X_<k, so one batched
    QR of the pairs (that row, X_k) holds Var(Y_k | X_<k) = |R_11|^2 and
    Var(X_k | X_<k, Y_k) = |R_22|^2.  Var(Y_k | X_<k) or Var(Y_k | X_<=k) =
    |R_11 R_22|^2 at or below EIG_TOL times Var(Y_k) raises SingularCovariance,
    as conditional_mi's does.
    """
    K = ch.K
    root = square_root(ch)
    if earlier_known:
        root[K:, :K] = np.triu(ch.entries)
    R = np.linalg.qr(np.stack([root[K:], root[:K]], axis=2).conj(), mode="r")
    before = np.abs(R[:, 0, 0]) ** 2
    own = np.abs(R[:, 1, 1]) ** 2
    var = 1.0 + np.sum(np.abs(ch.entries) ** 2, axis=1)
    # pivot 2(k-1) is Y_k given X_<k, pivot 2k - 1 is Y_k given (X_k, X_<k)
    refuse_lost_pivots(np.stack([before, before * own], axis=1).ravel(), np.repeat(var, 2),
                       lambda i: ([f"Y{i // 2 + 1}"], [f"X{i // 2 + 1}"] * (i % 2)
                                  + [f"X{j}" for j in range(1, i // 2 + 1) if earlier_known]))
    return float(-np.sum(np.log2(own)))


def _sum_rate_by_second_route(ch: ChannelMatrix, ineq: RateInequality) -> float:
    """The winning full-set inequality of a sum-rate-only region, re-scored at
    its witness by another route than ``region``'s: the telescoped form read
    off square roots (KRA), or the closed-form summands (ETW)."""
    t = BoundTerm(ineq.subset, ineq.witness["perm"])
    if ineq.family == FAMILY_KRA:
        return _bound_at_coupling(ch, NoiseCorrelation(ineq.witness["sigma"]), t)
    return _etw_closed_form(ch.entries, t, ineq.witness["rhos"])


def _recheck(upper: float, upper2: float, lower: float, lower2: float) -> None:
    if abs(upper - upper2) > 1e-8 or abs(lower - lower2) > 1e-8:
        raise InternalConsistencyError(
            f"certificate re-verification failed: upper {upper!r} vs {upper2!r}, "
            f"lower {lower!r} vs {lower2!r}")


def _ladder_certificate(ch: ChannelMatrix, name: str, upper_by: Callable[[], float],
                        second_route: Callable[[], float], path: str,
                        details: List[str]) -> Optional[Certificate]:
    """The bound ``upper_by`` computes against the successive-decoding ladder
    of ``ch``: the certificate, re-verified through ``second_route``, when
    they meet; else None, with the miss or a degenerate joint law in details."""
    lower = tin_sum_rate(ch)
    try:
        upper = upper_by()
        gap = upper - lower
        if abs(gap) > CERT_TOL:
            details.append(f"{name} missed the ladder by {gap:.3e} bits")
            return None
        upper2 = second_route()
    except SingularCovariance:
        # a gain matrix of deficient rank can recover a coupling on the cone
        # boundary; the joint law degenerates and this route cannot speak
        details.append(f"{name} is degenerate, route skipped")
        return None
    _recheck(upper, upper2, lower, _ladder_by_information(ch))
    details.append(f"{name} {upper:.12g} bits meets the ladder (gap {gap:.3e})")
    return Certificate(CERTIFIED, path, gap, upper, lower, tuple(details))


def certify_sum_capacity(ch: ChannelMatrix) -> Certificate:
    """Try the three certification routes in priority order.

    Deterministic given the channel.  The returned certificate's
    details trace which routes were attempted and why they concluded.
    """
    H = ch.entries
    details: List[str] = []

    factors = _rank_one_factors(H)
    details.append(f"unit-rank gain matrix: {'yes' if factors is not None else 'no'}")
    if factors is not None:
        order = np.argsort(np.abs(factors[0]), kind="stable")
        a, b = factors[0][order], factors[1][order]
        sorted_ch = validate_channel(H[np.ix_(order, order)])
        cert = _ladder_certificate(
            sorted_ch, "pooled-transmitter bound", lambda: degraded_sum_capacity(a, b),
            lambda: degraded_chain_sum_rate(a, np.diagonal(sorted_ch.entries).real),
            PATH_DEGRADED, details)
        if cert is not None:
            return cert

    recovered = recover_noise_correlation(ch)
    details.append("noise-coupling recovery from upper triangle: "
                   + ("feasible" if recovered is not None else "not PSD"))
    if recovered is not None:
        mac = mac_feasibility(ch)
        details.append(f"per-receiver joint decoding of the ladder rates: "
                       f"{'feasible' if mac.feasible else f'{len(mac.violations)} violations'}")
        if mac.feasible:
            path = PATH_Z if np.all(np.tril(H, -1) == 0) else PATH_MAC
            users = tuple(range(1, ch.K + 1))
            full = BoundTerm(users, users)
            cert = _ladder_certificate(
                ch, "bound at the recovered coupling",
                lambda: kra_term_value(ch, recovered, full),
                lambda: _bound_at_coupling(ch, recovered, full), path, details)
            if cert is not None:
                return cert

    rep = region(ch, sum_rate_only=True)
    upper = rep.sum_rate_upper
    lower_name = max(rep.lower_bounds, key=lambda n: rep.lower_bounds[n])
    lower = rep.lower_bounds[lower_name]
    gap = upper - lower
    details.append(f"optimized sum-rate bound {upper:.12g} bits vs best achievable "
                   f"({lower_name}) {lower:.12g} bits")
    if abs(gap) <= CERT_TOL:
        lower2 = _ladder_by_information(ch, earlier_known=lower_name == "SUCC_DEC")
        _recheck(upper, _sum_rate_by_second_route(ch, rep.inequalities[-1]), lower, lower2)
        return Certificate(CERTIFIED, PATH_NUMERIC, gap, upper, lower, tuple(details))
    return Certificate(BOUND_ONLY, None, gap, upper, lower, tuple(details))
