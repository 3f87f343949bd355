"""Outer bounds on the capacity region of a K-user Gaussian channel.

Two inequality families are evaluated, each indexed by a nonempty user subset
S and an ordering pi of S:

* correlated-noise family ("KRA"): the receivers in S are processed in pi
  order, each conditioned on the earlier outputs and inputs and on all inputs
  outside S; the adversary picks a unit-diagonal Hermitian PSD correlation
  among the receiver noises, and the bound is the minimum over that choice.

* genie family ("ETW"): each receiver k in S is handed a noisy copy of its
  pi-partner's interference (the partner output with its own signal removed);
  the free parameter is one complex correlation per summand between the genie
  noise and the receiver noise, again minimized.

Every search over a single complex correlation -- each ETW summand and each
KRA term on a pair of users -- is solved in closed form (``_pair_rho``), and
its two candidates, the minimizer and zero correlation, are ranked by the
closed-form objective that ``_pair_rho`` minimizes (``_etw_summand``,
``_pair_value``); a KRA term on one user has the identity alone.  An
ETW summand depends only on the pair (k, pi_k), so its closed-form data,
minimizer and values are kept in one K x K pair table per channel
(``_etw_pairs``, memoised on the channel's entries for the last channel
seen); ``etw_term_min`` ranks its candidates from it, and ``certify``'s
closed-form re-check (``_etw_closed_form``) reads its summand data.
A KRA term on three or more users is convex in the noise correlation, and is
minimized by one BFGS start with the analytic gradient over a factored
correlation Sigma = U U^H whose rows of U are kept at unit length, which keeps
it feasible by construction.  It starts from the coupling recursion's
inverse (``construct.invert_coupling_recursion``) when that is PSD: on a
constructed channel it is the exact minimizer.  The BFGS is the module's own
(``minimize``), a few lines of numpy, so no command that bounds a channel
loads scipy.  Solve, ranking and pruning read one objective, the entropy
chain that ``kra_term_value`` reports, off one batched Cholesky factor of
the chain rows' covariances (``_chain_value_grad``).  Ranked candidates are
re-scored in that order through the reference route (``kra_term_value`` /
``etw_term_value``) until one is accepted (``_first_scored``).

``region`` reports, per subset and family, only the least value over the
orderings, so it prunes KRA orderings that cannot reach it.  At any feasible
Sigma with value f and Sigma-gradient G, convexity and the elliptope's SDP
dual bound the term's minimum below by LB = f + s min(0, lambda_min(G -
diag y)), y_i = Re (G Sigma)_ii (``_kra_lower_bound``, which derives it and
its round-off allowance, 1e-9 bits plus 4 s n^2 (n + 1) eps (1 + 2 /
lambda) (5 + 4 |Hr|_F^2) / (lambda ln 2) from the Cholesky factor's backward
error, with n = 2 s - 1 and lambda = lambda_min(Sigma)).
``region`` builds each ordering's candidate couplings once (``_kra_start``:
the identity and, on a pair, the pair coupling or, on three or more users,
the recursion warm start) and hands them to ``kra_term_min``; the chain
covariances are rebuilt from the reduced channel where they are read.  The
orderings of a subset of three or more users are solved in order of
their starting value, each passed the least value reported before it; a
solve whose LB clears that value by more than the allowance stops, and the
ordering is neither ranked nor re-scored.  Such an ordering would have
reported more than the least value, so it could neither win nor tie, and
the winner is the least value, the lexicographically first ordering on a
tie: the reported values do not depend on the order in which orderings are
solved.  The refusal raised when every candidate of an ordering is refused
is the first such ordering's in that fixed order, so it does depend on it.

A key reduction used throughout: conditioning on the inputs outside S makes
a term depend only on the |S| x |S| subchannel H[pi, pi] and the matching
block of the noise correlation, so every search runs in the reduced space and
the witness is embedded back at the end.  Both reference routes read QR
pivots of a square root: ETW's of the genie law's (``build_joint``), in two
batched calls per term, KRA's, and ``certify``'s KRA re-check
(``_bound_at_coupling``), of the reduced law's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .achievability import mac_feasibility, tin_sum_rate, tin_sum_rate_general
from .construct import invert_coupling_recursion
from .errors import (
    InternalConsistencyError,
    SingularCovariance,
    TooLarge,
    ValidationError,
)
from .gaussian_info import (
    _EPS,
    EIG_TOL,
    LOG2PIE,
    RHO_CAP,
    GenieSpec,
    build_joint,
    refuse_pivots,
    square_root,
    squared_pivots,
)
from .model import (
    BoundReport,
    ChannelMatrix,
    NoiseCorrelation,
    RateInequality,
    validate_noise_correlation,
)

FAMILY_KRA = "KRA"
FAMILY_ETW = "ETW"
FAMILIES = (FAMILY_KRA, FAMILY_ETW)

#: full (subset, permutation) enumeration is capped here; the count grows
#: like floor(e * K!) - 1
ENUM_MAX_K = 8

#: region() evaluates every subset only up to this K; beyond it, sum rate only
FULL_REGION_MAX_K = 6

_LN2 = float(np.log(2.0))


#: BFGS iteration cap and gradient tolerance (infinity norm) of each factored
#: solve.  No solve in the full regions of 15 dense channels (K = 2 to 4,
#: ``random_channel`` with rng seeds 0 to 14) took more than 111 iterations,
#: and on their 270 terms of three or more users a tolerance of 1e-9 gave the
#: same values to 8.5e-15 bits.
BFGS_MAXITER = 2000
BFGS_GTOL = 1e-7

#: Armijo sufficient-decrease constant of the backtracking line search
_ARMIJO = 1e-4


class Solve(NamedTuple):
    """End point of a BFGS solve, its objective evaluations and iterations,
    and whether ``stop`` ended it."""

    x: np.ndarray
    nfev: int
    nit: int
    stopped: bool = False


def minimize(fun: Callable, x0: np.ndarray,
             stop: Optional[Callable[[], bool]] = None) -> Solve:
    """Minimize fun(x) -> (value, gradient) by BFGS (Nocedal & Wright 2006,
    alg. 6.1) from x0.

    The inverse Hessian starts at the identity, is scaled by s'y / y'y before
    its first update (their eq. 6.20), and is kept after a step with s'y <= 0.
    Each line search starts from scipy's first trial step, min(1, 2.02 (f_k -
    f_{k-1}) / slope) with f_{-1} = f_0 + |g_0| / 2, and halves it until it
    gives a decrease that meets the Armijo condition.  The solve stops when the
    gradient's infinity norm is at most BFGS_GTOL, after BFGS_MAXITER
    iterations, or when the line search finds no decrease: its step has
    shrunk until the decrease a linear model promises rounds away against f_k.
    ``stop``, if given, is called at x0 and after each accepted step, when
    fun's latest evaluation is at the new iterate; a true answer ends the
    solve there, with ``stopped`` set.
    """
    x = np.asarray(x0, dtype=float)
    f, g = fun(x)
    nfev, nit = 1, 0
    H = np.eye(x.size)
    f_prev = f + np.linalg.norm(g) / 2.0
    while nit < BFGS_MAXITER and np.max(np.abs(g)) > BFGS_GTOL:
        if stop is not None and stop():
            return Solve(x, nfev, nit, True)
        p = -(H @ g)
        slope = float(g @ p)
        step = 2.02 * (f - f_prev) / slope
        step = min(step, 1.0) if step > 0.0 else 1.0
        while True:
            if not f + step * slope < f:
                return Solve(x, nfev, nit)
            x_new = x + step * p
            f_new, g_new = fun(x_new)
            nfev += 1
            if f_new < f and f_new <= f + _ARMIJO * step * slope:
                break
            step /= 2.0
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if nit == 0:
                H *= sy / float(y @ y)
            Hy = H @ y
            H += ((sy + y @ Hy) / sy * np.outer(s, s) - np.outer(Hy, s) - np.outer(s, Hy)) / sy
        x, g, f_prev, f = x_new, g_new, f, f_new
        nit += 1
    return Solve(x, nfev, nit)


@dataclass(frozen=True)
class BoundTerm:
    """One (subset, ordering) instance; subset is kept sorted, 1-based."""

    subset: Tuple[int, ...]
    perm: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "subset", tuple(self.subset))
        object.__setattr__(self, "perm", tuple(self.perm))
        if not self.subset:
            raise ValidationError("subset must be nonempty")
        if tuple(sorted(self.subset)) != self.subset:
            raise ValidationError(f"subset must be sorted: {self.subset}")
        if len(set(self.subset)) != len(self.subset) or min(self.subset) < 1:
            raise ValidationError(f"subset must hold distinct indices >= 1: {self.subset}")
        if sorted(self.perm) != list(self.subset):
            raise ValidationError(f"perm {self.perm} is not an arrangement of {self.subset}")

    @property
    def size(self) -> int:
        return len(self.subset)


def count_bounds(K: int) -> int:
    """Number of (subset, ordering) instances: sum_k C(K,k) k!."""
    if K < 1:
        raise ValidationError("K must be >= 1")
    return sum(math.comb(K, k) * math.factorial(k) for k in range(1, K + 1))


def enumerate_terms(K: int) -> List[BoundTerm]:
    """All (S, pi) pairs, subsets by size then lexicographic, orders lexicographic."""
    if K < 1:
        raise ValidationError("K must be >= 1")
    if K > ENUM_MAX_K:
        raise TooLarge(f"full enumeration for K={K} would produce {count_bounds(K)} terms "
                       f"(cap is K={ENUM_MAX_K}); use sum-rate-only mode")
    out = []
    for size in range(1, K + 1):
        for subset in combinations(range(1, K + 1), size):
            for perm in permutations(subset):
                out.append(BoundTerm(subset=subset, perm=perm))
    return out


# ---------------------------------------------------------------------------
# reduction to the subchannel selected by a term

def _reduced_channel(ch: ChannelMatrix, t: BoundTerm) -> np.ndarray:
    """|S| x |S| subchannel with users relabeled in pi order.

    Conditioning on the inputs outside S strips their contribution from every
    output, so the term equals the natural-order full-set term of this matrix.
    """
    if max(t.subset) > ch.K:
        raise ValidationError(f"term {t} references users beyond K={ch.K}")
    idx = [p - 1 for p in t.perm]
    return ch.entries[np.ix_(idx, idx)]


def _embed_sigma(sigma_r: np.ndarray, t: BoundTerm, K: int) -> NoiseCorrelation:
    """Lift a reduced noise correlation back to K users (identity elsewhere)."""
    full = np.eye(K, dtype=complex)
    idx = [p - 1 for p in t.perm]
    full[np.ix_(idx, idx)] = sigma_r
    return validate_noise_correlation(full)


# ---------------------------------------------------------------------------
# the correlated-noise term as one entropy chain (derived in kra_term_value),
# read off a QR factor of its rows' root or a Cholesky factor of their
# covariance


def _chain_order(s: int) -> List[int]:
    """The chain rows (Y_1, X_1, ..., X_{s-1}, Y_s) as indices of a reduced
    root's rows X_1..X_s, Y_1..Y_s: Y_k at position 2 (k - 1), X_k at 2 k - 1."""
    return [i for k in range(s) for i in (s + k, k)][:-1]


def _chain_covariances(Hr: np.ndarray) -> np.ndarray:
    """The chain rows' covariance at Sigma = 0, stacked with that of the same
    rows with H removed, shape (2, 2s - 1, 2s - 1); at Sigma both add Sigma
    on the Y positions 0, 2, ..., 2s - 2."""
    s = Hr.shape[0]
    rows = np.vstack([np.eye(s), Hr])[_chain_order(s)]
    chain = np.zeros((2, 2 * s - 1, 2 * s - 1), dtype=complex)
    chain[0] = rows @ rows.conj().T
    chain[1, 1::2, 1::2] = np.eye(s - 1)  # the inputs alone
    return chain


def _chain_value_grad(sigma: np.ndarray,
                      chain: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
    """The term at sigma (bits) and its Sigma-gradient G, d value = Re tr(G
    dSigma), off one batched Cholesky factor C = L L^H of both
    _chain_covariances at sigma: the log2 of the chain's squared Y pivots
    L_ii^2 less the noise chain's.  A chain's sum of ln L_ii^2 over its Y
    positions i is sum_i [ln det C_<=i - ln det C_<i], and C_<=i^-1 =
    M_<=i^H M_<=i with M = L^-1 lower triangular, so its C-gradient is
    sum_i m_i^H m_i over M's Y rows m_i.  Sigma enters on the Y positions, so
    G = (P^H P for the chain - P^H P for the noise chain) / ln 2, P the Y
    rows and Y columns of M.  Off the positive definite cone the value is
    inf and G is None."""
    mats = chain.copy()
    mats[:, ::2, ::2] += sigma
    try:
        L = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return np.inf, None
    pivots = np.diagonal(L, axis1=1, axis2=2)[:, ::2].real
    P = np.linalg.inv(L)[:, ::2, ::2]
    G = np.swapaxes(P.conj(), 1, 2) @ P
    return 2.0 * float(np.log2(pivots[0] / pivots[1]).sum()), (G[0] - G[1]) / _LN2


def _bound_at_coupling(ch: ChannelMatrix, noise: NoiseCorrelation, t: BoundTerm) -> float:
    """Term t at ``noise`` by its telescoped form, sum_k [ld|Sigma_k + A_k| -
    ld|Sigma_{k-1} + B_k|] - ld|Sigma| with A_k = T T^H, T = Hr[:k, k-1:], and
    B_k without T's last row, each block read off a QR factor of its root
    [L_n | T], L L^H = Sigma[pi, pi], padded with unit rows so one batched QR
    serves all: certify's re-check of kra_term_value, on another layout.  It
    errs as eps times the gains, not their squares; a singular coupling
    raises SingularCovariance, as square_root does."""
    s = t.size
    root = square_root(ch, noise, t.perm)
    Hr = root[s:, :s]
    tails = ([(k, Hr[:k, k - 1:]) for k in range(1, s + 1)]
             + [(k - 1, Hr[:k - 1, k - 1:]) for k in range(2, s + 1)] + [(s, Hr[:, :0])])
    roots = np.zeros((2 * s, s, 2 * s), dtype=complex)
    for b, (n, tail) in enumerate(tails):
        roots[b, :n, :n] = root[s:s + n, s:s + n]
        roots[b, n:, n:s] = np.eye(s - n)
        roots[b, :n, s:s + tail.shape[1]] = tail
    log2dets = np.sum(np.log2(squared_pivots(roots)), axis=1)
    return float(np.repeat([1.0, -1.0], s) @ log2dets)


def kra_term_value(ch: ChannelMatrix, noise: NoiseCorrelation, t: BoundTerm) -> float:
    """Correlated-noise bound term at a fixed noise correlation (bits).

    Reference path: the chain of output entropies of the reduced law
    (H[pi, pi], Sigma[pi, pi]), read off its square_root.  With pi as the
    natural order, and Y_k = Z_k given every input, summand k is
    I(Y_k; X_k..X_s | X_<k, Y_<k) = h(Y_k | X_<k, Y_<k) - h(Z_k | Z_<k).
    One QR of the root's rows (Y_1, X_1, ..., X_{s-1}, Y_s) holds each
    Var(Y_k | X_<k, Y_<k) as Y_k's squared pivot, and Var(Z_k | Z_<k) is
    L_kk^2, so summand k is log2 |R_kk|^2 - 2 log2 L_kk: the pi e factors
    cancel and no gain is squared.  A squared output pivot at or below EIG_TOL
    times its variance raises SingularCovariance, and so, checked after them,
    does an X pivot at or below eps times it, as pivot_log2det refuses a
    conditioning set singular to working precision; a summand below zero is
    round-off, counted as zero above -1e-9 and InternalConsistencyError below."""
    if max(t.subset) > ch.K:
        raise ValidationError(f"term {t} references users beyond K={ch.K}")
    perm, s = t.perm, t.size
    root = square_root(ch, noise, perm)  # refuses a coupling of another size
    rows = root[_chain_order(s)]
    squares = squared_pivots(rows)
    var = np.sum(rows.real ** 2 + rows.imag ** 2, axis=1)

    def given(k):  # the labels Y_pi_k is conditioned on
        return ([f"X{u}" for u in perm[:k]] + [f"Y{u}" for u in perm[:k]]
                + [f"X{i}" for i in range(1, ch.K + 1) if i not in perm])
    pivots = squares[0::2]
    refuse_pivots(pivots, var[0::2], EIG_TOL, lambda k: ([f"Y{perm[k]}"], given(k)))
    refuse_pivots(squares[1::2], var[1::2], _EPS, lambda k: ([], given(k + 1)))
    total = 0.0  # a plain loop: a term has few summands, and it beats three array passes
    for k, v in enumerate((np.log2(pivots) - 2.0 * np.log2(np.diagonal(root)[s:].real)).tolist()):
        if v <= -1e-9:
            raise InternalConsistencyError(f"summand {k + 1} of term {t}, for Y{perm[k]}, is "
                                           f"{v:.3e} < 0 beyond numerical dust")
        total += max(v, 0.0)
    return total


def _pair_rho(b: float, c: complex) -> complex:
    """Exact minimizer of log2(p - |c + rho|^2) - log2(1 - |rho|^2) over |rho| <= RHO_CAP.

    rho takes the phase of c; its magnitude is the smaller root of
    |c| r^2 - b r + |c| = 0 with b = p - |c|^2 - 1, real roots of product 1
    whenever b >= 2|c|: every caller guarantees it, passing b as a sum of
    squares (Lagrange's identity) that cannot cancel.  At equality the minimum
    runs to |rho| = 1 and the cap binds, as it does when b^2 overflows.
    """
    a = abs(c)
    if a == 0.0:
        return 0j
    r = RHO_CAP
    if b > 2.0 * a and math.isfinite(b * b):
        r = min(2.0 * a / (b + math.sqrt(max(b * b - 4.0 * a * a, 0.0))), RHO_CAP)
    rho = r * (c / a)
    for _ in range(4):  # the unit phase factor can round |rho| a few ulps past the cap
        if abs(rho) <= RHO_CAP:
            break
        rho *= 1.0 - 2.0 ** -52
    return complex(rho)


#: smallest eigenvalue of the witness candidate blended from the BFGS end
#: point.  The minima of |S| >= 3 terms sit on the PSD boundary (smallest
#: eigenvalue 1e-8 and below), where the noise law is nearly degenerate;
#: blending up to 1e-6 costs under 4e-7 bits, and kra_term_value rejected no
#: candidate on the 2082 |S| >= 3 terms of 70 measured regions.
EIG_FLOOR = 1e-6


def _floor_eig(sigma: np.ndarray, floor: float) -> np.ndarray:
    """Blend sigma toward the identity, which keeps the unit diagonal, until
    its smallest eigenvalue reaches floor."""
    e0 = float(np.linalg.eigvalsh(sigma)[0])
    if e0 >= floor:
        return sigma
    t = (floor - e0) / (1.0 - e0)
    return (1.0 - t) * sigma + t * np.eye(sigma.shape[0])


def _unit_rows(x: np.ndarray, s: int) -> Tuple[np.ndarray, np.ndarray]:
    """U = diag(1 / |v_i|) V and the row norms, for x = (Re V, Im V) flattened."""
    V = (x[:s * s] + 1j * x[s * s:]).reshape(s, s)
    norms = np.linalg.norm(V, axis=1)
    return V / norms[:, None], norms


def _factored_value_grad(x: np.ndarray, chain: np.ndarray, seen: Optional[list] = None
                         ) -> Tuple[float, np.ndarray]:
    """The term at Sigma = U U^H and its gradient in x = (Re V, Im V).

    With W = G U, row i of the V-gradient is 2 (w_i - Re<u_i, w_i> u_i) / |v_i|:
    the Sigma-gradient pulled back through U, projected off the row direction
    that the normalization discards.  ``seen``, if given, is set to
    [Sigma, value, G] at x when the value is finite.
    """
    s = (chain.shape[1] + 1) // 2
    U, norms = _unit_rows(x, s)
    sigma = U @ U.conj().T
    val, G = _chain_value_grad(sigma, chain)
    if G is None:
        return val, np.zeros_like(x)
    if seen is not None:
        seen[:] = [sigma, val, G]
    W = G @ U
    radial = np.sum(U.conj() * W, axis=1).real
    dV = 2.0 * (W - radial[:, None] * U) / norms[:, None]
    return val, np.concatenate([dV.real.ravel(), dV.imag.ravel()])


def _kra_lower_bound(sigma: np.ndarray, value: float, G: np.ndarray,
                     chain: np.ndarray) -> Tuple[float, float]:
    """(LB, allowance) in bits: a lower bound on the term's minimum over the
    elliptope {Sigma' >= 0, diag Sigma' = 1}, from the value and the
    Sigma-gradient G of _chain_value_grad at a feasible sigma, and the
    round-off the computed LB may carry past the exact one.

    The term f is convex in Sigma (Diggavi & Cover 2001), so f(Sigma') >=
    f(Sigma) + Re tr(G (Sigma' - Sigma)).  For any real y, the elliptope's SDP
    dual (Vandenberghe & Boyd 1996) gives Re tr(G Sigma') = sum y_i +
    Re tr((G - diag y) Sigma') >= sum y_i + s lambda_min(G - diag y), as
    tr Sigma' = s.  With y_i = Re (G Sigma)_ii, sum y_i = Re tr(G Sigma), so

        min f >= LB = f(Sigma) + s min(0, lambda_min(G - diag y)).

    The allowance bounds what round-off moves.  Each chain covariance C, of
    order n = 2 s - 1, is factored as C + dC with |dC| <= gamma_{n+1} |L| |L^H|
    (Higham 2002, thm 10.3), and |L_i| |L_j| <= (C_ii C_jj)^(1/2), so dC =
    D E D with D = diag(C_ii)^(1/2) and |E| <= n (n + 1) eps; forming C and
    inverting L add as much again, 2 n (n + 1) eps in all.  Y's pivots and
    Y's rows of C_<=i^-1 depend on C_<=i only through the Schur complement
    of its X rows, M_b = C_YY - C_YX C_XY, as the inputs are white (C_XX =
    I): Cov(Y | X) of the block, Sigma_k + A_k or Sigma_{k-1} + B_k (or
    Sigma_k on the noise chain), so |M_b^-1| <= 1 / lambda with lambda =
    lambda_min(Sigma) <= 1 (interlacing).  dM_b = W dC W^H with W = [I,
    -C_YX], and |W D| <= (1 + h^2)^(1/2) + h with h^2 = |Hr|_F^2, so
    |dM_b| <= 8 n (n + 1) eps (1 + h^2) on the chain and 2 n (n + 1) eps on
    the noise chain.  Each of the 2 n blocks' log-dets moves by at most
    s |dM_b| / lambda and its inverse, hence G, by |dM_b| / lambda^2; a
    change E of G moves the linear bound by at most 2 s |E|, since
    |tr(E P)| <= |E| tr P for P >= 0 and tr(Sigma + Sigma') = 2 s.  The
    eigenvalue's own error, eps s |G|, is below the inverse's term; doubling
    covers it and the second order.  A reported value is kra_term_value's QR
    read of the chain at a candidate, within 1e-12 bits of its 50-digit
    referee (tests/test_reported_values.py), not this Cholesky read; 1e-9
    bits covers that.  In bits:

        allowance = 1e-9 + 4 s n^2 (n + 1) eps (1 + 2 / lambda) (5 + 4 h^2)
                    / (lambda ln 2).

    Off the positive definite cone (lambda <= 0 after round-off) the
    allowance is inf: the bound says nothing there.
    """
    s = sigma.shape[0]
    y = np.einsum("ij,ji->i", G, sigma).real
    low, lam = np.linalg.eigvalsh(np.stack([G - np.diag(y), sigma]))[:, 0]
    lb = value + s * min(0.0, float(low))
    if lam <= 0.0:
        return lb, np.inf
    n, h2 = 2 * s - 1, float(chain[0].trace().real) - (s - 1)  # |Hr|_F^2: X rows add s - 1
    allowance = (1e-9 + 4.0 * s * n * n * (n + 1) * _EPS * (1.0 + 2.0 / lam)
                 * (5.0 + 4.0 * h2) / (lam * _LN2))
    return lb, allowance


def _factored_min_sigma(sigma0: np.ndarray, chain: np.ndarray,
                        prune_above: float = math.inf) -> Optional[np.ndarray]:
    """End point of BFGS over the factored coupling Sigma = U U^H from sigma0.

    The solve is ended at the first iterate whose _kra_lower_bound clears
    prune_above by more than its allowance, and the result is None: no point
    of the elliptope scores at or below prune_above.  An iterate whose value
    is at most prune_above cannot clear it (LB <= f), so its bound is not
    computed; at +inf none is.
    """
    s = sigma0.shape[0]
    V = np.linalg.cholesky(_floor_eig(sigma0, EIG_FLOOR))
    x0 = np.concatenate([V.real.ravel(), V.imag.ravel()])
    seen: list = []

    def cleared() -> bool:
        if seen[1] <= prune_above:
            return False
        lb, allowance = _kra_lower_bound(*seen, chain)
        return lb - prune_above > allowance
    res = minimize(lambda x: _factored_value_grad(x, chain, seen), x0, cleared)
    if res.stopped:
        return None
    U, _ = _unit_rows(res.x, s)
    return U @ U.conj().T


def _first_scored(ranked: Sequence, score: Callable):
    """(value, witness) from ``score``, the family's reference route, at the
    first fast-form-ranked candidate it accepts; it refuses one on or past the
    feasible boundary (SingularCovariance, InternalConsistencyError).  When it
    refuses all, the last refusal is raised, chained to the earlier ones."""
    head, *rest = ranked
    try:
        return score(head)
    except (SingularCovariance, InternalConsistencyError):
        if not rest:
            raise
        return _first_scored(rest, score)


def _pair_value(rho: complex, a0: complex, a1: complex) -> float:
    """The objective _pair_rho minimizes for a pair term, log2 det(Sigma +
    a a^H) - log2 det Sigma with Sigma's off-diagonal entry rho and a =
    Hr[:, 1], in closed form: det(Sigma + a a^H) = (1 - |rho|^2)(1 + |a1|^2)
    + |a0 - rho a1|^2 is a sum of nonnegative terms, so none cancels."""
    den = 1.0 - abs(rho) ** 2
    return math.log2(den * (1.0 + abs(a1) ** 2) + abs(a0 - rho * a1) ** 2) - math.log2(den)


def _kra_start(ch: ChannelMatrix, t: BoundTerm) -> Tuple[np.ndarray, ...]:
    """t's candidate couplings before a solve, s x s matrices built from its
    reduced channel.  A singleton's one candidate is the identity.  A pair's
    are the identity and the pair coupling, ranked by _pair_value (the
    identity first on a tie).  On three or more users they are the identity,
    then the recursion warm start if it is PSD (exact for a constructed
    channel), and the last is where the BFGS solve starts."""
    Hr = _reduced_channel(ch, t)
    s = Hr.shape[0]
    eye = np.eye(s, dtype=complex)
    if s == 1:
        return (eye,)
    if s == 2:
        tail = Hr[:, 1:]
        A = tail @ tail.conj().T
        rho = _pair_rho(A[0, 0].real + A[1, 1].real, complex(A[0, 1]))
        pair = np.array([[1.0, rho], [rho.conjugate(), 1.0]])
        a0, a1 = complex(Hr[0, 1]), complex(Hr[1, 1])
        better = _pair_value(rho, a0, a1) < _pair_value(0j, a0, a1)
        return (pair, eye) if better else (eye, pair)
    warm = invert_coupling_recursion(Hr)
    return (eye,) if warm is None else (eye, warm)


def kra_term_min(ch: ChannelMatrix, t: BoundTerm, prune_above: float = math.inf,
                 *, start: Optional[Tuple[np.ndarray, ...]] = None
                 ) -> Optional[Tuple[float, NoiseCorrelation]]:
    """Minimize the correlated-noise term over the noise correlation.

    Pairs (|S| = 2) are solved in closed form: the only free entry rho of
    Sigma enters as log2 det(Sigma + A_2) - log2 det(Sigma), which is the
    _pair_rho objective with b = A_00 + A_11 (A has rank one) and c = A_01;
    the pair coupling and the identity are ranked by that objective
    (_pair_value), the identity first on a tie.  A singleton has the
    identity alone.  For |S| >= 3 the value is convex in Sigma (Diggavi &
    Cover 2001), so one BFGS start suffices: it runs over Sigma = U U^H, U =
    diag(1 / |v_i|) V with V a free complex matrix, from the recursion warm
    start if that is PSD, else from the identity, and its end point is
    blended toward the identity to the smallest eigenvalue EIG_FLOOR.  Solve
    and ranking read one objective, the entropy chain that kra_term_value
    reports, off a Cholesky factor of the reduced channel's
    _chain_covariances (_chain_value_grad).  The end point, the identity and
    the PSD warm start are ranked by its value (stably, so the identity wins
    ties), and re-scored through kra_term_value by _first_scored.

    ``start`` is t's candidate tuple from _kra_start, which _kra_orderings
    builds once per ordering and hands over; without it the call builds its
    own, with the same result.

    ``prune_above`` is a value already reported for another ordering of S.
    A |S| >= 3 solve ends at the first accepted iterate whose
    _kra_lower_bound on the term's minimum exceeds prune_above by more than
    its round-off allowance, and None is returned, with no candidate ranked
    or re-scored.  The value this call would otherwise report is the entropy
    chain at a point of the elliptope, so it is above prune_above: a pruned
    ordering cannot win or tie.  At +inf, and for |S| <= 2, the result is
    never None.
    """
    candidates = _kra_start(ch, t) if start is None else start
    if t.size >= 3:
        chain = _chain_covariances(_reduced_channel(ch, t))
        end = _factored_min_sigma(candidates[-1], chain, prune_above)
        if end is None:
            return None
        candidates = sorted([*candidates, _floor_eig(end, EIG_FLOOR)],
                            key=lambda sig: _chain_value_grad(sig, chain)[0])

    def score(sig):
        noise = _embed_sigma(sig, t, ch.K)
        return kra_term_value(ch, noise, t), noise
    return _first_scored(candidates, score)


# ---------------------------------------------------------------------------
# genie family

def _norm2(v: np.ndarray) -> float:
    """Squared Euclidean norm of a complex vector."""
    return float(np.sum(v.real ** 2 + v.imag ** 2))


def _etw_summand_data(H: np.ndarray, k: int, m: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """Pair (k, m)'s rows over the inputs, h = H[k] and r = H[m] less its
    direct gain (1-based), and the sum of the squared 2x2 minors of (h, r)."""
    r = H[m - 1].copy()
    r[m - 1] = 0.0
    outer = np.outer(H[k - 1], r)
    return H[k - 1], r, 0.5 * _norm2(outer - outer.T)


def _etw_summand(rho: complex, h: np.ndarray, r: np.ndarray, minors: float) -> float:
    """log2 Var(Y_k | G_m) - log2(1 - |rho|^2) in closed form (bits).

    With G_m's noise conj(rho) Z_k + sqrt(1 - |rho|^2) W', the rows of Y_k and
    G_m over (X, Z_k, W') are (h, 1, 0) and (r, conj(rho), sqrt(1 - |rho|^2)),
    and Var(Y_k | G_m) v_g = v_y v_g - |c0 + rho|^2 is the sum of their squared
    2x2 minors (Lagrange's identity): (h, r)'s, |conj(rho) h - r|^2 and
    (1 - |rho|^2) v_y, none of which cancels against another.
    """
    den = 1.0 - abs(rho) ** 2
    if den <= 0:
        return np.inf
    num = minors + _norm2(np.conj(rho) * h - r) + den * (1.0 + _norm2(h))
    return math.log2(num) - math.log2(1.0 + _norm2(r)) - math.log2(den)


class _EtwPair(NamedTuple):
    """One genie summand, pair (k, m): its _etw_summand_data, its _pair_rho
    minimizer, and its value at rho = 0 and at that minimizer."""

    data: Tuple[np.ndarray, np.ndarray, float]
    rho: complex
    at_zero: float
    at_rho: float


@functools.lru_cache(maxsize=1)
def _etw_pair_table(entries: bytes, K: int) -> Dict[Tuple[int, int], _EtwPair]:
    """The pair table of the channel whose entries have these bytes, empty
    until _etw_pairs fills it.  The key is the whole matrix, so one channel's
    table never serves another."""
    return {}


def _etw_pairs(H: np.ndarray, t: BoundTerm) -> List[_EtwPair]:
    """The table entries of t's summands, (k, pi_k) for k in S ascending;
    each pair is computed once per channel, on first use."""
    table = _etw_pair_table(H.tobytes(), H.shape[0])
    out = []
    for k, m in zip(t.subset, t.perm):
        pair = table.get((k, m))
        if pair is None:
            h, r, minors = data = _etw_summand_data(H, k, m)
            rho = _pair_rho(minors + _norm2(h) + _norm2(r), complex(np.vdot(r, h)))  # by minors
            pair = table[k, m] = _EtwPair(data, rho, _etw_summand(0j, *data),
                                          _etw_summand(rho, *data))
        out.append(pair)
    return out


def _etw_closed_form(H: np.ndarray, t: BoundTerm, rhos: Sequence[complex]) -> float:
    """The genie term of t at the correlations rhos in closed form (bits),
    from the summand data in the pair table."""
    return sum(_etw_summand(r, *p.data) for r, p in zip(rhos, _etw_pairs(H, t)))


def etw_term_value(ch: ChannelMatrix, t: BoundTerm, rhos: Sequence[complex]) -> float:
    """Genie bound term at fixed genie-noise correlations (bits).

    Summand for k in S (ascending), partnered with m = pi_k:
    h(Y_k | G_m) - h(G_m | Y_k, X_1..X_K), each read by row index off the
    squared QR pivots of the law's root (build_joint): Y_k's after G_m's, and
    G_m's after X_1..X_K and Y_k, which is its noise's residual given Z_k, so
    the second entropy is exactly log2(pi e (1 - |rho|^2)).  Both are computed
    and checked against each other, which pins the root's assembly, up to the
    pivot's QR error of eps times its row's norm: 32 eps sqrt(Var G_m / (1 -
    |rho|^2)) bits.  Every summand's rows (G_m, Y_k) are stacked into one
    squared_pivots call and its rows (X_1..X_K, Y_k, G_m) into another, each
    pivot bit for bit that of its own block's call.  All summands' refusals,
    pivot_log2det's rules and the check above, are decided in one vectorised
    pass; only when one fires are the summands walked in order, each worded
    by refuse_pivots and checked exactly, so the first at fault raises, as
    summand-by-summand reads would.  The value sums math.log2 of Python
    floats in summand order, bit for bit those reads' value.
    """
    if len(rhos) != t.size:
        raise ValidationError(f"need {t.size} genie correlations, got {len(rhos)}")
    genies = [GenieSpec(target=m, rho=complex(r), paired_with=k)
              for k, m, r in zip(t.subset, t.perm, rhos)]
    root = build_joint(ch, None, genies).root  # refuses users beyond K
    K = ch.K
    # per summand, the rows (G_m, Y_k) and then (X_1..X_K, Y_k, G_m)
    rows = np.array([[2 * K + a, K + k - 1, *range(K), K + k - 1, 2 * K + a]
                     for a, k in enumerate(t.subset)])
    squares = np.hstack([squared_pivots(root[rows[:, :2]]), squared_pivots(root[rows[:, 2:]])])
    var = np.sum(root.real ** 2 + root.imag ** 2, axis=1)[rows]
    factor = np.array([_EPS, EIG_TOL] + [_EPS] * (K + 1) + [EIG_TOL])
    fails = (squares <= factor * var).any(axis=1)
    walk = fails.any()
    if not walk:  # the residual check to half its bound, past np.log2's ulps; the walk's is exact
        res = 1.0 - np.abs(np.asarray(rhos, dtype=complex)) ** 2
        walk = (abs(np.log2(squares[:, -1] / res)) > 16 * _EPS * np.sqrt(var[:, -1] / res)).any()
    total = 0.0
    for k, m, r, fail, sq, v in zip(t.subset, t.perm, rhos, fails.tolist(), squares, var):
        if fail:  # each pivot's (target, given) labels
            gm, chain = [f"G{m}"], [f"X{i}" for i in range(1, K + 1)] + [f"Y{k}"]
            names = [([], gm), ([f"Y{k}"], gm)] + [([], chain)] * (K + 1) + [(gm, chain)]
            refuse_pivots(sq, v, factor, names.__getitem__)
        first = LOG2PIE + math.log2(sq[1])
        second = LOG2PIE + math.log2(sq[-1])
        if walk:
            residual = 1.0 - abs(r) ** 2
            closed = LOG2PIE + math.log2(residual)
            if abs(second - closed) > 32.0 * _EPS * math.sqrt(v[-1] / residual):
                raise InternalConsistencyError(
                    f"residual genie entropy mismatch: QR {second!r} vs closed form {closed!r}")
        total += first - second
    return total


def etw_term_min(ch: ChannelMatrix, t: BoundTerm) -> Tuple[float, Tuple[complex, ...]]:
    """Minimize the genie term in closed form, one correlation per summand.

    Each correlation appears in exactly one summand, so the problem separates.
    Up to the constant -log2(v_g), a summand is
    log2(v_y v_g - |c0 + rho|^2) - log2(1 - |rho|^2), and Cauchy-Schwarz gives
    v_y v_g >= (1 + |c0|)^2, so _pair_rho returns its exact minimizer.
    A summand depends only on the pair (k, pi_k), so its data, its minimizer
    and its values at rho = 0 and at the minimizer are read from the
    channel's pair table (_etw_pairs), where each pair is computed once.
    rho = 0 and the minimizers are ranked by the sums of those values, rho = 0
    first on a tie, and re-scored through etw_term_value by _first_scored.
    """
    pairs = _etw_pairs(ch.entries, t)
    zero, best = tuple(0j for _ in pairs), tuple(p.rho for p in pairs)
    ranked = ([best, zero] if sum(p.at_rho for p in pairs) < sum(p.at_zero for p in pairs)
              else [zero, best])
    return _first_scored(ranked, lambda rhos: (etw_term_value(ch, t, rhos), rhos))


# ---------------------------------------------------------------------------
# region assembly

def _kra_orderings(ch: ChannelMatrix, subset: Tuple[int, ...],
                   perms: Sequence[Tuple[int, ...]]) -> Dict[Tuple[int, ...], tuple]:
    """kra_term_min of every ordering of subset that is not pruned, by ordering.

    Each ordering's candidates (_kra_start) are built once, here, and handed
    to its kra_term_min call; the chain covariances are built where they are
    read and not kept.  On three or more users, the orderings are solved in
    order of their starting value (stably), and each is passed the least
    value reported before it, so that a loser is pruned once its lower bound
    clears it.
    """
    terms = [BoundTerm(subset, perm) for perm in perms]
    starts = {t: _kra_start(ch, t) for t in terms}

    def start_value(t):  # the chain's value where the BFGS solve starts
        chain = _chain_covariances(_reduced_channel(ch, t))
        return _chain_value_grad(_floor_eig(starts[t][-1], EIG_FLOOR), chain)[0]
    if len(subset) >= 3:
        terms.sort(key=start_value)
    scored: Dict[Tuple[int, ...], tuple] = {}
    best = math.inf
    for t in terms:
        res = kra_term_min(ch, t, best, start=starts.pop(t))
        if res is not None:
            scored[t.perm] = res
            best = min(best, res[0])
    return scored


def region(ch: ChannelMatrix, *, families: Union[str, Sequence[str]] = FAMILIES,
           sum_rate_only: bool = False) -> BoundReport:
    """Evaluate the bound region: one retained inequality per subset.

    ``families`` holds family names, or is one comma-separated string of
    them; names are stripped, case-blind, and blanks and repeats are skipped.
    An unknown name or an empty list raises ValidationError.  For each subset
    the value is minimized over orderings and the requested families; the
    winning family and its witness are recorded.  A full region above
    K = FULL_REGION_MAX_K raises TooLarge.  In sum-rate-only mode only
    S = all users is evaluated (all orderings up to K = 8, natural order
    beyond that).  The winner among the orderings is the one with the least
    value, the lexicographically first on a tie.  KRA orderings of three or
    more users are solved in order of their starting value, and a solve is
    pruned (kra_term_min's prune_above) once its lower bound clears the least
    value reported before it by more than a round-off allowance: that
    ordering would have reported more, so it could neither win nor tie, and
    the reported values do not depend on the order in which orderings are
    solved.  kra_term_min is still called once per (subset, ordering).
    When every candidate of a term is refused, region raises the refusal of
    the first such term in solve order (subsets as above, families as given,
    orderings lexicographic on one or two users and by starting value on
    more): deterministic, but unlike the values, dependent on that order.
    """
    names = families.split(",") if isinstance(families, str) else families
    fams = tuple(dict.fromkeys(n.strip().upper() for n in names if n.strip()))
    for f in fams:
        if f not in FAMILIES:
            raise ValidationError(f"unknown bound family {f.lower()!r} (expected kra, etw)")
    if not fams:
        raise ValidationError("at least one bound family is required")
    K = ch.K
    if not sum_rate_only and K > FULL_REGION_MAX_K:
        raise TooLarge(f"full-region evaluation supports K <= {FULL_REGION_MAX_K}, got K={K}; "
                       "use sum-rate-only mode (--sum-rate-only) for larger channels")

    users = tuple(range(1, K + 1))
    subsets = [users] if sum_rate_only else [
        c for n in range(1, K + 1) for c in combinations(users, n)]

    inequalities = []
    per_family_sum_rate: Dict[str, float] = {}

    for subset in subsets:
        perms = list(permutations(subset)) if K <= ENUM_MAX_K else [subset]
        best = None  # (value, family, witness dict)
        for fam in fams:
            if fam == FAMILY_KRA:
                scored = {perm: (val, {"perm": perm, "sigma": noise.sigma}) for perm, (val, noise)
                          in _kra_orderings(ch, subset, perms).items()}
            else:
                scored = {}
                for perm in perms:
                    val, rhos = etw_term_min(ch, BoundTerm(subset, perm))
                    scored[perm] = (val, {"perm": perm, "rhos": rhos})
            perm = min(scored, key=lambda p: (scored[p][0], p))  # the first ordering on a tie
            fam_best = (scored[perm][0], fam, scored[perm][1])
            if subset == users:
                per_family_sum_rate[fam_best[1]] = fam_best[0]
            if best is None or fam_best[0] < best[0]:
                best = fam_best
        inequalities.append(RateInequality(
            subset=subset, value_bits=best[0], family=best[1], witness=best[2]))

    sum_rate_upper = min(per_family_sum_rate.values())
    lower: Dict[str, float] = {"TIN": tin_sum_rate_general(ch)}
    if mac_feasibility(ch).feasible:
        lower["SUCC_DEC"] = tin_sum_rate(ch)

    consistent = sum_rate_upper >= max(lower.values()) - 1e-9
    config_echo = {"families": list(fams), "sum_rate_only": sum_rate_only}
    return BoundReport(channel=ch, inequalities=tuple(inequalities),
                       sum_rate_upper=sum_rate_upper,
                       per_family_sum_rate=per_family_sum_rate,
                       lower_bounds=lower, config=config_echo,
                       consistent=bool(consistent))
