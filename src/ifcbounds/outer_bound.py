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
KRA term on a pair of users -- is solved in closed form (``_pair_rho``).  An
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
loads scipy.  Candidates are ranked by these fast forms and re-scored in
that order through the reference route (``kra_term_value`` /
``etw_term_value``) until one is accepted (``_first_scored``).  A key
reduction used throughout: conditioning on the inputs outside S makes a term
depend only on the |S| x |S| subchannel H[pi, pi] and the matching block of
the noise correlation, so every search runs in the reduced space and the
witness is embedded back at the end.  Both reference routes read QR pivots of
a square root: ETW's of the genie law's (``build_joint``), KRA's, and
``certify``'s KRA re-check (``_bound_at_coupling``), of the reduced law's.
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
    LOG2PIE,
    RHO_CAP,
    GenieSpec,
    build_joint,
    pivot_log2det,
    refuse_lost_pivots,
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
    """End point of a BFGS solve, its objective evaluations and iterations."""

    x: np.ndarray
    nfev: int
    nit: int


def minimize(fun: Callable, x0: np.ndarray) -> Solve:
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
    """
    x = np.asarray(x0, dtype=float)
    f, g = fun(x)
    nfev, nit = 1, 0
    H = np.eye(x.size)
    f_prev = f + np.linalg.norm(g) / 2.0
    while nit < BFGS_MAXITER and np.max(np.abs(g)) > BFGS_GTOL:
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
# fast evaluation of the correlated-noise term
#
# With users relabeled so pi is the natural order, the term telescopes into
# log-dets of leading blocks of Sigma shifted by fixed Gram matrices:
#
#   value(Sigma) = sum_k [ ld|Sigma_k + A_k| - ld|Sigma_{k-1} + B_k| ] - ld|Sigma|
#
# where A_k = Hr[:k, k-1:] Hr[:k, k-1:]^H and B_k drops the last row of that
# slice.  The pi*e factors of the entropies cancel exactly.  Every block is
# padded to s x s with the identity, which changes neither its log-det nor
# the leading block of its inverse, so one batched call factors all of them.


class _TermBlocks(NamedTuple):
    """Block b of the telescoped value is masks[b] * Sigma + shifts[b],
    entering with sign signs[b]."""

    masks: np.ndarray
    shifts: np.ndarray
    signs: np.ndarray


def _term_tails(Hr: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """(block size n, Gram factor T) of each telescoped block Sigma_n + T T^H:
    the terms A_k, then B_k, then Sigma itself (T empty)."""
    s = Hr.shape[0]
    return ([(k, Hr[:k, k - 1:]) for k in range(1, s + 1)]
            + [(k - 1, Hr[:k - 1, k - 1:]) for k in range(2, s + 1)]
            + [(s, np.zeros((s, 0)))])


def _term_grams(Hr: np.ndarray) -> _TermBlocks:
    s = Hr.shape[0]
    masks = np.zeros((2 * s, s, s))
    shifts = np.tile(np.eye(s, dtype=complex), (2 * s, 1, 1))
    for b, (n, tail) in enumerate(_term_tails(Hr)):
        masks[b, :n, :n] = 1.0
        shifts[b, :n, :n] = tail @ tail.conj().T
    return _TermBlocks(masks, shifts, np.repeat([1.0, -1.0], s))


def _lean_kra_value_grad(sigma: np.ndarray,
                         grams: _TermBlocks) -> Tuple[float, Optional[np.ndarray]]:
    """Telescoped value (bits) and its gradient G in one pass over the blocks.

    G = [sum_k pad((Sigma_k + A_k)^-1) - sum_k pad((Sigma_{k-1} + B_k)^-1)
    - Sigma^-1] / ln 2 is Hermitian, with d value = Re tr(G dSigma).  Off the
    positive definite cone the value is inf and G is None.
    """
    mats = grams.masks * sigma + grams.shifts
    sign, logdet = np.linalg.slogdet(mats)
    if np.any(sign.real <= 0.0):
        return np.inf, None
    grad = np.einsum("b,bij->ij", grams.signs, grams.masks * np.linalg.inv(mats))
    return float(grams.signs @ logdet) / _LN2, grad / _LN2


def _bound_at_coupling(ch: ChannelMatrix, noise: NoiseCorrelation, t: BoundTerm) -> float:
    """Term t at ``noise`` by the telescoped form the solver ranks by, each
    block Sigma_n + T T^H of the reduced law read off a QR factor of its root
    [L_n | T], L L^H = Sigma[pi, pi], padded to |S| rows with unit rows so one
    batched QR serves every block: certify's re-check of kra_term_value.  It
    errs as eps times the gains, not their squares; a singular coupling raises
    SingularCovariance, as square_root does."""
    s = t.size
    root = square_root(ch, noise, t.perm)
    tails = _term_tails(root[s:, :s])
    roots = np.zeros((len(tails), s, 2 * s), dtype=complex)
    for b, (n, tail) in enumerate(tails):
        roots[b, :n, :n] = root[s:s + n, s:s + n]
        roots[b, n:, n:s] = np.eye(s - n)
        roots[b, :n, s:s + tail.shape[1]] = tail
    R = np.linalg.qr(roots.conj().transpose(0, 2, 1), mode="r")
    log2dets = 2.0 * np.sum(np.log2(np.abs(np.diagonal(R, axis1=1, axis2=2))), axis=1)
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
    rows = root[[i for k in range(s) for i in (s + k, k)][:-1]]
    squares = squared_pivots(rows)
    var = np.sum(rows.real ** 2 + rows.imag ** 2, axis=1)

    def given(k):  # the labels Y_pi_k is conditioned on
        return ([f"X{u}" for u in perm[:k]] + [f"Y{u}" for u in perm[:k]]
                + [f"X{i}" for i in range(1, ch.K + 1) if i not in perm])
    pivots = squares[0::2]
    refuse_lost_pivots(pivots, var[0::2], lambda k: ([f"Y{perm[k]}"], given(k)))
    for k in np.flatnonzero(squares[1::2] <= _EPS * var[1::2])[:1]:
        raise SingularCovariance(f"cov of {given(int(k) + 1)} is singular to working precision")
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


def _factored_value_grad(x: np.ndarray, grams) -> Tuple[float, np.ndarray]:
    """Telescoped value at Sigma = U U^H and its gradient in x = (Re V, Im V).

    With W = G U, row i of the V-gradient is 2 (w_i - Re<u_i, w_i> u_i) / |v_i|:
    the Sigma-gradient pulled back through U, projected off the row direction
    that the normalization discards.
    """
    s = grams.masks.shape[1]
    U, norms = _unit_rows(x, s)
    val, G = _lean_kra_value_grad(U @ U.conj().T, grams)
    if G is None:
        return val, np.zeros_like(x)
    W = G @ U
    radial = np.sum(U.conj() * W, axis=1).real
    dV = 2.0 * (W - radial[:, None] * U) / norms[:, None]
    return val, np.concatenate([dV.real.ravel(), dV.imag.ravel()])


def _factored_min_sigma(sigma0: np.ndarray, grams) -> np.ndarray:
    """End point of BFGS over the factored coupling Sigma = U U^H from sigma0."""
    s = sigma0.shape[0]
    V = np.linalg.cholesky(_floor_eig(sigma0, EIG_FLOOR))
    res = minimize(lambda x: _factored_value_grad(x, grams),
                   np.concatenate([V.real.ravel(), V.imag.ravel()]))
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


def kra_term_min(ch: ChannelMatrix, t: BoundTerm) -> Tuple[float, NoiseCorrelation]:
    """Minimize the correlated-noise term over the noise correlation.

    Pairs (|S| = 2) are solved in closed form: the only free entry rho of
    Sigma enters as log2 det(Sigma + A_2) - log2 det(Sigma), which is the
    _pair_rho objective with b = A_00 + A_11 (A has rank one) and c = A_01.  For
    |S| >= 3 the value is convex in Sigma (Diggavi & Cover 2001), so one BFGS
    start suffices: it runs over Sigma = U U^H, U = diag(1 / |v_i|) V with V a
    free complex matrix, from the recursion warm start if that is PSD, else
    from the identity, and its end point is blended toward the identity to
    the smallest eigenvalue EIG_FLOOR.  That, the identity, the pair coupling
    and the PSD warm start are ranked by the telescoped value (stably, so the
    identity wins ties) and re-scored through kra_term_value by _first_scored.
    """
    Hr = _reduced_channel(ch, t)
    s = Hr.shape[0]
    grams = _term_grams(Hr)
    candidates = [np.eye(s, dtype=complex)]
    if s == 2:
        tail = Hr[:, 1:]
        A = tail @ tail.conj().T
        rho = _pair_rho(A[0, 0].real + A[1, 1].real, complex(A[0, 1]))
        candidates.append(np.array([[1.0, rho], [rho.conjugate(), 1.0]]))
    elif s >= 3:
        warm = invert_coupling_recursion(Hr)  # exact for a constructed channel
        if warm is not None:
            candidates.append(warm)
        end = _factored_min_sigma(candidates[-1], grams)  # the warm start if PSD
        candidates.append(_floor_eig(end, EIG_FLOOR))
    candidates.sort(key=lambda sig: _lean_kra_value_grad(sig, grams)[0])

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
    |rho|^2)) bits.
    """
    if len(rhos) != t.size:
        raise ValidationError(f"need {t.size} genie correlations, got {len(rhos)}")
    genies = [GenieSpec(target=m, rho=complex(r), paired_with=k)
              for k, m, r in zip(t.subset, t.perm, rhos)]
    root = build_joint(ch, None, genies).root  # refuses users beyond K
    K = ch.K
    all_x = [f"X{i}" for i in range(1, K + 1)]
    total = 0.0
    for a, (k, m, r) in enumerate(zip(t.subset, t.perm, rhos)):
        y, g = K + k - 1, 2 * K + a
        first = LOG2PIE + pivot_log2det(root[[g, y]], [f"Y{k}"], [f"G{m}"])
        second = LOG2PIE + pivot_log2det(root[list(range(K)) + [y, g]], [f"G{m}"],
                                         all_x + [f"Y{k}"])
        residual = 1.0 - abs(r) ** 2
        closed = LOG2PIE + math.log2(residual)
        if abs(second - closed) > 32.0 * _EPS * math.sqrt(_norm2(root[g]) / residual):
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
    beyond that).
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
            fam_best = None
            for perm in perms:
                t = BoundTerm(subset, perm)
                if fam == FAMILY_KRA:
                    val, noise = kra_term_min(ch, t)
                    wit = {"perm": perm, "sigma": noise.sigma}
                else:
                    val, rhos = etw_term_min(ch, t)
                    wit = {"perm": perm, "rhos": rhos}
                if fam_best is None or val < fam_best[0]:
                    fam_best = (val, fam, wit)
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
