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
KRA term on a pair of users -- is solved in closed form (``_pair_rho``).
KRA terms on three or more users are minimized derivative-free (Nelder-Mead)
with seeded multi-start over a hyperspherical angle parameterization that
keeps the noise correlation feasible by construction.  A key reduction used
throughout: conditioning on the inputs outside S makes a term depend only on
the |S| x |S| subchannel H[pi, pi] and the matching block of the noise
correlation, so every search runs in the reduced space and the witness is
embedded back at the end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from .achievability import mac_feasibility, tin_sum_rate, tin_sum_rate_general
from .errors import (
    BudgetExhaustedWarning,
    InternalConsistencyError,
    SingularCovariance,
    TooLarge,
    ValidationError,
)
from .gaussian_info import (
    LOG2PIE,
    RHO_CAP,
    GenieSpec,
    build_joint,
    conditional_entropy,
    conditional_mi,
)
from .model import (
    BoundReport,
    ChannelMatrix,
    NoiseCorrelation,
    RateInequality,
    identity_noise,
    validate_noise_correlation,
)

FAMILY_KRA = "KRA"
FAMILY_ETW = "ETW"
FAMILIES = (FAMILY_KRA, FAMILY_ETW)

#: full (subset, permutation) enumeration is capped here; the count grows
#: like floor(e * K!) - 1
ENUM_MAX_K = 8

_LN2 = float(np.log(2.0))


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


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 8
    max_evals: int = 2000
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.restarts < 1 or self.max_evals < 1:
            raise ValidationError("optimizer counts must be positive")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")


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
# noise-correlation parameterization
#
# Sigma = L L^H with L lower triangular and every row on the unit sphere, the
# row directions encoded hypersphere-style: row k (k >= 2) carries k-1 polar
# angles theta in [THETA_MIN, pi/2] and k-1 phases.  theta = pi/2 everywhere
# is the identity.  The theta floor keeps the matrix strictly nonsingular
# (row correlations at most 1 - 1e-6); exactly singular couplings make the
# term diverge, so nothing of value is excised.

#: smallest polar angle the optimizer may visit; cos(THETA_MIN) = 1 - 1e-6
THETA_MIN = float(np.arccos(1.0 - 1e-6))


class CorrelationAngles:
    def __init__(self, dim: int):
        self.dim = dim
        self.n_params = dim * (dim - 1)
        lo, hi = [], []
        for k in range(2, dim + 1):
            lo += [THETA_MIN] * (k - 1) + [0.0] * (k - 1)
            hi += [np.pi / 2] * (k - 1) + [2 * np.pi] * (k - 1)
        self.bounds = list(zip(lo, hi))
        # sigma is 2*pi-periodic in every phase, but a box-constrained simplex
        # cannot cross the wrap: a minimum just below phase 0 is unreachable
        # from a start at phase 0.  Searches therefore get a box widened by a
        # full period on each side; sampling stays on self.bounds.
        self.search_bounds = [
            (l, h) if h <= np.pi else (l - 2 * np.pi, h + 2 * np.pi)
            for l, h in self.bounds
        ]

    def identity_x(self) -> np.ndarray:
        x = []
        for k in range(2, self.dim + 1):
            x += [np.pi / 2] * (k - 1) + [0.0] * (k - 1)
        return np.array(x)

    def factor(self, x: np.ndarray) -> np.ndarray:
        L = np.eye(self.dim, dtype=complex)
        pos = 0
        for k in range(2, self.dim + 1):
            m = k - 1
            th = x[pos:pos + m]
            ph = x[pos + m:pos + 2 * m]
            pos += 2 * m
            run = 1.0
            for j in range(m):
                L[k - 1, j] = np.exp(1j * ph[j]) * np.cos(th[j]) * run
                run *= np.sin(th[j])
            L[k - 1, k - 1] = run
        return L

    def sigma(self, x: np.ndarray) -> np.ndarray:
        L = self.factor(x)
        s = L @ L.conj().T
        np.fill_diagonal(s, 1.0)
        return s

    def from_sigma(self, sigma: np.ndarray) -> np.ndarray:
        """Angles reproducing sigma (up to the unidentifiable tail of a
        collapsed row); a tiny diagonal jitter keeps Cholesky alive on
        boundary matrices."""
        d = self.dim
        mat = np.array(sigma, dtype=complex)
        for jitter in (0.0, 1e-12, 1e-9):
            try:
                L = np.linalg.cholesky(mat + jitter * np.eye(d))
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise ValidationError("correlation matrix is too far from PSD to factor")
        x = []
        for k in range(2, d + 1):
            row = L[k - 1, :k]
            row = row / np.linalg.norm(row)
            run = 1.0
            for j in range(k - 1):
                if run < 1e-14:
                    x += [np.pi / 2]
                    continue
                c = min(1.0, abs(row[j]) / run)
                th = float(np.arccos(c))
                x += [th]
                run *= np.sin(th)
            for j in range(k - 1):
                x += [float(np.angle(row[j])) % (2 * np.pi)]
        return np.array(x)


# ---------------------------------------------------------------------------
# fast evaluation of the correlated-noise term
#
# With users relabeled so pi is the natural order, the term telescopes into
# log-dets of leading blocks of Sigma shifted by fixed Gram matrices:
#
#   value(Sigma) = sum_k [ ld|Sigma_k + A_k| - ld|Sigma_{k-1} + B_k| ] - ld|Sigma|
#
# where A_k = Hr[:k, k-1:] Hr[:k, k-1:]^H and B_k drops the last row of that
# slice.  The pi*e factors of the entropies cancel exactly.

def _term_grams(Hr: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    s = Hr.shape[0]
    A, B = [], []
    for k in range(1, s + 1):
        tail = Hr[:k, k - 1:]
        A.append(tail @ tail.conj().T)
        B.append(tail[:-1] @ tail[:-1].conj().T)
    return A, B


def _ld(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    sign, val = np.linalg.slogdet(mat)
    if not np.isfinite(val) or sign.real <= 0:
        return -np.inf
    return val / _LN2


def _lean_kra_value(sigma: np.ndarray, grams) -> float:
    A, B = grams
    s = sigma.shape[0]
    total = 0.0
    for k in range(1, s + 1):
        top = _ld(sigma[:k, :k] + A[k - 1])
        bot = _ld(sigma[:k - 1, :k - 1] + B[k - 1])
        if not np.isfinite(top) or not np.isfinite(bot):
            return np.inf
        total += top - bot
    den = _ld(sigma)
    if not np.isfinite(den):
        return np.inf
    return total - den


def kra_term_value(ch: ChannelMatrix, noise: NoiseCorrelation, t: BoundTerm) -> float:
    """Correlated-noise bound term at a fixed noise correlation (bits).

    Reference path: assembles the joint law and sums the defining conditional
    mutual informations; the optimizer uses the telescoped log-det form and is
    checked against this one.
    """
    if max(t.subset) > ch.K or noise.K != ch.K:
        raise ValidationError("term/noise dimensions do not match the channel")
    j = build_joint(ch, noise)
    outside = [f"X{i}" for i in range(1, ch.K + 1) if i not in t.subset]
    total = 0.0
    perm = t.perm
    s = len(perm)
    for k in range(s):
        a = [f"Y{perm[k]}"]
        b = [f"X{perm[i]}" for i in range(k, s)]
        c = ([f"X{perm[i]}" for i in range(k)]
             + [f"Y{perm[i]}" for i in range(k)] + outside)
        total += conditional_mi(j, a, b, c)
    return total


def _warm_sigma_candidate(Hr: np.ndarray) -> Optional[np.ndarray]:
    """Invert the coupling recursion on the reduced channel's upper triangle.

    For channels built from a noise correlation this recovers that matrix
    exactly, which is the exact minimizer; used purely as a warm start, so a
    non-PSD result is simply discarded.
    """
    s = Hr.shape[0]
    sigma = np.eye(s, dtype=complex)
    for k in range(s, 1, -1):
        tail = Hr[k - 1, k:]
        t2 = float(np.sum(np.abs(tail) ** 2))
        col = ((1.0 + t2) / Hr[k - 1, k - 1].real) * Hr[:k - 1, k - 1]
        if tail.size:
            col = col - Hr[:k - 1, k:] @ tail.conj()
        sigma[:k - 1, k - 1] = col
        sigma[k - 1, :k - 1] = col.conj()
    w = np.linalg.eigvalsh(sigma)
    if w[0] < -1e-10:
        return None
    return sigma


def _pair_rho(p: float, c: complex) -> complex:
    """Exact minimizer of log2(p - |c + rho|^2) - log2(1 - |rho|^2) over |rho| <= RHO_CAP.

    rho takes the phase of c; its magnitude is the smaller root of
    |c| r^2 - (p - |c|^2 - 1) r + |c| = 0.  Both roots are real, with product
    1, whenever p >= (1 + |c|)^2, which every caller guarantees; at equality
    the objective falls all the way to |rho| = 1 and the cap binds.
    """
    a = abs(c)
    if a == 0.0:
        return 0j
    b = p - a * a - 1.0
    r = min(2.0 * a / (b + math.sqrt(max(b * b - 4.0 * a * a, 0.0))), RHO_CAP)
    rho = r * (c / a)
    while abs(rho) > RHO_CAP:  # the unit phase factor can round |rho| past the cap
        rho *= 1.0 - 2.0 ** -52
    return complex(rho)


def kra_term_min(ch: ChannelMatrix, t: BoundTerm,
                 cfg: OptimizerConfig) -> Tuple[float, NoiseCorrelation]:
    """Minimize the correlated-noise term over the noise correlation.

    Pairs (|S| = 2) are solved in closed form: the only free entry rho of
    Sigma enters as log2 det(Sigma + A_2) - log2 det(Sigma), which is the
    _pair_rho objective with p = (1 + A_00)(1 + A_11) and c = A_01.  For
    |S| >= 3 a seeded multi-start Nelder-Mead runs in the angle
    parameterization; starts are the identity, the recursion-inverted warm
    start when it is feasible, and random draws.  The identity is always a
    candidate, and every candidate is re-scored through kra_term_value so the
    returned value sits on the same code path as any caller comparison.
    """
    Hr = _reduced_channel(ch, t)
    s = Hr.shape[0]
    if s == 1:
        noise = identity_noise(ch.K)
        return kra_term_value(ch, noise, t), noise

    grams = _term_grams(Hr)
    candidate_sigmas: List[np.ndarray] = [np.eye(s, dtype=complex)]
    if s == 2:
        A = grams[0][1]
        rho = _pair_rho((1.0 + A[0, 0].real) * (1.0 + A[1, 1].real), complex(A[0, 1]))
        candidate_sigmas.append(np.array([[1.0, rho], [rho.conjugate(), 1.0]]))
    else:
        candidate_sigmas += _multistart_sigmas(Hr, grams, t, cfg)

    best_val, best_sigma = np.inf, None
    for sig in candidate_sigmas:
        noise = _embed_sigma(sig, t, ch.K)
        try:
            val = kra_term_value(ch, noise, t)
        except (SingularCovariance, InternalConsistencyError):
            # a candidate that lands on (or numerically past) the boundary of
            # the PSD cone is worthless as a witness, not a caller error
            continue
        if val < best_val:
            best_val, best_sigma = val, noise
    return best_val, best_sigma


def _multistart_sigmas(Hr: np.ndarray, grams, t: BoundTerm,
                       cfg: OptimizerConfig) -> List[np.ndarray]:
    """Warm start and simplex end points of the |S| >= 3 correlation search."""
    s = Hr.shape[0]
    par = CorrelationAngles(s)
    fun = lambda x: _lean_kra_value(par.sigma(x), grams)

    candidate_sigmas: List[np.ndarray] = []
    starts: List[np.ndarray] = [par.identity_x()]

    warm = _warm_sigma_candidate(Hr)
    if warm is not None:
        candidate_sigmas.append(warm)
        starts.append(par.from_sigma(warm))

    rng = np.random.default_rng([cfg.seed, 1, *t.perm])
    while len(starts) < cfg.restarts:
        lo = np.array([b[0] for b in par.bounds])
        hi = np.array([b[1] for b in par.bounds])
        starts.append(rng.uniform(lo, hi))

    finals = []
    for x0 in starts:
        res = minimize(fun, x0, method="Nelder-Mead", bounds=par.search_bounds,
                       options={"maxfev": cfg.max_evals, "xatol": 1e-6,
                                "fatol": cfg.tolerance,
                                "adaptive": par.n_params > 6})
        if np.isfinite(res.fun):
            finals.append(res.fun)
            candidate_sigmas.append(par.sigma(res.x))

    if finals and (max(finals) - min(finals)) > 1e-3:
        warnings.warn(BudgetExhaustedWarning(
            f"restarts for term {t.perm} spread {max(finals) - min(finals):.2e} bits; "
            f"consider more restarts or evaluations"))
    return candidate_sigmas


# ---------------------------------------------------------------------------
# genie family

def _etw_summand_data(H: np.ndarray, k: int, m: int) -> Tuple[float, float, complex]:
    """(output variance, genie variance, signal cross term) for pair (k, m), 1-based."""
    vy = 1.0 + float(np.sum(np.abs(H[k - 1]) ** 2))
    row = H[m - 1].copy()
    row[m - 1] = 0.0
    vg = 1.0 + float(np.sum(np.abs(row) ** 2))
    c0 = complex(np.vdot(row, H[k - 1]))  # sum_i h_{k,i} conj(h_{m,i}), i != m
    return vy, vg, c0


def _etw_summand(rho: complex, vy: float, vg: float, c0: complex) -> float:
    num = vy - abs(c0 + rho) ** 2 / vg
    den = 1.0 - abs(rho) ** 2
    if num <= 0 or den <= 0:
        return np.inf
    return float(np.log2(num) - np.log2(den))


def etw_term_value(ch: ChannelMatrix, t: BoundTerm, rhos: Sequence[complex]) -> float:
    """Genie bound term at fixed genie-noise correlations (bits).

    Summand for k in S (ascending), partnered with m = pi_k:
    h(Y_k | G_m) - h(G_m | Y_k, X_1..X_K).  The second entropy has the exact
    closed form log2(pi e (1 - |rho|^2)); both routes are computed and checked
    against each other, which pins the covariance assembly.
    """
    if len(rhos) != t.size:
        raise ValidationError(f"need {t.size} genie correlations, got {len(rhos)}")
    if max(t.subset) > ch.K:
        raise ValidationError("term references users beyond the channel size")
    genies = [GenieSpec(target=m, rho=complex(r), paired_with=k)
              for k, m, r in zip(t.subset, t.perm, rhos)]
    j = build_joint(ch, identity_noise(ch.K), genies)
    all_x = [f"X{i}" for i in range(1, ch.K + 1)]
    total = 0.0
    for k, m, r in zip(t.subset, t.perm, rhos):
        first = conditional_entropy(j, [f"Y{k}"], [f"G{m}"])
        second = conditional_entropy(j, [f"G{m}"], [f"Y{k}"] + all_x)
        residual = 1.0 - abs(r) ** 2
        closed = LOG2PIE + float(np.log2(residual))
        # The Schur route recovers ``residual`` by subtracting O(1) covariance
        # entries, so its log-domain error grows like eps/residual as |rho|
        # approaches the cap; keep the check strict where doubles allow it.
        tol = 1e-10 + 32.0 * np.finfo(float).eps / residual
        if abs(second - closed) > tol:
            raise InternalConsistencyError(
                f"residual genie entropy mismatch: schur {second!r} vs closed form {closed!r}")
        total += first - second
    return total


def etw_term_min(ch: ChannelMatrix, t: BoundTerm) -> Tuple[float, Tuple[complex, ...]]:
    """Minimize the genie term in closed form, one correlation per summand.

    Each correlation appears in exactly one summand, so the problem separates.
    Up to the constant -log2(v_g), a summand is
    log2(v_y v_g - |c0 + rho|^2) - log2(1 - |rho|^2), and Cauchy-Schwarz gives
    v_y v_g >= (1 + |c0|)^2, so _pair_rho returns its exact minimizer.
    rho = 0 is always scored as a candidate, making the classical uncorrelated
    choice an exact upper bound on the result.
    """
    best_rhos = []
    for k, m in zip(t.subset, t.perm):
        vy, vg, c0 = _etw_summand_data(ch.entries, k, m)
        best_rhos.append(_pair_rho(vy * vg, c0))

    zeros = tuple(0.0 + 0.0j for _ in range(t.size))
    v_zero = etw_term_value(ch, t, zeros)
    v_best = etw_term_value(ch, t, tuple(best_rhos))
    if v_zero <= v_best:
        return v_zero, zeros
    return v_best, tuple(best_rhos)


# ---------------------------------------------------------------------------
# region assembly

def region(ch: ChannelMatrix, cfg: OptimizerConfig,
           families: Sequence[str] = FAMILIES,
           sum_rate_only: bool = False) -> BoundReport:
    """Evaluate the bound region: one retained inequality per subset.

    For each subset the value is minimized over orderings and requested
    families; the winning family and its witness are recorded.  In
    sum-rate-only mode only S = all users is evaluated (all orderings up to
    K = 8, natural order beyond that).
    """
    fams = tuple(dict.fromkeys(f.upper() for f in families))
    for f in fams:
        if f not in FAMILIES:
            raise ValidationError(f"unknown bound family {f!r}")
    if not fams:
        raise ValidationError("at least one bound family is required")
    K = ch.K

    if sum_rate_only:
        full = tuple(range(1, K + 1))
        if K <= ENUM_MAX_K:
            terms = [BoundTerm(full, p) for p in permutations(full)]
        else:
            terms = [BoundTerm(full, full)]
    else:
        terms = enumerate_terms(K)

    by_subset: Dict[Tuple[int, ...], List[BoundTerm]] = {}
    for t in terms:
        by_subset.setdefault(t.subset, []).append(t)

    caught: List[str] = []
    inequalities = []
    per_family_sum_rate: Dict[str, float] = {}
    full_subset = tuple(range(1, K + 1))

    with warnings.catch_warnings(record=True) as wrec:
        warnings.simplefilter("always", BudgetExhaustedWarning)
        for subset in sorted(by_subset, key=lambda s: (len(s), s)):
            best = None  # (value, family, witness dict)
            for fam in fams:
                fam_best = None
                for t in by_subset[subset]:
                    if fam == FAMILY_KRA:
                        val, noise = kra_term_min(ch, t, cfg)
                        wit = {"perm": t.perm, "sigma": noise.sigma}
                    else:
                        val, rhos = etw_term_min(ch, t)
                        wit = {"perm": t.perm, "rhos": rhos}
                    if fam_best is None or val < fam_best[0]:
                        fam_best = (val, fam, wit)
                if subset == full_subset:
                    per_family_sum_rate[fam_best[1]] = fam_best[0]
                if best is None or fam_best[0] < best[0]:
                    best = fam_best
            inequalities.append(RateInequality(
                subset=subset, value_bits=best[0], family=best[1], witness=best[2]))
    caught = [str(w.message) for w in wrec]

    sum_rate_upper = min(per_family_sum_rate.values())
    lower: Dict[str, float] = {"TIN": tin_sum_rate_general(ch)}
    try:
        mac = mac_feasibility(ch)
        if mac.feasible:
            lower["SUCC_DEC"] = tin_sum_rate(ch)
    except TooLarge:
        caught.append("MAC feasibility skipped: too many users for subset enumeration")

    consistent = sum_rate_upper >= max(lower.values()) - 1e-9
    config_echo = {"seed": cfg.seed, "restarts": cfg.restarts, "max_evals": cfg.max_evals,
                   "tolerance": cfg.tolerance, "families": list(fams),
                   "sum_rate_only": sum_rate_only}
    return BoundReport(channel=ch, inequalities=tuple(inequalities),
                       sum_rate_upper=sum_rate_upper,
                       per_family_sum_rate=per_family_sum_rate,
                       lower_bounds=lower, config=config_echo,
                       consistent=bool(consistent), warnings=tuple(caught))
