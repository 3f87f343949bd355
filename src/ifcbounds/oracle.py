"""Independent validation paths for the bound engine.

Nothing here sits on the main computation path.  The Monte-Carlo estimator
checks a law's root and the QR route by sampling R^H w, w white, R a QR
factor of the queried rows of the root, under eigen-solved conditional
densities; the four-entropy identity recomputes conditional information from
eigenvalue sums of four blocks of M M^H, independent of that route; the exhaustive grid checks
the local optimizer on terms of at most three users, on a channel of any
size, through one explicit 1x1/2x2/3x3 determinant evaluator shared by its
scan and its refinement.

Sampling uses a counter-based generator (Philox) driving inverse-CDF normals,
a portable, named recipe: u ~ U(0,1), z = (ndtri(u1) + i ndtri(u2)) / sqrt(2).
scipy (``ndtri``, and ``minimize`` for the grid's refinement) is imported in
the functions that use it, so importing the package does not load it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .errors import LabelOverlap, SingularCovariance, TooLarge, ValidationError
from .gaussian_info import LOG2PIE, _check_disjoint
from .model import ChannelMatrix, JointGaussian, NoiseCorrelation
from .outer_bound import BoundTerm, _embed_sigma, _reduced_channel

_LN2 = float(np.log(2.0))

#: samples are drawn and reduced in fixed-size blocks so results are
#: bit-reproducible regardless of n_samples rounding
CHUNK = 1 << 17

MIN_SAMPLES = 10_000


def _entropy_eig(j: JointGaussian, labels: Sequence[str]) -> float:
    """Differential entropy via the eigenvalue sum (no QR, no slogdet)."""
    labels = list(labels)
    if not labels:
        return 0.0
    rows = j.root[j.indices(labels)]
    w = np.linalg.eigvalsh(rows @ rows.conj().T)
    if w[0] <= 1e-12 * max(1.0, float(w[-1])):
        raise SingularCovariance(f"eigenvalue {w[0]:.3e} too small for entropy of {labels}")
    return len(labels) * LOG2PIE + float(np.sum(np.log2(w)))


def entropy_identity_mi(j: JointGaussian, a: Sequence[str], b: Sequence[str],
                        c: Sequence[str] = ()) -> float:
    """I(A;B|C) = h(A,C) + h(B,C) - h(C) - h(A,B,C), eigenvalue route."""
    a, b, c = list(a), list(b), list(c)
    _check_disjoint(a, b, c)
    return (_entropy_eig(j, a + c) + _entropy_eig(j, b + c)
            - _entropy_eig(j, c) - _entropy_eig(j, a + b + c))


# ---------------------------------------------------------------------------
# Monte-Carlo estimator

def _conditional_pieces(cov: np.ndarray, ia: List[int], icond: List[int]):
    """(regression matrix, precision of the conditional cov, its log2 det).

    Eigen-based throughout so this path shares nothing with the QR route.
    """
    s_a = cov[np.ix_(ia, ia)]
    if icond:
        s_c = cov[np.ix_(icond, icond)]
        s_ac = cov[np.ix_(ia, icond)]
        wc, vc = np.linalg.eigh(s_c)
        good = wc > 1e-12 * max(1.0, float(wc[-1]))
        pinv_c = (vc[:, good] / wc[good]) @ vc[:, good].conj().T
        w_reg = s_ac @ pinv_c
        s_cond = s_a - w_reg @ s_ac.conj().T
    else:
        w_reg = np.zeros((len(ia), 0), dtype=complex)
        s_cond = s_a
    s_cond = (s_cond + s_cond.conj().T) / 2.0
    w, v = np.linalg.eigh(s_cond)
    if w[0] <= 1e-12 * max(1.0, float(w[-1])):
        raise SingularCovariance("conditional covariance in the sampler is singular")
    precision = (v / w) @ v.conj().T
    return w_reg, precision, float(np.sum(np.log2(w)))


def mc_mutual_information(j: JointGaussian, a: Sequence[str], b: Sequence[str],
                          c: Sequence[str], n_samples: int,
                          seed: int) -> Tuple[float, float]:
    """Sample-mean estimate of I(A;B|C) with its standard error (bits).

    Per sample, the exact conditional Gaussian densities give
    log2 p(A|B,C) - log2 p(A|C); the estimator validates the law's root and
    conditioning chain, not the entropy formula.
    """
    a, b, c = list(a), list(b), list(c)
    if not a or not b:
        raise LabelOverlap("A and B must be nonempty")
    _check_disjoint(a, b, c)
    if n_samples < MIN_SAMPLES:
        raise ValidationError(f"n_samples must be at least {MIN_SAMPLES}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")

    labels = a + b + c
    rows = j.root[j.indices(labels)]
    cov = rows @ rows.conj().T
    # the rows' triangular root, rows rows^H = R^H R, with R's diagonal turned
    # real and positive: R^H is then cov's Cholesky factor, so a seed draws the
    # same samples whichever root the law holds
    R = np.linalg.qr(rows.conj().T, mode="r")
    R *= np.exp(-1j * np.angle(np.diagonal(R)))[:, None]
    d = len(labels)
    ia = list(range(len(a)))
    ib = list(range(len(a), len(a) + len(b)))
    ic = list(range(len(a) + len(b), d))

    w_c, p_c, ld_c = _conditional_pieces(cov, ia, ic)
    w_bc, p_bc, ld_bc = _conditional_pieces(cov, ia, ib + ic)

    from scipy.special import ndtri
    gen = np.random.Generator(np.random.Philox(seed))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(CHUNK, n_samples - done)
        u = gen.random((2, m, R.shape[0]))
        np.clip(u, 1e-15, 1.0 - 1e-15, out=u)
        z = (ndtri(u[0]) + 1j * ndtri(u[1])) / np.sqrt(2.0)
        samp = z @ R.conj()  # each row R^H w for white w
        va = samp[:, ia]
        r_c = va - samp[:, ic] @ w_c.T
        r_bc = va - samp[:, ib + ic] @ w_bc.T
        q_c = np.einsum("ni,ij,nj->n", r_c.conj(), p_c, r_c).real
        q_bc = np.einsum("ni,ij,nj->n", r_bc.conj(), p_bc, r_bc).real
        ratio = (q_c - q_bc) / _LN2 + (ld_c - ld_bc)
        total += float(np.sum(ratio))
        total_sq += float(np.sum(ratio * ratio))
        done += m

    mean = total / n_samples
    var = max(0.0, total_sq / n_samples - mean * mean)
    return mean, float(np.sqrt(var / n_samples))


# ---------------------------------------------------------------------------
# exhaustive grid over the noise-correlation angles (subset sizes 1..3)
#
# Sigma = L L^H with L lower triangular and every row on the unit sphere, the
# row directions encoded hypersphere-style: row k (k >= 2) carries k-1 polar
# angles theta in [THETA_MIN, pi/2] and k-1 phases.  theta = pi/2 everywhere
# is the identity.  The theta floor keeps the matrix strictly nonsingular
# (row correlations at most 1 - 1e-6); exactly singular couplings make the
# term diverge, so nothing of value is excised.

#: smallest polar angle of the grid; cos(THETA_MIN) = 1 - 1e-6
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

    def rows(self, x) -> List[list]:
        """Rows of L, row k holding its k + 1 entries (the last one real).

        Row k reads its k polar angles and then its k phases from x; the
        angles may be arrays, and the entries then broadcast.
        """
        out, pos = [[1.0]], 0
        for m in range(1, self.dim):
            row, run = [], 1.0
            for th, ph in zip(x[pos:pos + m], x[pos + m:pos + 2 * m]):
                row.append(np.exp(1j * ph) * np.cos(th) * run)
                run = run * np.sin(th)
            out.append(row + [run])
            pos += 2 * m
        return out

    def sigma(self, x: np.ndarray) -> np.ndarray:
        L = np.zeros((self.dim, self.dim), dtype=complex)
        for k, row in enumerate(self.rows(x)):
            L[k, :k + 1] = row
        s = L @ L.conj().T
        np.fill_diagonal(s, 1.0)
        return s


def _det2(d1, d2, e12):
    return d1 * d2 - np.abs(e12) ** 2


def _det3(d1, d2, d3, e12, e13, e23):
    return (d1 * d2 * d3 + 2.0 * (e12 * e23 * np.conj(e13)).real
            - d1 * np.abs(e23) ** 2 - d2 * np.abs(e13) ** 2 - d3 * np.abs(e12) ** 2)


def _lead_det(d, e, n: int):
    """det of the leading n x n block (n <= 3) of the Hermitian matrix with
    diagonal d and entries e[i, j] above it."""
    if n < 2:
        return d[0] if n else 1.0
    if n == 2:
        return _det2(d[0], d[1], e[0, 1])
    return _det3(d[0], d[1], d[2], e[0, 1], e[0, 2], e[1, 2])


def _explicit_value(Hr: np.ndarray, L: List[list]):
    """Telescoped term value at Sigma = L L^H, L given by its rows.

    Each k-th top block is Sigma_k plus the Gram matrix of Hr[:k, k-1:], and
    its bottom block is the leading (k-1) x (k-1) corner of it; det Sigma is
    the product of L's squared diagonal.  Array entries broadcast, and points
    off the cone give inf.
    """
    s = Hr.shape[0]
    sig = {(i, j): sum(L[i][k] * np.conj(L[j][k]) for k in range(i + 1))
           for j in range(s) for i in range(j)}
    val, ok, det_sigma = 0.0, True, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, s + 1):
            tail = Hr[:k, k - 1:]
            m = tail @ tail.conj().T
            d = [1.0 + m[i, i].real for i in range(k)]
            e = {(i, j): v + m[i, j] for (i, j), v in sig.items() if j < k}
            top, bot = _lead_det(d, e, k), _lead_det(d, e, k - 1)
            ok = ok & (bot > 0) & (top > 0)
            val = val + np.log2(top) - np.log2(bot)
            det_sigma = det_sigma * L[k - 1][k - 1] ** 2
        return np.where(ok & (det_sigma > 0), val - np.log2(det_sigma), np.inf)


def grid_min_sigma(ch: ChannelMatrix, t: BoundTerm,
                   resolution: int) -> Tuple[float, NoiseCorrelation]:
    """Exhaustive scan of the noise-correlation angles plus local refinement.

    Supports terms of up to 3 users on any K (2 angle parameters for size 2,
    6 for size 3).  Vectorized with explicit Hermitian determinant formulas,
    so it shares no evaluation code with the BFGS solve it validates.
    """
    if t.size > 3:
        raise TooLarge("grid search supports at most 3 users")
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    s = t.size
    if s == 2 and resolution > 2000:
        raise TooLarge("resolution capped at 2000 for 2-user grids")
    if s == 3 and resolution > 32:
        raise TooLarge("resolution capped at 32 for 3-user grids")
    Hr = _reduced_channel(ch, t)
    par = CorrelationAngles(s)

    from itertools import product
    # pi/2 (identity) first so a resolution-1 grid degenerates to it
    th = np.linspace(np.pi / 2, THETA_MIN, resolution)
    ph = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    # the earlier rows' angles are scanned in an outer loop; the last row's
    # (theta_j, phi_j) axes are evaluated as one broadcast batch per iteration
    last = np.ix_(*[th, ph] * (s - 1))
    last_x = list(last[0::2]) + list(last[1::2])
    shape = (resolution,) * len(last)
    earlier = [ax for m in range(1, s - 1) for ax in [th] * m + [ph] * m]
    candidates: List[Tuple[float, np.ndarray]] = []
    for head in product(*earlier):
        vals = _explicit_value(Hr, par.rows(list(head) + last_x))
        vals = np.broadcast_to(vals, shape).ravel()
        # the five best cells of a 2-user grid, the best cell per batch otherwise
        best = np.argsort(vals, kind="stable")[:5] if s == 2 else [int(np.argmin(vals))]
        for fi in best:
            idx = np.unravel_index(fi, shape)
            x = np.array([*head, *th[list(idx[0::2])], *ph[list(idx[1::2])]])
            candidates.append((float(vals[fi]), x))

    candidates.sort(key=lambda cv: cv[0])
    best_val, best_x = candidates[0]
    if resolution > 1 and s > 1:  # a point probe or a singleton: nothing to refine
        from scipy.optimize import minimize
        for v0, x0 in candidates[:5]:
            res = minimize(lambda x: float(_explicit_value(Hr, par.rows(x))), x0,
                           method="Nelder-Mead", bounds=par.search_bounds,
                           options={"maxfev": 4000, "xatol": 1e-9, "fatol": 1e-12})
            if np.isfinite(res.fun) and res.fun < best_val:
                best_val, best_x = float(res.fun), res.x
    return best_val, _embed_sigma(par.sigma(best_x), t, ch.K)
