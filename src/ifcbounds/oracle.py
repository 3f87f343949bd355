"""Independent validation paths for the bound engine.

Nothing here sits on the main computation path.  The Monte-Carlo estimator
checks the covariance assembly and the Cholesky route by sampling; the
four-entropy identity recomputes conditional information from eigenvalue sums
of four joint blocks, independent of that route; the exhaustive grid checks
the local optimizer on small problems with explicit 1x1/2x2/3x3 determinants.

Sampling uses a counter-based generator (Philox) driving inverse-CDF normals,
a portable, named recipe: u ~ U(0,1), z = (ndtri(u1) + i ndtri(u2)) / sqrt(2).
scipy (``ndtri``, and ``minimize`` for the grid's refinement) is imported in
the functions that use it, so importing the package does not load it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .errors import LabelOverlap, SingularCovariance, TooLarge, ValidationError
from .gaussian_info import LOG2PIE
from .model import ChannelMatrix, JointGaussian, NoiseCorrelation
from .outer_bound import BoundTerm, _embed_sigma, _reduced_channel

_LN2 = float(np.log(2.0))

#: samples are drawn and reduced in fixed-size blocks so results are
#: bit-reproducible regardless of n_samples rounding
CHUNK = 1 << 17

MIN_SAMPLES = 10_000


def _entropy_eig(j: JointGaussian, labels: Sequence[str]) -> float:
    """Differential entropy via the eigenvalue sum (no Cholesky, no slogdet)."""
    labels = list(labels)
    if not labels:
        return 0.0
    idx = j.indices(labels)
    w = np.linalg.eigvalsh(j.cov[np.ix_(idx, idx)])
    if w[0] <= 1e-12 * max(1.0, float(w[-1])):
        raise SingularCovariance(f"eigenvalue {w[0]:.3e} too small for entropy of {labels}")
    return len(labels) * LOG2PIE + float(np.sum(np.log2(w)))


def entropy_identity_mi(j: JointGaussian, a: Sequence[str], b: Sequence[str],
                        c: Sequence[str] = ()) -> float:
    """I(A;B|C) = h(A,C) + h(B,C) - h(C) - h(A,B,C), eigenvalue route."""
    a, b, c = list(a), list(b), list(c)
    overlap = (set(a) & set(b)) | (set(a) & set(c)) | (set(b) & set(c))
    if overlap:
        raise LabelOverlap(f"label sets overlap: {sorted(overlap)}")
    return (_entropy_eig(j, a + c) + _entropy_eig(j, b + c)
            - _entropy_eig(j, c) - _entropy_eig(j, a + b + c))


# ---------------------------------------------------------------------------
# Monte-Carlo estimator

def _psd_factor(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def _conditional_pieces(cov: np.ndarray, ia: List[int], icond: List[int]):
    """(regression matrix, precision of the conditional cov, its log2 det).

    Eigen-based throughout so this path shares nothing with the Cholesky route.
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
    log2 p(A|B,C) - log2 p(A|C); the estimator validates the joint covariance
    and conditioning chain, not the entropy formula.
    """
    a, b, c = list(a), list(b), list(c)
    overlap = (set(a) & set(b)) | (set(a) & set(c)) | (set(b) & set(c))
    if not a or not b:
        raise LabelOverlap("A and B must be nonempty")
    if overlap:
        raise LabelOverlap(f"label sets overlap: {sorted(overlap)}")
    if n_samples < MIN_SAMPLES:
        raise ValidationError(f"n_samples must be at least {MIN_SAMPLES}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")

    labels = a + b + c
    idx = j.indices(labels)
    cov = j.cov[np.ix_(idx, idx)]
    d = len(labels)
    ia = list(range(len(a)))
    ib = list(range(len(a), len(a) + len(b)))
    ic = list(range(len(a) + len(b), d))

    w_c, p_c, ld_c = _conditional_pieces(cov, ia, ic)
    w_bc, p_bc, ld_bc = _conditional_pieces(cov, ia, ib + ic)

    from scipy.special import ndtri
    factor = _psd_factor(cov)
    gen = np.random.Generator(np.random.Philox(seed))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(CHUNK, n_samples - done)
        u = gen.random((2, m, d))
        np.clip(u, 1e-15, 1.0 - 1e-15, out=u)
        z = (ndtri(u[0]) + 1j * ndtri(u[1])) / np.sqrt(2.0)
        samp = z @ factor.T
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


def _det2(d1, d2, e12):
    return d1 * d2 - np.abs(e12) ** 2


def _det3(d1, d2, d3, e12, e13, e23):
    return (d1 * d2 * d3 + 2.0 * (e12 * e23 * np.conj(e13)).real
            - d1 * np.abs(e23) ** 2 - d2 * np.abs(e13) ** 2 - d3 * np.abs(e12) ** 2)


def _explicit_term_value(x: np.ndarray, Hr: np.ndarray, par: CorrelationAngles) -> float:
    """Scalar objective on the angle vector, explicit determinant formulas."""
    s = Hr.shape[0]
    sigma = par.sigma(x)
    grams = []
    for k in range(1, s + 1):
        tail = Hr[:k, k - 1:]
        grams.append(tail @ tail.conj().T)
    val = 0.0
    for k in range(1, s + 1):
        top_m = sigma[:k, :k] + grams[k - 1]
        if k == 1:
            top = top_m[0, 0].real
        elif k == 2:
            top = _det2(top_m[0, 0].real, top_m[1, 1].real, top_m[0, 1])
        else:
            top = _det3(top_m[0, 0].real, top_m[1, 1].real, top_m[2, 2].real,
                        top_m[0, 1], top_m[0, 2], top_m[1, 2])
        # bottom: same tail columns, last row dropped
        tail = Hr[:k - 1, k - 1:]
        bm = sigma[:k - 1, :k - 1] + tail @ tail.conj().T
        if k == 1:
            bot = 1.0
        elif k == 2:
            bot = bm[0, 0].real
        else:
            bot = _det2(bm[0, 0].real, bm[1, 1].real, bm[0, 1])
        if top <= 0 or bot <= 0:
            return np.inf
        val += np.log2(top) - np.log2(bot)
    if s == 1:
        den = 1.0
    elif s == 2:
        den = _det2(1.0, 1.0, sigma[0, 1])
    else:
        den = _det3(1.0, 1.0, 1.0, sigma[0, 1], sigma[0, 2], sigma[1, 2])
    if den <= 0:
        return np.inf
    return float(val - np.log2(den))


def _theta_axis(resolution: int) -> np.ndarray:
    # pi/2 (identity) first so a resolution-1 grid degenerates to it
    return np.linspace(np.pi / 2, THETA_MIN, resolution)


def _phi_axis(resolution: int) -> np.ndarray:
    return np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)


def grid_min_sigma(ch: ChannelMatrix, t: BoundTerm,
                   resolution: int) -> Tuple[float, NoiseCorrelation]:
    """Exhaustive scan of the noise-correlation angles plus local refinement.

    Supports subset sizes up to 3 (2 angle parameters for size 2, 6 for
    size 3).  Vectorized with explicit Hermitian determinant formulas, so it
    shares no evaluation code with the BFGS solve it validates.
    """
    if ch.K > 3:
        raise TooLarge("grid search supports at most 3 users")
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    Hr = _reduced_channel(ch, t)
    s = Hr.shape[0]
    par = CorrelationAngles(s)

    if s == 1:
        val = float(np.log2(1.0 + abs(Hr[0, 0]) ** 2))
        return val, _embed_sigma(np.eye(1, dtype=complex), t, ch.K)

    if s == 2 and resolution > 2000:
        raise TooLarge("resolution capped at 2000 for 2-user grids")
    if s == 3 and resolution > 32:
        raise TooLarge("resolution capped at 32 for 3-user grids")

    th = _theta_axis(resolution)
    ph = _phi_axis(resolution)
    candidates: List[Tuple[float, np.ndarray]] = []

    if s == 2:
        a = Hr[:, 1:] @ Hr[:, 1:].conj().T
        c1 = np.log2(1.0 + float(np.sum(np.abs(Hr[0]) ** 2)))
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        # entry [0,1] of L L^H is the conjugate of the factor entry
        sig = np.cos(tt) * np.exp(-1j * pp)
        det2 = (1.0 + a[0, 0].real) * (1.0 + a[1, 1].real) - np.abs(sig + a[0, 1]) ** 2
        den = np.sin(tt) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = c1 + np.log2(det2) - np.log2(1.0 + a[0, 0].real) - np.log2(den)
        vals = np.where((det2 > 0) & (den > 0), vals, np.inf)
        flat = np.argsort(vals.ravel(), kind="stable")[:5]
        for fi in flat:
            i, k = np.unravel_index(fi, vals.shape)
            candidates.append((float(vals[i, k]), np.array([tt[i, k], pp[i, k]])))
    else:
        # row-2 parameters scanned in an outer loop; the four row-3 axes are
        # evaluated as one broadcast batch per iteration
        a2 = Hr[:2, 1:] @ Hr[:2, 1:].conj().T
        m3 = Hr[:, 2:] @ Hr[:, 2:].conj().T
        c1 = np.log2(1.0 + float(np.sum(np.abs(Hr[0]) ** 2)))
        b2c = 1.0 + float(np.sum(np.abs(Hr[0, 1:]) ** 2))
        d1, d2, d3 = 1.0 + m3[0, 0].real, 1.0 + m3[1, 1].real, 1.0 + m3[2, 2].real

        cos31 = np.cos(th)[:, None, None, None]
        sin31 = np.sin(th)[:, None, None, None]
        ph31 = np.exp(1j * ph)[None, :, None, None]
        cos32 = np.cos(th)[None, None, :, None]
        sin32 = np.sin(th)[None, None, :, None]
        ph32 = np.exp(1j * ph)[None, None, None, :]
        l31 = cos31 * ph31
        l32 = sin31 * cos32 * ph32
        sin_prod = sin31 * sin32

        for i2, t2 in enumerate(th):
            for j2, p2 in enumerate(ph):
                l21 = np.cos(t2) * np.exp(1j * p2)
                l22 = np.sin(t2)
                # sigma entries from L L^H: [0,1] = conj(l21), [0,2] = conj(l31),
                # [1,2] = l21 conj(l31) + l22 conj(l32)
                s12 = np.conj(l21)
                det2_a = _det2(1.0 + a2[0, 0].real, 1.0 + a2[1, 1].real, s12 + a2[0, 1])
                det2_b = _det2(1.0 + m3[0, 0].real, 1.0 + m3[1, 1].real, s12 + m3[0, 1])
                if det2_a <= 0 or det2_b <= 0 or l22 == 0:
                    continue
                base = (c1 + np.log2(det2_a) - np.log2(b2c) - np.log2(det2_b))
                e12 = s12 + m3[0, 1]
                e13 = np.conj(l31) + m3[0, 2]
                e23 = l21 * np.conj(l31) + l22 * np.conj(l32) + m3[1, 2]
                det3 = _det3(d1, d2, d3, e12, e13, e23)
                den = (l22 * sin_prod) ** 2
                with np.errstate(divide="ignore", invalid="ignore"):
                    vals = base + np.log2(det3) - np.log2(den)
                vals = np.where((det3 > 0) & (den > 0), vals, np.inf)
                fi = int(np.argmin(vals.ravel()))
                i3, j3, k3, l3 = np.unravel_index(fi, vals.shape)
                x = np.array([t2, p2, th[i3], th[k3], ph[j3], ph[l3]])
                candidates.append((float(vals.ravel()[fi]), x))

    candidates.sort(key=lambda cv: cv[0])
    best_val, best_x = candidates[0]
    if resolution > 1:  # a one-cell grid is a point probe, nothing to refine
        from scipy.optimize import minimize
        for v0, x0 in candidates[:5]:
            res = minimize(lambda x: _explicit_term_value(x, Hr, par), x0,
                           method="Nelder-Mead", bounds=par.search_bounds,
                           options={"maxfev": 4000, "xatol": 1e-9, "fatol": 1e-12})
            if np.isfinite(res.fun) and res.fun < best_val:
                best_val, best_x = float(res.fun), res.x
    return best_val, _embed_sigma(par.sigma(best_x), t, ch.K)
