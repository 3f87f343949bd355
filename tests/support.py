"""Shared samplers for the test suite.

Everything takes an explicit numpy Generator so individual tests stay
reproducible under pytest -p no:randomly and friends.
"""

import math
import sys
from decimal import Decimal, localcontext
from itertools import combinations

import numpy as np

import ifcbounds as ifc
from ifcbounds import outer_bound
from ifcbounds.errors import InternalConsistencyError, SingularCovariance
from ifcbounds.gaussian_info import EIG_TOL, GenieSpec, pivot_log2det
from ifcbounds.oracle import CorrelationAngles


def count_calls(monkeypatch, real):
    """The argument tuples of every call of ``real``, through each module's
    binding and numpy.linalg's."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "ifcbounds" or name == "numpy.linalg":
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


#: working precision of the referee below
REFEREE_DIGITS = 50


def sample_interior_sigma(rng, K, margin=0.15, eig_floor=5e-3):
    """Random unit-diagonal PSD coupling strictly inside the PSD cone.

    Draws that land too close to the cone boundary are blended toward the
    identity (which preserves the unit diagonal) until the smallest eigenvalue
    clears eig_floor, so downstream log-dets stay well conditioned.
    """
    par = CorrelationAngles(K)
    lo = np.array([b[0] for b in par.bounds])
    hi = np.array([b[1] for b in par.bounds])
    u = rng.random(par.n_params)
    x = lo + (margin + (1.0 - 2.0 * margin) * u) * (hi - lo)
    sig = par.sigma(x)
    e0 = float(np.linalg.eigvalsh(sig)[0])
    if e0 < eig_floor:
        t = (eig_floor - e0) / (1.0 - e0)
        sig = (1.0 - t) * sig + t * np.eye(K)
    return ifc.validate_noise_correlation(sig)


def random_gains(rng, K, lo=0.25, hi=4.0):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), K))


def random_z_channel(rng, K):
    """Channel with exactly known sum capacity, plus its generating coupling."""
    sig = sample_interior_sigma(rng, K)
    ch = ifc.build_z_channel(sig, random_gains(rng, K))
    return ch, sig


def random_channel(rng, K, scale=1.0):
    """Dense channel with complex cross gains and positive direct gains."""
    H = scale * (rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))) / np.sqrt(2)
    H[np.diag_indices(K)] = np.abs(np.diagonal(H)) + 0.3
    return ifc.validate_channel(H)


def random_upper_triangular_channel(rng, K, scale=1.0):
    """Random channel where receiver k hears only users k..K."""
    H = scale * (rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))) / np.sqrt(2)
    H = np.triu(H, 1)
    H[np.diag_indices(K)] = random_gains(rng, K)
    return ifc.validate_channel(H)


def random_rank_one(rng, K):
    """Unit-rank channel in standard form: returns (channel, a, b)."""
    t = np.sort(rng.uniform(0.3, 2.5, K))
    b = (0.3 + rng.random(K)) * np.exp(2j * np.pi * rng.random(K))
    a = t * b / np.abs(b)  # makes a_k * conj(b_k) = t_k |b_k| real positive
    return ifc.rank_one_channel(a, b), a, b


def random_joint(rng, K):
    """Joint law of a random channel with a random interior noise coupling."""
    ch = random_channel(rng, K)
    sig = sample_interior_sigma(rng, K)
    return ifc.build_joint(ch, sig), ch, sig


# ---------------------------------------------------------------------------
# the engine's conditioning queries, spelled the plain way

def referee_conditioning(j, a, c):
    """(log2 det Cov(A | C), W with E[A | C] = W c) from one Cholesky factor of
    the (C, A) block, its labels looked up one by one in ``j.labels``.  A
    failed factor or a squared trailing pivot at or below EIG_TOL times its
    variance raises SingularCovariance with the engine's refusal texts."""
    a, c = list(a), list(c)
    idx = [j.labels.index(lab) for lab in c + a]
    block = j.cov[np.ix_(idx, idx)]
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        raise SingularCovariance(f"joint cov of {c} and {a} is not positive definite") from None
    n = len(c)
    pivots = np.diagonal(L)[n:].real ** 2
    var = np.diagonal(block)[n:].real
    if np.any(pivots <= EIG_TOL * var):
        raise SingularCovariance(
            f"cov of {a} given {c} has a pivot within EIG_TOL = {EIG_TOL:g} times "
            f"its variance ({np.min(pivots / var):.3e} of it), lost to round-off")
    logdet = 2.0 * float(np.sum(np.log2(np.diagonal(L)[n:].real)))
    return logdet, np.linalg.solve(L[:n, :n].T, L[n:, :n].T).T


def etw_term_by_summand(ch, t, rhos):
    """The genie term read summand by summand, each entropy by its own
    pivot_log2det call: h(Y_k | G_m) off the rows (G_m, Y_k) and h(G_m | X, Y_k)
    off (X_1..X_K, Y_k, G_m), the latter held to log2(pi e (1 - |rho|^2))
    within 32 eps sqrt(Var G_m / (1 - |rho|^2)).  The route etw_term_value
    batches, with its refusals and texts."""
    genies = [GenieSpec(target=m, rho=complex(r), paired_with=k)
              for k, m, r in zip(t.subset, t.perm, rhos)]
    root = ifc.build_joint(ch, None, genies).root
    K = ch.K
    all_x = [f"X{i}" for i in range(1, K + 1)]
    total = 0.0
    for a, (k, m, r) in enumerate(zip(t.subset, t.perm, rhos)):
        y, g = K + k - 1, 2 * K + a
        first = ifc.LOG2PIE + pivot_log2det(root[[g, y]], [f"Y{k}"], [f"G{m}"])
        second = ifc.LOG2PIE + pivot_log2det(root[list(range(K)) + [y, g]], [f"G{m}"],
                                             all_x + [f"Y{k}"])
        residual = 1.0 - abs(r) ** 2
        closed = ifc.LOG2PIE + math.log2(residual)
        norm2 = float(np.sum(root[g].real ** 2 + root[g].imag ** 2))
        if abs(second - closed) > 32.0 * np.finfo(float).eps * math.sqrt(norm2 / residual):
            raise InternalConsistencyError(
                f"residual genie entropy mismatch: QR {second!r} vs closed form {closed!r}")
        total += first - second
    return total


# ---------------------------------------------------------------------------
# a 50-digit referee in stdlib decimal, to tell which float route lost digits

def _dec(z):
    """A float complex as an exact (re, im) pair of Decimals."""
    z = complex(z)
    return Decimal(z.real), Decimal(z.imag)


def _ln_det(M):
    """ln det of a Hermitian positive definite matrix of (re, im) Decimal
    pairs: the Cholesky factor of the real embedding [[Re, -Im], [Im, Re]],
    whose determinant is det(M)^2, gives sum_i ln L_ii = ln det M."""
    n = len(M)
    R = [[Decimal(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            re, im = M[i][j]
            R[i][j] = R[i + n][j + n] = re
            R[i][j + n], R[i + n][j] = -im, im
    L = [[Decimal(0)] * (2 * n) for _ in range(2 * n)]
    total = Decimal(0)
    for i in range(2 * n):
        for j in range(i + 1):
            acc = R[i][j] - sum(L[i][k] * L[j][k] for k in range(j))
            if i > j:
                L[i][j] = acc / L[j][j]
            elif acc <= 0:
                raise ValueError("block is not positive definite")
            else:
                L[i][i] = acc.sqrt()
                total += L[i][i].ln()
    return total


def referee_log2det(mat):
    """log2 det of a Hermitian positive definite block, from its exact float
    entries at REFEREE_DIGITS digits."""
    mat = np.asarray(mat, dtype=complex)
    with localcontext() as ctx:
        ctx.prec = REFEREE_DIGITS
        M = [[_dec(x) for x in row] for row in mat]
        return float(_ln_det(M) / Decimal(2).ln())


def referee_joint_cov(ch, noise, genies=()):
    """Covariance of (X, Y, G) written entry by entry from the model at
    REFEREE_DIGITS digits, each entry rounded once to a float.  With
    G_a = r_a X + conj(rho_a) Z_k + sqrt(1 - |rho_a|^2) W'_a, r_a the target's
    channel row less its direct gain and k = k_a its paired receiver:
    E[Y X^*] = H, Cov(Y) = H H^H + Sigma, E[G_a X^*] = r_a,
    E[Y G_a^*] = H r_a^H + rho_a Sigma[:, k_a], Var G_a = 1 + |r_a|^2 and
    E[G_a G_b^*] = r_a r_b^H + conj(rho_a) rho_b Sigma[k_a, k_b]."""
    K = ch.K
    with localcontext() as ctx:
        ctx.prec = REFEREE_DIGITS

        def mul(x, y):
            return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        def conj(x):
            return x[0], -x[1]

        def add(*xs):
            return sum(x[0] for x in xs), sum(x[1] for x in xs)

        def dot(u, v):  # sum_l u_l conj(v_l)
            return add(*(mul(a, conj(b)) for a, b in zip(u, v)))

        H = [[_dec(x) for x in row] for row in ch.entries]
        S = [[_dec(x) for x in row] for row in noise.sigma]
        one, zero = (Decimal(1), Decimal(0)), (Decimal(0), Decimal(0))
        r = [[zero if j == g.target - 1 else H[g.target - 1][j] for j in range(K)]
             for g in genies]
        rho = [_dec(g.rho) for g in genies]
        k = [g.paired_with - 1 for g in genies]
        n = 2 * K + len(genies)
        cov = [[None] * n for _ in range(n)]
        for i in range(K):
            for j in range(K):
                cov[i][j] = one if i == j else zero
                cov[K + i][j] = H[i][j]
                cov[K + i][K + j] = add(dot(H[i], H[j]), S[i][j])
            for a in range(len(genies)):
                cov[K + i][2 * K + a] = add(dot(H[i], r[a]), mul(rho[a], S[i][k[a]]))
        for a in range(len(genies)):
            for j in range(K):
                cov[2 * K + a][j] = r[a][j]
            for b in range(len(genies)):
                cov[2 * K + a][2 * K + b] = (add(one, dot(r[a], r[a])) if a == b else add(
                    dot(r[a], r[b]), mul(mul(conj(rho[a]), rho[b]), S[k[a]][k[b]])))
        for p in range(n):  # each entry left unset is the conjugate of its transpose
            for q in range(n):
                if cov[p][q] is None:
                    cov[p][q] = conj(cov[q][p])
        return np.array([[complex(float(re), float(im)) for re, im in row] for row in cov])


def referee_kra_term(ch, noise, t):
    """KRA term t at the noise correlation, telescoped from exact H and Sigma
    at REFEREE_DIGITS digits:
    sum_k [ld(Sigma_k + A_k) - ld(Sigma_{k-1} + B_k)] - ld(Sigma), with
    A_k = T T^H for T = Hr[:k, k-1:] and B_k the same without its last row,
    in the reduced channel Hr = H[pi, pi]."""
    idx = [p - 1 for p in t.perm]
    s = len(idx)
    with localcontext() as ctx:
        ctx.prec = REFEREE_DIGITS
        H = [[_dec(ch.entries[i, j]) for j in idx] for i in idx]
        S = [[_dec(noise.sigma[i, j]) for j in idx] for i in idx]

        def ld(n, cols):  # ln det(Sigma_n + T T^H), T = Hr[:n, cols]
            return _ln_det([[(S[i][j][0] + sum(H[i][c][0] * H[j][c][0] + H[i][c][1] * H[j][c][1]
                                               for c in cols),
                              S[i][j][1] + sum(H[i][c][1] * H[j][c][0] - H[i][c][0] * H[j][c][1]
                                               for c in cols))
                             for j in range(n)] for i in range(n)])

        total = (sum(ld(k, range(k - 1, s)) for k in range(1, s + 1))
                 - sum(ld(k - 1, range(k - 1, s)) for k in range(2, s + 1))
                 - ld(s, ()))
        return float(total / Decimal(2).ln())


def slogdet_kra_term(Hr, sigma):
    """KRA term (bits) of the reduced channel Hr at the reduced coupling sigma,
    telescoped into slogdets of the blocks' covariances, with no Cholesky or
    QR factor: sum_k [ld(Sigma_k + A_k) - ld(Sigma_{k-1} + B_k)] - ld(Sigma),
    A_k = T T^H for T = Hr[:k, k-1:] and B_k the same without its last row.
    A referee of the factored forms at moderate gains; it squares the gains,
    so it errs as eps g^2 / lambda_min(Sigma)."""
    s = Hr.shape[0]

    def ld(n, T):
        return np.linalg.slogdet(sigma[:n, :n] + T @ T.conj().T)[1] if n else 0.0
    lds = ([ld(k, Hr[:k, k - 1:]) for k in range(1, s + 1)]
           + [ld(k - 1, Hr[:k - 1, k - 1:]) for k in range(2, s + 1)] + [ld(s, Hr[:, :0])])
    return float(np.repeat([1.0, -1.0], s) @ np.array(lds)) / math.log(2.0)


def slogdet_ranked_pair_min(ch, t):
    """kra_term_min on a term of one or two users with its candidates ranked
    by slogdet_kra_term instead of the closed form: the identity, then the
    _pair_rho coupling on two users, sorted stably (so the identity wins
    ties) and re-scored through kra_term_value by _first_scored."""
    Hr = outer_bound._reduced_channel(ch, t)
    s = Hr.shape[0]
    candidates = [np.eye(s, dtype=complex)]
    if s == 2:
        tail = Hr[:, 1:]
        A = tail @ tail.conj().T
        rho = outer_bound._pair_rho(A[0, 0].real + A[1, 1].real, complex(A[0, 1]))
        candidates.append(np.array([[1.0, rho], [rho.conjugate(), 1.0]]))
    candidates.sort(key=lambda sig: slogdet_kra_term(Hr, sig))

    def score(sig):
        noise = outer_bound._embed_sigma(sig, t, ch.K)
        return outer_bound.kra_term_value(ch, noise, t), noise
    return outer_bound._first_scored(candidates, score)


def referee_etw_term(ch, t, rhos):
    """ETW term t at the genie correlations rhos, from exact H at
    REFEREE_DIGITS digits: per k in S with m = pi_k and rho its correlation,
    log2(v_y v_g - |c0 + rho|^2) - log2 v_g - log2(1 - |rho|^2), with
    v_y = 1 + |h_k|^2, v_g = 1 + |h_m|^2 less |h_mm|^2 and
    c0 = sum_{i != m} h_ki conj(h_mi)."""
    with localcontext() as ctx:
        ctx.prec = REFEREE_DIGITS
        H = [[_dec(x) for x in row] for row in ch.entries]
        total = Decimal(0)
        for k, m, rho in zip(t.subset, t.perm, rhos):
            hk, hm = H[k - 1], H[m - 1]
            others = [i for i in range(ch.K) if i != m - 1]
            rho_re, rho_im = _dec(rho)
            vy = 1 + sum(re * re + im * im for re, im in hk)
            vg = 1 + sum(hm[i][0] ** 2 + hm[i][1] ** 2 for i in others)
            c_re = rho_re + sum(hk[i][0] * hm[i][0] + hk[i][1] * hm[i][1] for i in others)
            c_im = rho_im + sum(hk[i][1] * hm[i][0] - hk[i][0] * hm[i][1] for i in others)
            total += (((vy * vg - c_re * c_re - c_im * c_im) / vg).ln()
                      - (1 - rho_re * rho_re - rho_im * rho_im).ln())
        return float(total / Decimal(2).ln())


def witness_referee(ch, noise, k):
    """(coef, mi) of receiver k's degradedness residuals by covariance
    Cholesky factors (referee_conditioning): the largest weight the estimate
    of Y_<k from (Y_k, X_<k, X_k) puts on X_k, and I(Y_<k; X_k | Y_k, X_<k)."""
    j = ifc.build_joint(ch, noise)
    targets = [f"Y{i}" for i in range(1, k)]
    given = [f"Y{k}"] + [f"X{i}" for i in range(1, k)]
    ld_c, _ = referee_conditioning(j, targets, given)
    ld_cx, W = referee_conditioning(j, targets, given + [f"X{k}"])
    return float(np.max(np.abs(W[:, -1]))), ld_c - ld_cx


def referee_mac_slack(ch, k):
    """(S, lhs, rhs) at the least slack rhs - lhs of mac_feasibility's
    constraint for receiver k (0-based), found by enumerating all 2^n subsets
    of the n earlier users it hears."""
    H = ch.entries
    r = ifc.succ_dec_rates(ch)
    base = 1.0 + np.sum(np.abs(H[k, k + 1:]) ** 2)
    heard = [j for j in range(k) if H[k, j] != 0]
    best = None
    for size in range(len(heard) + 1):
        for subset in combinations(heard, size):
            gain = H[k, k].real ** 2 + sum(abs(H[k, j]) ** 2 for j in subset)
            rhs = float(np.log2(1.0 + gain / base))
            lhs = float(r[k] + sum(r[j] for j in subset))
            if best is None or rhs - lhs < best[2] - best[1]:
                best = (subset, lhs, rhs)
    return best
