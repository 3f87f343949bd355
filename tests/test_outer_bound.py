import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ifcbounds as ifc
from ifcbounds import outer_bound
from ifcbounds.certify import CERT_TOL
from ifcbounds.construct import invert_coupling_recursion
from ifcbounds.errors import (
    IndexOutOfRange,
    InternalConsistencyError,
    SingularCovariance,
    TooLarge,
    ValidationError,
)
from ifcbounds.gaussian_info import RHO_CAP, GenieSpec, build_joint, pivot_log2det
from ifcbounds.model import make_joint
from ifcbounds.oracle import CorrelationAngles
from ifcbounds.outer_bound import (
    BFGS_GTOL,
    BFGS_MAXITER,
    EIG_FLOOR,
    _chain_covariances,
    _chain_value_grad,
    _embed_sigma,
    _etw_closed_form,
    _etw_summand,
    _etw_summand_data,
    _factored_min_sigma,
    _factored_value_grad,
    _floor_eig,
    _kra_start,
    _norm2,
    _pair_value,
    _reduced_channel,
    _unit_rows,
)

from support import (
    etw_term_by_summand,
    random_channel,
    random_upper_triangular_channel,
    random_z_channel,
    referee_etw_term,
    referee_kra_term,
    sample_interior_sigma,
    slogdet_kra_term,
    slogdet_ranked_pair_min,
)


def test_count_values():
    assert [ifc.count_bounds(k) for k in (1, 2, 3, 4, 5)] == [1, 4, 15, 64, 325]


def test_enumeration_matches_count():
    for K in (1, 2, 3, 4):
        terms = ifc.enumerate_terms(K)
        assert len(terms) == ifc.count_bounds(K)
        assert len(set(terms)) == len(terms)


def test_enumeration_order():
    terms = ifc.enumerate_terms(2)
    assert [(t.subset, t.perm) for t in terms] == [
        ((1,), (1,)), ((2,), (2,)), ((1, 2), (1, 2)), ((1, 2), (2, 1))]


def test_enumeration_single_user():
    terms = ifc.enumerate_terms(1)
    assert len(terms) == 1 and terms[0].subset == (1,) and terms[0].perm == (1,)


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        ifc.enumerate_terms(9)


def test_bound_term_validation():
    with pytest.raises(ValidationError):
        ifc.BoundTerm(subset=(2, 1), perm=(1, 2))
    with pytest.raises(ValidationError):
        ifc.BoundTerm(subset=(1, 2), perm=(1, 1))
    with pytest.raises(ValidationError):
        ifc.BoundTerm(subset=(1, 2), perm=(1, 3))


# ---------------------------------------------------------------------------
# correlated-noise family

def test_diagonal_identity_term_is_two_bits():
    ch = ifc.validate_channel(np.eye(2))
    t = ifc.BoundTerm((1, 2), (1, 2))
    assert abs(ifc.kra_term_value(ch, ifc.identity_noise(2), t) - 2.0) < 1e-12


def test_singleton_term_is_single_user_bound():
    rng = np.random.default_rng(20)
    ch = random_channel(rng, 3)
    for k in (1, 2, 3):
        t = ifc.BoundTerm((k,), (k,))
        h = ch.entries[k - 1, k - 1].real
        v = ifc.kra_term_value(ch, ifc.identity_noise(3), t)
        assert abs(v - np.log2(1 + h * h)) < 1e-10


def test_term_value_matches_entropy_identity_oracle():
    # Cholesky route vs the four-entropy identity, term by term
    rng = np.random.default_rng(21)
    ch = random_channel(rng, 3)
    sig = sample_interior_sigma(rng, 3)
    t = ifc.BoundTerm((1, 2, 3), (2, 3, 1))
    j = ifc.build_joint(ch, sig)
    total = 0.0
    done, outs = [], []
    comp = [x for x in (1, 2, 3) if x not in t.subset]
    for k, m in enumerate(t.perm):
        a = [f"Y{m}"]
        b = [f"X{i}" for i in t.perm[k:]]
        c = [f"X{i}" for i in done] + outs + [f"X{i}" for i in comp]
        total += ifc.entropy_identity_mi(j, a, b, c)
        done.append(m)
        outs.append(f"Y{m}")
    v = ifc.kra_term_value(ch, sig, t)
    assert abs(v - total) < 1e-9


def test_lean_matches_generic_on_random_terms():
    # the solver's objective, the chain read off a Cholesky factor of its
    # rows' covariance, against the reported chain, read off a QR factor of
    # its rows, and against the telescoped slogdet referee, which factors
    # neither: both within 1.7e-13 bits on these draws
    rng = np.random.default_rng(22)
    for _ in range(20):
        K = int(rng.integers(2, 5))
        ch = random_channel(rng, K)
        size = int(rng.integers(2, K + 1))
        subset = tuple(sorted(rng.choice(np.arange(1, K + 1), size=size, replace=False).tolist()))
        perm = list(subset)
        rng.shuffle(perm)
        t = ifc.BoundTerm(subset, tuple(perm))
        sig_r = sample_interior_sigma(rng, size).sigma
        Hr = _reduced_channel(ch, t)
        lean = _chain_value_grad(sig_r, _chain_covariances(Hr))[0]
        full = np.eye(K, dtype=complex)
        pos = [p - 1 for p in t.perm]
        full[np.ix_(pos, pos)] = sig_r
        generic = ifc.kra_term_value(ch, ifc.validate_noise_correlation(full), t)
        assert abs(lean - generic) < 5e-13, t
        assert abs(lean - slogdet_kra_term(Hr, sig_r)) < 5e-13, t


def test_conditioning_removes_complement_interference():
    # conditioning on X(S^c) must strip those columns entirely: value equals
    # the full-set term of the channel restricted to S
    rng = np.random.default_rng(23)
    ch = random_channel(rng, 3)
    t = ifc.BoundTerm((1, 3), (3, 1))
    sub = ifc.validate_channel(ch.entries[np.ix_([2, 0], [2, 0])])
    sig = sample_interior_sigma(rng, 2)
    full = np.eye(3, dtype=complex)
    full[np.ix_([2, 0], [2, 0])] = sig.sigma
    v = ifc.kra_term_value(ch, ifc.validate_noise_correlation(full), t)
    v_sub = ifc.kra_term_value(sub, sig, ifc.BoundTerm((1, 2), (1, 2)))
    assert abs(v - v_sub) < 1e-9


def test_min_brackets_on_diagonal_channel():
    ch = ifc.validate_channel(np.eye(2))
    t = ifc.BoundTerm((1, 2), (1, 2))
    val, sig = ifc.kra_term_min(ch, t)
    ident = ifc.kra_term_value(ch, ifc.identity_noise(2), t)
    assert val <= ident + 1e-12
    assert val >= ifc.tin_sum_rate(ch) - 1e-9
    assert abs(val - 2.0) < 1e-9


def test_min_dominates_random_couplings():
    rng = np.random.default_rng(24)
    ch = random_upper_triangular_channel(rng, 2)
    t = ifc.BoundTerm((1, 2), (1, 2))
    val, wit = ifc.kra_term_min(ch, t)
    assert abs(ifc.kra_term_value(ch, wit, t) - val) < 1e-12  # witness re-scores exactly
    for _ in range(10):
        sig = sample_interior_sigma(rng, 2)
        assert val <= ifc.kra_term_value(ch, sig, t) + 1e-9


def test_min_no_worse_than_generating_coupling():
    rng = np.random.default_rng(25)
    ch, sig = random_z_channel(rng, 3)
    t = ifc.BoundTerm((1, 2, 3), (1, 2, 3))
    at_gen = ifc.kra_term_value(ch, sig, t)
    val, _ = ifc.kra_term_min(ch, t)
    assert val <= at_gen + 1e-9
    # the generating coupling is optimal for these channels, so equality
    assert abs(val - at_gen) < 1e-7
    assert abs(at_gen - ifc.tin_sum_rate(ch)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_lean_kra_value_is_midpoint_convex(seed, s):
    # convexity in Sigma is what makes a local solver's end point the minimum
    rng = np.random.default_rng(seed)
    chain = _chain_covariances(random_channel(rng, s).entries)
    s0 = sample_interior_sigma(rng, s).sigma
    s1 = sample_interior_sigma(rng, s).sigma
    mean = (_chain_value_grad(s0, chain)[0] + _chain_value_grad(s1, chain)[0]) / 2
    assert _chain_value_grad((s0 + s1) / 2, chain)[0] <= mean + 1e-9


@pytest.mark.parametrize("s", [3, 4])
def test_factored_gradient_matches_central_differences(s):
    rng = np.random.default_rng(50 + s)
    chain = _chain_covariances(random_channel(rng, s).entries)
    h = 1e-6
    for _ in range(3):
        x = rng.normal(size=2 * s * s)
        _, grad = _factored_value_grad(x, chain)
        fd = np.array([(_factored_value_grad(x + h * e, chain)[0]
                        - _factored_value_grad(x - h * e, chain)[0]) / (2 * h)
                       for e in np.eye(x.size)])
        assert np.max(np.abs(grad - fd)) < 1e-6 * (1.0 + np.max(np.abs(grad)))


def _quadratic(n, seed):
    """A strictly convex quadratic on R^n, eigenvalues 1 to 100: (value and
    gradient, minimiser, smallest eigenvalue)."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, 100.0, n)
    A, b = (Q * eigs) @ Q.T, rng.normal(size=n)
    return (lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b)), np.linalg.solve(A, b), eigs[0]


def test_bfgs_reaches_the_minimiser_of_a_convex_quadratic():
    fun, x_star, lam = _quadratic(18, 7)
    res = outer_bound.minimize(fun, np.zeros(18))
    assert res.nit < BFGS_MAXITER and res.nfev >= res.nit + 1
    assert np.max(np.abs(fun(res.x)[1])) <= BFGS_GTOL  # stopped on the gradient
    # |x - x*| <= |g| / lambda_min, and |g|_2 <= sqrt(n) |g|_inf
    assert np.linalg.norm(res.x - x_star) <= np.sqrt(18) * BFGS_GTOL / lam


def test_bfgs_stops_at_maxiter_and_counts_its_evaluations(monkeypatch):
    monkeypatch.setattr(outer_bound, "BFGS_MAXITER", 3)
    fun, _, _ = _quadratic(18, 8)
    calls = []
    x0 = np.zeros(18)
    res = outer_bound.minimize(lambda x: calls.append(x) or fun(x), x0)
    assert (res.nit, res.nfev) == (3, len(calls))
    assert fun(res.x)[0] < fun(x0)[0]
    assert any(np.array_equal(res.x, x) for x in calls)


def _region_k3_channel():
    """The K = 3 channel of the benchmark's region-k3 workload at seed 1
    (perfbench/workloads.py, phase_channel)."""
    profile, rng = np.random.default_rng(2011), np.random.default_rng([1, 1])
    H = (profile.normal(size=(3, 3)) + 1j * profile.normal(size=(3, 3))) / np.sqrt(2)
    H *= np.exp(1j * 0.3 * rng.uniform(-1.0, 1.0, (3, 3)))
    H[np.diag_indices(3)] = np.abs(np.diagonal(H)) + 0.3
    return ifc.validate_channel(H)


def test_kra_terms_match_a_scipy_bfgs_referee(monkeypatch):
    # the same solves by scipy's BFGS, as a referee.  Where the referee's end
    # point is interior (smallest eigenvalue at least EIG_FLOOR), both reach
    # the minimum.  A minimum on the PSD boundary is blended to EIG_FLOOR from
    # wherever a solve stops, and that moves the blended value by up to ~1e-6
    # bits for scipy's BFGS alone (started from 2 V instead of V, the same
    # coupling), so it is held to that (ROADMAP item 9)
    from scipy.optimize import minimize as scipy_minimize
    ends = []

    def referee(fun, x0, stop):  # +inf prunes nothing, so stop is never true
        res = scipy_minimize(fun, x0, jac=True, method="BFGS",
                             options={"maxiter": BFGS_MAXITER, "gtol": BFGS_GTOL})
        ends.append(res.x)
        return outer_bound.Solve(res.x, res.nfev, res.nit)

    rng = np.random.default_rng(1001)
    channels = [_region_k3_channel()] + [random_channel(rng, K) for K in (3, 3, 3, 4, 4)]
    for ch in channels:
        for t in ifc.enumerate_terms(ch.K):
            if t.size < 3:
                continue
            ours, _ = ifc.kra_term_min(ch, t)
            with monkeypatch.context() as m:
                m.setattr(outer_bound, "minimize", referee)
                want, _ = ifc.kra_term_min(ch, t)
            U, _ = _unit_rows(ends[-1], t.size)
            tol = 1e-7 if np.linalg.eigvalsh(U @ U.conj().T)[0] >= EIG_FLOOR else 1e-6
            assert abs(ours - want) <= tol, (t, ours - want)


def test_four_user_terms_are_minima():
    rng = np.random.default_rng(60)
    ch = random_channel(rng, 4)
    samples = [sample_interior_sigma(rng, 4).sigma for _ in range(200)]
    for t in ifc.enumerate_terms(4):
        if t.size < 4:
            continue
        val, wit = ifc.kra_term_min(ch, t)
        assert ifc.kra_term_value(ch, wit, t) == val  # witness re-scores exactly
        assert val <= ifc.kra_term_value(ch, ifc.identity_noise(4), t) + 1e-9
        # samples stand for couplings in pi order: the chain's value is the term
        chain = _chain_covariances(_reduced_channel(ch, t))
        assert val <= min(_chain_value_grad(sig, chain)[0] for sig in samples) + 1e-9
        # no descent along segments toward random interior couplings
        for _ in range(20):
            toward = sample_interior_sigma(rng, 4).sigma
            for eps in (1e-3, 1e-2, 0.1):
                mixed = ifc.validate_noise_correlation((1 - eps) * wit.sigma + eps * toward)
                assert ifc.kra_term_value(ch, mixed, t) >= val - 1e-7, (t, eps)


def test_floored_end_point_is_accepted_near_the_boundary():
    # the BFGS end point of this term has lambda_min ~ 2e-7; floored to
    # EIG_FLOOR it must re-score without a negative conditional information
    ch = random_channel(np.random.default_rng(60), 4)
    t = ifc.BoundTerm((1, 2, 3, 4), (1, 4, 2, 3))
    Hr = _reduced_channel(ch, t)
    chain = _chain_covariances(Hr)
    warm = invert_coupling_recursion(Hr)
    end = _factored_min_sigma(np.eye(4, dtype=complex) if warm is None else warm, chain)
    sig = _floor_eig(end, EIG_FLOOR)
    assert np.linalg.eigvalsh(sig)[0] == pytest.approx(EIG_FLOOR, rel=1e-6)
    noise = _embed_sigma(sig, t, 4)
    val = ifc.kra_term_value(ch, noise, t)
    assert abs(val - _chain_value_grad(sig, chain)[0]) < 1e-9
    assert abs(val - referee_kra_term(ch, noise, t)) < CERT_TOL


@pytest.mark.parametrize("dust", [5e-10, 2e-9])
def test_kra_summand_below_zero_is_dust_or_an_error(monkeypatch, dust):
    # conditional_mi's sign policy, per summand.  The singleton term of [[1]]
    # is log2 2 = 1 bit; a pivot reader doctored by 2^-(1 + dust) reads it as -dust
    reader = outer_bound.squared_pivots
    monkeypatch.setattr(outer_bound, "squared_pivots",
                        lambda rows: reader(rows) * 2.0 ** -(1.0 + dust))
    ch, t = ifc.validate_channel([[1.0]]), ifc.BoundTerm((1,), (1,))
    if dust < 1e-9:
        assert ifc.kra_term_value(ch, ifc.identity_noise(1), t) == 0.0
    else:
        with pytest.raises(InternalConsistencyError,
                           match=r"summand 1 of .*, for Y1, is -2.000e-09 < 0 beyond"):
            ifc.kra_term_value(ch, ifc.identity_noise(1), t)


def _strongly_coupled_z(s):
    """K=3 Z channel with lower entries |h| ~ U(15, 20) at random phases; the
    upper triangle, and so the recovered coupling and the ladder, are kept."""
    ch, _ = random_z_channel(np.random.default_rng(s), 3)
    r = np.random.default_rng(1000 + s)
    H = ch.entries.copy()
    for k in (1, 2):
        H[k, :k] = r.uniform(15, 20, k) * np.exp(2j * np.pi * r.random(k))
    return ifc.validate_channel(H)


@pytest.mark.parametrize("s", range(30))
def test_reference_route_meets_ladder_under_strong_lower_coupling(s):
    ch = _strongly_coupled_z(s)
    full = ifc.BoundTerm((1, 2, 3), (1, 2, 3))
    val = ifc.kra_term_value(ch, ifc.recover_noise_correlation(ch), full)
    assert abs(val - ifc.tin_sum_rate(ch)) < 1e-10


# ---------------------------------------------------------------------------
# genie family

def test_etw_diagonal_is_two_bits():
    ch = ifc.validate_channel(np.eye(2))
    t = ifc.BoundTerm((1, 2), (2, 1))
    assert abs(ifc.etw_term_value(ch, t, [0.0, 0.0]) - 2.0) < 1e-12


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_etw_symmetric_closed_form(g):
    # hand expansion of the 2x2 conditional covariance at rho = 0:
    # each summand is log2(2 + g^2 - g^2/(1+g^2))
    ch = ifc.validate_channel(np.array([[1.0, g], [g, 1.0]]))
    t = ifc.BoundTerm((1, 2), (2, 1))
    v = ifc.etw_term_value(ch, t, [0.0, 0.0])
    assert abs(v - 2 * np.log2(2 + g * g - g * g / (1 + g * g))) < 1e-12


def test_etw_large_rho_worse_than_zero():
    rng = np.random.default_rng(26)
    cap = 1 - 1e-6
    for _ in range(10):
        g = rng.uniform(0.2, 2.0)
        ch = ifc.validate_channel(np.array([[1.0, g], [g, 1.0]]))
        t = ifc.BoundTerm((1, 2), (2, 1))
        v0 = ifc.etw_term_value(ch, t, [0.0, 0.0])
        v1 = ifc.etw_term_value(ch, t, [cap, cap])
        assert v1 >= v0


def test_etw_min_dominates_zero_rho():
    rng = np.random.default_rng(27)
    for _ in range(10):
        ch = random_channel(rng, 2)
        t = ifc.BoundTerm((1, 2), (2, 1))
        vmin, rhos = ifc.etw_term_min(ch, t)
        vzero = ifc.etw_term_value(ch, t, [0.0, 0.0])
        assert vmin <= vzero  # exact dominance, no tolerance
        assert abs(ifc.etw_term_value(ch, t, rhos) - vmin) < 1e-12


def test_etw_real_channels_match_real_line_sweep():
    # on real channels the optimum phase degenerates, so a dense sweep over
    # real rho per summand must reproduce the 2-D search
    rng = np.random.default_rng(28)
    cap = 1 - 1e-6
    grid = np.linspace(-cap, cap, 4001)
    for _ in range(20):
        K = 2
        H = rng.normal(size=(K, K))
        H[np.diag_indices(K)] = np.abs(np.diagonal(H)) + 0.3
        ch = ifc.validate_channel(H)
        t = ifc.BoundTerm((1, 2), (2, 1))
        vmin, _ = ifc.etw_term_min(ch, t)
        swept = 0.0
        for k, m in zip(t.subset, t.perm):
            data = _etw_summand_data(ch.entries, k, m)
            swept += min(_etw_summand(r, *data) for r in grid)
        assert abs(vmin - swept) < 1e-6


def test_etw_single_user_min_at_zero():
    ch = ifc.validate_channel([[2.0]])
    t = ifc.BoundTerm((1,), (1,))
    v, rhos = ifc.etw_term_min(ch, t)
    assert abs(v - np.log2(5.0)) < 1e-9
    assert abs(rhos[0]) < 1e-6


# ---------------------------------------------------------------------------
# closed-form pair searches

def _scan_min(fun, n=48):
    """Smallest value of fun(rho) on a polar grid over |rho| <= RHO_CAP,
    including |rho| = RHO_CAP itself."""
    mags = RHO_CAP * np.sin(np.linspace(0.0, np.pi / 2, n))
    phases = np.linspace(-np.pi, np.pi, 2 * n, endpoint=False)
    return min(fun(r * np.exp(1j * ph)) for r in mags for ph in phases)


def _pair_kra_scan(ch, t):
    chain = _chain_covariances(_reduced_channel(ch, t))
    return _scan_min(lambda rho: _chain_value_grad(
        np.array([[1.0, rho], [np.conj(rho), 1.0]]), chain)[0])


#: Cauchy-Schwarz is tight on term (2, 1) of this channel: both families'
#: pair minimizers run into the cap |rho| = RHO_CAP
TIGHT = [[1.0, 0.0], [1.0, 1.0]]
TIGHT_TERM = ifc.BoundTerm((1, 2), (2, 1))


@pytest.mark.parametrize("K", [2, 3, 4, "tight"])
def test_pair_closed_forms_beat_dense_scan(K):
    if K == "tight":
        ch = ifc.validate_channel(TIGHT)
    else:
        ch = random_channel(np.random.default_rng(40 + K), K)
    summand_scan = {}
    for t in ifc.enumerate_terms(ch.K):
        swept = 0.0
        for k, m in zip(t.subset, t.perm):
            if (k, m) not in summand_scan:
                data = _etw_summand_data(ch.entries, k, m)
                summand_scan[k, m] = _scan_min(lambda r: _etw_summand(r, *data))
            swept += summand_scan[k, m]
        vmin, _ = ifc.etw_term_min(ch, t)
        assert vmin <= swept + 1e-12, (t, vmin, swept)
        if t.size == 2:
            # the minimiser claim is about the objective, so it is checked on
            # the objective's own form; the reported value is a re-score whose
            # float error at the tight witness (|rho| = RHO_CAP, lambda_min =
            # 1e-6) reaches ~5e-10 bits, so it is held to the referee instead
            vmin, wit = ifc.kra_term_min(ch, t)
            idx = [p - 1 for p in t.perm]
            at_wit = _chain_value_grad(wit.sigma[np.ix_(idx, idx)],
                                       _chain_covariances(_reduced_channel(ch, t)))[0]
            swept = _pair_kra_scan(ch, t)
            assert at_wit <= swept + 1e-12, (t, at_wit, swept)
            assert abs(vmin - referee_kra_term(ch, wit, t)) <= CERT_TOL, t


def test_pair_minimizers_clamp_to_cap_when_cauchy_schwarz_is_tight():
    ch = ifc.validate_channel(TIGHT)
    _, rhos = ifc.etw_term_min(ch, TIGHT_TERM)
    assert abs(rhos[0]) == pytest.approx(RHO_CAP, abs=1e-15) and rhos[1] == 0
    _, noise = ifc.kra_term_min(ch, TIGHT_TERM)
    assert abs(noise.sigma[0, 1]) == pytest.approx(RHO_CAP, abs=1e-15)


def _pair_rank_check(monkeypatch, ch, t):
    """kra_term_min on a term of one or two users, ranked in closed form
    with no chain covariance built, against the slogdet ranking: the same
    value and witness bytes, unless the pair coupling and the identity tie in
    closed form to within round-off, where either may come first and the
    re-scored values agree to 1e-14 bits.  True when the results differ."""
    def forbidden(*args):
        raise AssertionError("chain covariances built for a term on one or two users")

    with monkeypatch.context() as m:
        m.setattr(outer_bound, "_chain_covariances", forbidden)
        m.setattr(outer_bound, "_chain_value_grad", forbidden)
        ours = ifc.kra_term_min(ch, t)
    ref = slogdet_ranked_pair_min(ch, t)
    if (ours[0], ours[1].sigma.tobytes()) == (ref[0], ref[1].sigma.tobytes()):
        return False
    assert t.size == 2, t
    Hr = _reduced_channel(ch, t)
    a0, a1 = complex(Hr[0, 1]), complex(Hr[1, 1])
    rho = complex(sum(c[0, 1] for c in _kra_start(ch, t)))  # the identity adds 0
    assert abs(_pair_value(0j, a0, a1) - _pair_value(rho, a0, a1)) <= 1e-14, (t, rho)
    assert abs(ours[0] - ref[0]) <= 1e-14, (t, ours[0], ref[0])
    return True


@pytest.mark.parametrize("exponent", range(-12, 4))
def test_pair_ranking_in_closed_form_matches_the_slogdet_ranking(monkeypatch, exponent):
    moved = 0
    for seed in range(20):
        H = random_channel(np.random.default_rng(seed), 3).entries.copy()
        H[~np.eye(3, dtype=bool)] *= 10.0 ** exponent
        ch = ifc.validate_channel(H)
        moved += sum(_pair_rank_check(monkeypatch, ch, t)
                     for t in ifc.enumerate_terms(3) if t.size <= 2)
    # results move only where the coupling gains about an ulp over the
    # identity, which takes cross gains near 1e-8: below that both rankings
    # tie, so the identity comes first; above it both put the coupling first
    assert moved == 0 or exponent in (-8, -7)


def test_pair_ranking_in_closed_form_where_the_cap_binds(monkeypatch):
    assert not _pair_rank_check(monkeypatch, ifc.validate_channel(TIGHT), TIGHT_TERM)


def test_pair_searches_make_no_optimizer_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("outer_bound.minimize called")

    monkeypatch.setattr(outer_bound, "minimize", forbidden)
    ch = random_channel(np.random.default_rng(44), 3)
    for t in ifc.enumerate_terms(3):
        ifc.etw_term_min(ch, t)
        if t.size <= 2:
            ifc.kra_term_min(ch, t)
    # the patch is live: a three-user KRA term still runs the BFGS solve
    with pytest.raises(AssertionError, match="minimize called"):
        ifc.kra_term_min(ch, ifc.BoundTerm((1, 2, 3), (1, 2, 3)))


def test_each_term_is_rescored_once(monkeypatch):
    calls = {"kra": 0, "etw": 0}

    def counting(family, reference):
        def wrapped(*args):
            calls[family] += 1
            return reference(*args)
        return wrapped

    monkeypatch.setattr(outer_bound, "kra_term_value", counting("kra", outer_bound.kra_term_value))
    monkeypatch.setattr(outer_bound, "etw_term_value", counting("etw", outer_bound.etw_term_value))
    ch = random_channel(np.random.default_rng(45), 4)
    for t in ifc.enumerate_terms(4):
        before = dict(calls)
        ifc.kra_term_min(ch, t)
        ifc.etw_term_min(ch, t)
        assert (calls["kra"] - before["kra"], calls["etw"] - before["etw"]) == (1, 1), t


def test_rejected_top_candidate_falls_through(monkeypatch):
    ch = random_channel(np.random.default_rng(46), 3)
    t = ifc.BoundTerm((1, 2, 3), (2, 3, 1))
    reference = outer_bound.kra_term_value
    best, _ = ifc.kra_term_min(ch, t)
    scored = []

    def reject_first(ch_, noise, t_):
        scored.append(noise)
        if len(scored) == 1:
            raise InternalConsistencyError("doctored dual-route disagreement")
        return reference(ch_, noise, t_)

    monkeypatch.setattr(outer_bound, "kra_term_value", reject_first)
    val, wit = ifc.kra_term_min(ch, t)
    assert len(scored) == 2 and wit is scored[1]
    assert reference(ch, scored[0], t) == best  # the rejected one was the top-ranked
    assert val == reference(ch, scored[1], t)
    assert val >= best - 1e-12


def test_rejected_top_genie_candidate_falls_through(monkeypatch):
    ch = random_channel(np.random.default_rng(46), 3)
    t = ifc.BoundTerm((1, 2, 3), (2, 3, 1))
    reference = outer_bound.etw_term_value
    best, _ = ifc.etw_term_min(ch, t)
    scored = []

    def reject_first(ch_, t_, rhos):
        scored.append(rhos)
        if len(scored) == 1:
            raise InternalConsistencyError("doctored dual-route disagreement")
        return reference(ch_, t_, rhos)

    monkeypatch.setattr(outer_bound, "etw_term_value", reject_first)
    val, wit = ifc.etw_term_min(ch, t)
    assert len(scored) == 2 and wit is scored[1] and scored[0] != scored[1]
    assert reference(ch, t, scored[0]) == best  # the rejected one was the top-ranked
    assert val == reference(ch, t, scored[1])
    assert val >= best - 1e-12


@pytest.mark.parametrize("family, size", [("kra", 2), ("kra", 3), ("etw", 2)])
def test_every_candidate_refused_raises_the_last_refusal(monkeypatch, family, size):
    refusals = []

    def refuse(*args):
        refusals.append(InternalConsistencyError(f"refusal {len(refusals) + 1}"))
        raise refusals[-1]

    monkeypatch.setattr(outer_bound, f"{family}_term_value", refuse)
    t = ifc.BoundTerm(tuple(range(1, size + 1)), tuple(range(size, 0, -1)))
    term_min = ifc.kra_term_min if family == "kra" else ifc.etw_term_min
    with pytest.raises(InternalConsistencyError) as info:
        term_min(random_channel(np.random.default_rng(47), size), t)
    assert len(refusals) >= 2 and info.value is refusals[-1]
    assert info.value.__context__ is refusals[-2]  # chained to the earlier refusals


def test_doctored_genie_cross_covariance_trips_the_residual_check(monkeypatch):
    # one E[Y_1 G_2^*] entry off by offset moves the residual variance of G_2
    # by about as much; the closed form does not see it, so the two routes
    # must disagree.  At cross gains of 1000, Var(G_m) ~ 1e6 widens the QR
    # tolerance to ~1e-11 bits, still far below a 1e-4 error.
    t = ifc.BoundTerm((1, 2), (2, 1))
    rhos = (0.5 + 0.2j, 0.0)
    for ch, offset in ((random_channel(np.random.default_rng(48), 2), 1e-6),
                       (ifc.validate_channel(np.array([[1.0, 1e3], [1e3, 1.0]])), 1e-4)):
        ifc.etw_term_value(ch, t, rhos)  # the honest joint passes

        def doctored(ch_, noise, genies, offset=offset):
            j = build_joint(ch_, noise, genies)
            cov = np.array(j.cov)
            iy, ig = j.indices(["Y1", "G2"])
            cov[iy, ig] += offset
            cov[ig, iy] = np.conj(cov[iy, ig])
            return make_joint(j.labels, cov)

        with monkeypatch.context() as m:
            m.setattr(outer_bound, "build_joint", doctored)
            with pytest.raises(InternalConsistencyError,
                               match="residual genie entropy mismatch: QR"):
                ifc.etw_term_value(ch, t, rhos)


def test_genie_residual_check_holds_at_large_cross_gains():
    # cross gains up to ~2000 widen the QR pivot's error with sqrt(Var(G_m));
    # no honest term may trip the check
    rng = np.random.default_rng(70)
    for K in (2, 3) * 15:
        H = 10 ** rng.uniform(1, 3.3, (K, K)) * np.exp(2j * np.pi * rng.random((K, K)))
        np.fill_diagonal(H, 1.0)
        ch = ifc.validate_channel(H)
        for t in ifc.enumerate_terms(K):
            assert np.isfinite(ifc.etw_term_min(ch, t)[0])
            ifc.etw_term_value(ch, t, [0.9 * np.exp(1j * k) for k in range(t.size)])


@pytest.mark.parametrize("K", [2, 3, 4])
def test_etw_term_value_is_the_summand_by_summand_route_bit_for_bit(K):
    # two batched QR calls per term give each summand's pivots as its own
    # pivot_log2det calls do, so every value is the same float
    rng = np.random.default_rng(3100 + K)
    for scale in (0.5, 2.0, 30.0):
        ch = random_channel(rng, K, scale)
        for t in ifc.enumerate_terms(K):
            for rhos in ((0j,) * t.size, ifc.etw_term_min(ch, t)[1],
                         tuple(0.9 * np.exp(1j * k) for k in range(t.size))):
                assert ifc.etw_term_value(ch, t, rhos) == etw_term_by_summand(ch, t, rhos), \
                    (scale, t, rhos)


#: a tiny direct gain under a large cross gain (the CI "Huge gains" spec)
OVERFLOW3 = [[1, 1e10, 0], [0, 1e-300, 0], [0, 0, 1]]


def test_etw_refusal_names_the_first_summand_at_fault():
    ch = ifc.validate_channel(np.array(OVERFLOW3))
    zeros = (0j,) * 3
    # both summands 1 and 2 of this term lose a pivot; summand 1's text wins
    t = ifc.BoundTerm((1, 2, 3), (2, 1, 3))
    root = build_joint(ch, None, [GenieSpec(m, 0j, k) for k, m in zip(t.subset, t.perm)]).root
    with pytest.raises(SingularCovariance, match=r"cov of \['G1'\] given \['X1', 'X2', 'X3', "
                                                 r"'Y2'\] has a pivot within EIG_TOL"):
        pivot_log2det(root[[0, 1, 2, 4, 7]], ["G1"], ["X1", "X2", "X3", "Y2"])
    with pytest.raises(SingularCovariance) as got:
        ifc.etw_term_value(ch, t, zeros)
    assert str(got.value) == "cov of ['X1', 'X2', 'X3', 'Y1'] is singular to working precision"
    # every term refuses as the summand-by-summand route does, text for text
    for t in ifc.enumerate_terms(3):
        texts = []
        for route in (ifc.etw_term_value, etw_term_by_summand):
            try:
                texts.append(repr(route(ch, t, zeros[:t.size])))
            except SingularCovariance as exc:
                texts.append(str(exc))
        assert texts[0] == texts[1], t
    # and the first refusal region meets is the one the CLI prints
    with pytest.raises(SingularCovariance, match=re.escape(
            "cov of ['Y1'] given ['G1'] has a pivot within EIG_TOL")):
        ifc.region(ch, families="etw")


def _etw_refusal_at_summand_2(monkeypatch, pair=None, chain=None):
    """etw_term_value's error on a dense K=3 channel, term (1, 2, 3) -> (2, 3, 1)
    at rho = 0, with the pivot reader doctored: ``pair`` / ``chain`` map a
    pivot (summand, position) of each block stack to its new squared pivot,
    given the block's rows.  Summand 3 always fails its first rule (G1
    singular), so a later summand's text must not win."""
    reader = outer_bound.squared_pivots

    def doctored(rows):
        sq = reader(rows)
        edits = {**(pair or {}), (2, 0): lambda row: 1e-300} if sq.shape[1] == 2 else chain or {}
        for (a, j), value in edits.items():
            sq[a, j] = value(rows[a, j])
        return sq

    monkeypatch.setattr(outer_bound, "squared_pivots", doctored)
    ch = random_channel(np.random.default_rng(36), 3)
    with pytest.raises(Exception) as got:
        ifc.etw_term_value(ch, ifc.BoundTerm((1, 2, 3), (2, 3, 1)), (0j,) * 3)
    return type(got.value), str(got.value)


def test_etw_refusal_of_a_singular_genie_in_its_pair_block(monkeypatch):
    # summand 2's every rule fails; the first, G_m in (G_m, Y_k), is worded
    tiny = lambda row: 1e-300  # noqa: E731  (above zero, so a skipped rule shows)
    got = _etw_refusal_at_summand_2(monkeypatch, pair={(1, 0): tiny, (1, 1): tiny},
                                    chain={(1, 0): tiny, (1, 4): tiny})
    assert got == (SingularCovariance, "cov of ['G3'] is singular to working precision")


def test_etw_refusal_of_a_genie_lost_given_the_inputs_and_its_output(monkeypatch):
    # G_m's pivot after (X, Y_k) at exactly EIG_TOL times its variance (its row's
    # squared norm): refused as lost before the residual check would see it
    got = _etw_refusal_at_summand_2(
        monkeypatch, chain={(1, 4): lambda row: 1e-12 * np.sum(row.real ** 2 + row.imag ** 2)})
    assert got == (SingularCovariance,
                   "cov of ['G3'] given ['X1', 'X2', 'X3', 'Y2'] has a pivot within EIG_TOL = "
                   "1e-12 times its variance (1.000e-12 of it), lost to round-off")


def test_etw_refusal_of_a_residual_genie_entropy_mismatch(monkeypatch):
    # at rho = 0, Var(G_m | X, Y_k) = 1; read as 1/2 it is one bit off
    got = _etw_refusal_at_summand_2(monkeypatch, chain={(1, 4): lambda row: 0.5})
    assert got == (InternalConsistencyError,
                   f"residual genie entropy mismatch: QR {ifc.LOG2PIE + -1.0!r} vs closed form "
                   f"{ifc.LOG2PIE + 0.0!r}")


@pytest.mark.parametrize("share", [0.75, 1.5])
def test_etw_residual_past_half_its_bound_is_walked_and_checked_exactly(monkeypatch, share):
    # the vectorised pass holds the residual identity to half its bound, so
    # summand 2 read at 3/4 of the bound is walked and scored, and at 3/2 of
    # it refused, each as the summand-by-summand reads would
    reader, blocks = outer_bound.squared_pivots, []

    def doctored(rows):
        sq = reader(rows)
        if sq.shape[1] > 2:  # at rho = 0, log2 Var(G_m | X, Y_k) = 0
            bound = 32.0 * np.finfo(float).eps * np.sqrt(np.sum(np.abs(rows[1, -1]) ** 2))
            sq[1, -1] = 2.0 ** (share * bound)
        blocks.append(sq)
        return sq

    monkeypatch.setattr(outer_bound, "squared_pivots", doctored)
    ch = random_channel(np.random.default_rng(36), 3)
    t = ifc.BoundTerm((1, 2, 3), (2, 3, 1))
    if share > 1:
        with pytest.raises(InternalConsistencyError, match="residual genie entropy mismatch"):
            ifc.etw_term_value(ch, t, (0j,) * 3)
        return
    got = ifc.etw_term_value(ch, t, (0j,) * 3)
    want = 0.0
    for y, g in zip(blocks[0][:, 1], blocks[1][:, -1]):
        want += (ifc.LOG2PIE + math.log2(y)) - (ifc.LOG2PIE + math.log2(g))
    assert got == want


def test_etw_referee_matches_the_closed_form():
    rng = np.random.default_rng(71)
    for K in (2, 3):
        ch = random_channel(rng, K)
        for t in ifc.enumerate_terms(K):
            rhos = [0.9 * rng.random() * np.exp(2j * np.pi * rng.random()) for _ in range(t.size)]
            want = referee_etw_term(ch, t, rhos)
            assert abs(ifc.etw_term_value(ch, t, rhos) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("g", [1e2, 3e2, 1e3, 1e4, 1e5])
def test_etw_closed_form_keeps_its_digits_at_large_gains(g):
    # the closed form sums squared 2x2 minors (Lagrange's identity); written
    # as v_y v_g - |c0 + rho|^2 it cancelled to 1.1e-5 bits at g = 1e3.  The
    # reference route's QR pivots err as eps g
    for H in ([[1.0, g], [0.0, g]], [[1.0, g], [g, 1.0]]):
        ch = ifc.validate_channel(np.array(H))
        for t in ifc.enumerate_terms(2):
            for rhos in ((0j,) * t.size, ifc.etw_term_min(ch, t)[1]):
                want = referee_etw_term(ch, t, rhos)
                assert abs(_etw_closed_form(ch.entries, t, rhos) - want) <= 1e-12, (H, t)
                got = ifc.etw_term_value(ch, t, rhos)
                assert abs(got - want) <= 64 * np.finfo(float).eps * g, (H, t)


@pytest.mark.parametrize("g", [1e4, 1e5])
def test_etw_full_set_value_is_exact_at_its_witness(g):
    # a covariance Cholesky route was off by +5.7e-8 bits at 1e4 and -5.29e-6
    # bits at 1e5; the QR pivots of the law's root keep the digits
    ch = ifc.validate_channel(np.array([[1.0, g], [g, 1.0]]))
    full = ifc.region(ch, families="etw").inequalities[-1]
    want = referee_etw_term(ch, ifc.BoundTerm(full.subset, full.witness["perm"]),
                            full.witness["rhos"])
    assert abs(full.value_bits - want) <= 1e-9


def test_etw_zero_rho_guard_beats_a_poor_pair_rho(patch_pair_code):
    ch = random_channel(np.random.default_rng(47), 3)
    ifc.region(ch, families="etw")  # fills this channel's pair table unpatched
    # anti-aligned with the signal cross term, 0.9 costs more than it saves
    patch_pair_code("_pair_rho", lambda p, c: -0.9 * c / abs(c) if c else 0.9j)
    for t in ifc.enumerate_terms(3):
        zeros = (0j,) * t.size
        val, rhos = ifc.etw_term_min(ch, t)
        assert rhos == zeros
        assert val == ifc.etw_term_value(ch, t, zeros)


def test_etw_region_computes_each_summand_pair_once(patch_pair_code):
    # a summand depends only on (k, pi_k): 16 pairs on K = 4, against 196
    # summands over the 64 terms; each term is still re-scored once
    calls = dict.fromkeys(["_etw_summand_data", "_pair_rho", "etw_term_value"], 0)

    def counting(name, reference):
        def wrapped(*args):
            calls[name] += 1
            return reference(*args)
        return wrapped

    for name in calls:
        patch_pair_code(name, counting(name, getattr(outer_bound, name)))
    ifc.region(random_channel(np.random.default_rng(49), 4), families="etw")
    assert calls["_etw_summand_data"] == 16 and calls["_pair_rho"] <= 16
    assert calls["etw_term_value"] == 64


def test_etw_pair_table_gives_each_term_its_own_closed_form():
    # bit for bit what the term's own summands give, with rho = 0 first on a tie
    ch = random_channel(np.random.default_rng(51), 4)
    for t in ifc.enumerate_terms(4):
        data = [_etw_summand_data(ch.entries, k, m) for k, m in zip(t.subset, t.perm)]
        # b = v_y v_g - |c0|^2 - 1 by its 2x2 minors, as the table computes it
        best = tuple(outer_bound._pair_rho(minors + _norm2(h) + _norm2(r), complex(np.vdot(r, h)))
                     for h, r, minors in data)
        top = min([(0j,) * t.size, best],
                  key=lambda rhos: sum(_etw_summand(r, *d) for r, d in zip(rhos, data)))
        assert ifc.etw_term_min(ch, t) == (ifc.etw_term_value(ch, t, top), top), t


# ---------------------------------------------------------------------------
# region assembly

def test_region_diagonal_two_user():
    ch = ifc.validate_channel(np.eye(2))
    rep = ifc.region(ch)
    assert len(rep.inequalities) == 3
    assert abs(rep.sum_rate_upper - 2.0) < 1e-9
    assert rep.consistent
    assert set(rep.per_family_sum_rate) == {"KRA", "ETW"}
    assert abs(rep.lower_bounds["TIN"] - 2.0) < 1e-12


def test_region_single_family():
    ch = ifc.validate_channel(np.eye(2))
    rep = ifc.region(ch, families=(ifc.FAMILY_ETW,))
    assert set(rep.per_family_sum_rate) == {"ETW"}
    assert all(iq.family == "ETW" for iq in rep.inequalities)


def test_region_family_names_are_parsed_once():
    ch = ifc.validate_channel(np.eye(2))
    rep = ifc.region(ch, families=" ETW, ,etw")
    assert rep.config["families"] == ["ETW"]
    assert ifc.region(ch, families=["kra", " Etw "]).config["families"] == ["KRA", "ETW"]
    for bad in ("", " , ", "bogus", ()):
        with pytest.raises(ValidationError):
            ifc.region(ch, families=bad)


def test_region_full_mode_is_capped_at_k6():
    ch = ifc.validate_channel(np.eye(outer_bound.FULL_REGION_MAX_K + 1))
    with pytest.raises(TooLarge, match="sum-rate-only mode"):
        ifc.region(ch)


def test_term_values_leave_size_checks_to_the_joint_law():
    ch = random_channel(np.random.default_rng(3), 2)
    t = ifc.BoundTerm((1, 2), (2, 1))
    with pytest.raises(IndexOutOfRange, match="noise correlation is 3x3"):
        ifc.kra_term_value(ch, ifc.identity_noise(3), t)
    with pytest.raises(IndexOutOfRange, match="outside 1..2"):
        ifc.etw_term_value(ch, ifc.BoundTerm((1, 3), (3, 1)), (0.1, 0.2))


def test_sum_rate_only_past_the_enumeration_cap_takes_the_natural_order():
    K = outer_bound.ENUM_MAX_K + 1
    rep = ifc.region(random_channel(np.random.default_rng(9), K), sum_rate_only=True)
    users = tuple(range(1, K + 1))
    assert [(q.subset, tuple(q.witness["perm"])) for q in rep.inequalities] == [(users, users)]
    assert rep.consistent


def test_region_sum_rate_only_shape():
    rng = np.random.default_rng(29)
    ch = random_upper_triangular_channel(rng, 3)
    rep = ifc.region(ch, sum_rate_only=True)
    assert len(rep.inequalities) == 1
    assert rep.inequalities[0].subset == (1, 2, 3)
    assert rep.sum_rate_upper >= rep.lower_bounds["TIN"] - 1e-9


def test_region_on_strongly_coupled_real_pairs():
    # cross gains up to 8x the direct gains: both reference routes must keep
    # their digits, so no dual-route check fires
    for d in (5, 8, 9, 10):
        for x in (1, 2, 4, 7):
            for y in (10, 15, 20, 25, 30, 40):
                rep = ifc.region(ifc.validate_channel([[d, x], [y, d]]))
                assert rep.consistent, (d, x, y)


def test_region_deterministic():
    rng = np.random.default_rng(30)
    ch = random_upper_triangular_channel(rng, 2)
    r1 = ifc.region(ch).to_json_dict()
    r2 = ifc.region(ch).to_json_dict()
    assert r1 == r2


def test_region_retains_minimum_across_families():
    rng = np.random.default_rng(31)
    ch = random_upper_triangular_channel(rng, 2)
    rep = ifc.region(ch)
    full = [iq for iq in rep.inequalities if iq.subset == (1, 2)][0]
    assert abs(min(rep.per_family_sum_rate.values()) - full.value_bits) < 1e-12
    assert full.value_bits == rep.sum_rate_upper
