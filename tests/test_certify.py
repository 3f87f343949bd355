from functools import partial
from itertools import permutations

import numpy as np
import pytest

import ifcbounds as ifc
import ifcbounds.certify as certify
import ifcbounds.model as model
import ifcbounds.outer_bound as outer_bound
from ifcbounds.certify import (
    BOUND_ONLY,
    CERTIFIED,
    PATH_DEGRADED,
    PATH_MAC,
    PATH_NUMERIC,
    PATH_Z,
)
from ifcbounds.errors import SingularCovariance
from ifcbounds.gaussian_info import LOG2PIE

from support import (
    count_calls,
    random_channel,
    random_gains,
    random_rank_one,
    random_z_channel,
    referee_kra_term,
    sample_interior_sigma,
    slogdet_kra_term,
)


def test_z_channel_certified_via_recovery():
    rng = np.random.default_rng(50)
    ch, _ = random_z_channel(rng, 3)
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == CERTIFIED
    assert cert.path == PATH_Z
    assert abs(cert.gap_bits) <= 1e-9
    assert abs(cert.upper_bits - ifc.tin_sum_rate(ch)) <= 1e-9


def test_rank_one_certified_degraded():
    rng = np.random.default_rng(51)
    ch, a, b = random_rank_one(rng, 4)
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == CERTIFIED
    assert cert.path == PATH_DEGRADED
    direct = ifc.degraded_sum_capacity(a, b)
    assert abs(cert.upper_bits - direct) <= 1e-9


def test_mac_path_on_strong_lower_coupling():
    # not upper-triangular, but the recovered coupling plus receiver-side
    # decodability makes the ladder value tight
    ch = ifc.validate_channel(np.array([[1.0, 0.5], [2.5, 2.0]]))
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == CERTIFIED
    assert cert.path == PATH_MAC
    assert abs(cert.gap_bits) <= 1e-9


def test_large_z_channel_certified_via_recovery():
    # no receiver of a Z channel hears an earlier user, so the joint-decoding
    # cap does not bind however many users there are
    rng = np.random.default_rng(56)
    ch = ifc.build_z_channel(sample_interior_sigma(rng, 22), random_gains(rng, 22))
    cert = ifc.certify_sum_capacity(ch)
    assert (cert.status, cert.path) == (CERTIFIED, PATH_Z)


def test_one_to_many_channel_certified_by_the_ladder():
    # user 1 interferes strongly at every receiver; the others are not heard
    ch = ifc.validate_channel(np.array([[1.0, 0, 0], [3.0, 1.2, 0], [4.0, 0, 0.9]]))
    cert = ifc.certify_sum_capacity(ch)
    assert (cert.status, cert.path) == (CERTIFIED, PATH_MAC)
    assert abs(cert.lower_bits - ifc.tin_sum_rate(ch)) <= 1e-12


def test_single_user_certified_degraded():
    cert = ifc.certify_sum_capacity(ifc.validate_channel([[1.5]]))
    assert (cert.status, cert.path) == (CERTIFIED, PATH_DEGRADED)
    assert abs(cert.upper_bits - np.log2(3.25)) < 1e-12


def test_symmetric_weak_interference_is_bound_only():
    ch = ifc.validate_channel(np.array([[1.0, 0.5], [0.5, 1.0]]))
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == BOUND_ONLY
    assert cert.path is None
    assert cert.gap_bits > 0.01  # genuinely open gap, not a tolerance artifact
    assert cert.upper_bits >= cert.lower_bits


def test_certificate_bounds_are_really_bounds():
    rng = np.random.default_rng(52)
    for _ in range(5):
        ch, _ = random_z_channel(rng, 2)
        cert = ifc.certify_sum_capacity(ch)
        tin = ifc.tin_sum_rate(ch)
        assert cert.lower_bits >= tin - 1e-9
        assert cert.upper_bits >= tin - 1e-9


def test_certification_deterministic():
    ch = ifc.validate_channel(np.array([[1.0, 0.5], [0.5, 1.0]]))
    c1 = ifc.certify_sum_capacity(ch).to_json_dict()
    c2 = ifc.certify_sum_capacity(ch).to_json_dict()
    assert c1 == c2


def test_details_name_the_decision():
    rng = np.random.default_rng(53)
    ch, _ = random_z_channel(rng, 2)
    cert = ifc.certify_sum_capacity(ch)
    assert any("witness" in d or "ladder" in d for d in cert.details)


def test_witness_and_recovery_consistency():
    rng = np.random.default_rng(54)
    ch, sig = random_z_channel(rng, 4)
    rec = ifc.recover_noise_correlation(ch)
    rep = ifc.degradedness_witness(ch, rec)
    assert rep.passed
    assert np.max(np.abs(rec.sigma - sig.sigma)) < 1e-9


def test_rank_deficient_symmetric_pair_certifies_degraded():
    # all-ones gains are unit rank AND recover a fully correlated coupling;
    # the degenerate joint law must not abort the run before the pooled route
    ch = ifc.validate_channel(np.array([[1.0, 1.0], [1.0, 1.0]]))
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == ifc.CERTIFIED
    assert cert.path == ifc.PATH_DEGRADED
    assert abs(cert.upper_bits - np.log2(3)) < 1e-12


def _close_rank_one(rng, K, spacing):
    """Unit-rank channel whose receiver gains |a_k| are `spacing` apart."""
    t = rng.uniform(0.3, 2.3) + spacing * np.arange(K)
    b = (0.3 + rng.random(K)) * np.exp(2j * np.pi * rng.random(K))
    return ifc.rank_one_channel(t * b / np.abs(b), b)


def test_near_equal_rank_one_gains_certify_degraded():
    # near-equal receiver gains put round-off at the size of the residuals a
    # degradedness check would read; certify must reach the pooled route
    ch = ifc.rank_one_channel([1.0, 1.0 + 1e-8, 1.0 + 2e-8], [1.0, 0.8, 0.6])
    cert = ifc.certify_sum_capacity(ch)
    assert (cert.status, cert.path) == (CERTIFIED, PATH_DEGRADED)
    rng = np.random.default_rng(55)
    for _ in range(20):
        cert = ifc.certify_sum_capacity(_close_rank_one(rng, 5, 1e-8))
        assert (cert.status, cert.path) == (CERTIFIED, PATH_DEGRADED)
        assert abs(cert.gap_bits) <= 1e-9


def test_verdicts_do_not_depend_on_the_degradedness_witness(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify must not call the degradedness witness")

    monkeypatch.setattr(certify, "degradedness_witness", refuse)
    z, _ = random_z_channel(np.random.default_rng(50), 3)
    rank_one, _, _ = random_rank_one(np.random.default_rng(51), 4)
    cases = [
        (z, CERTIFIED, PATH_Z),
        (rank_one, CERTIFIED, PATH_DEGRADED),
        (ifc.validate_channel(np.array([[1.0, 1.0], [1.0, 1.0]])), CERTIFIED, PATH_DEGRADED),
        (ifc.validate_channel(np.array([[1.0, 0.5], [2.5, 2.0]])), CERTIFIED, PATH_MAC),
        (ifc.validate_channel(np.array([[1.0, 0.5], [0.5, 1.0]])), BOUND_ONLY, None),
    ]
    for ch, status, path in cases:
        cert = ifc.certify_sum_capacity(ch)
        assert (cert.status, cert.path) == (status, path)


def test_degenerate_recovered_coupling_skips_the_ladder_routes():
    # fully correlated recovered coupling, MAC-feasible, not unit rank: the
    # bound at that coupling cannot be scored, so the MAC route must step
    # aside rather than raise
    ch = ifc.validate_channel(np.array([[1.0, 1.0], [3.0, 1.0]]))
    rec = ifc.recover_noise_correlation(ch)
    assert rec is not None and abs(abs(rec.sigma[0, 1]) - 1.0) < 1e-12
    assert ifc.mac_feasibility(ch).feasible
    cert = ifc.certify_sum_capacity(ch)
    assert cert.status == BOUND_ONLY
    assert "unit-rank gain matrix: no" in cert.details
    assert any("bound at the recovered coupling is degenerate" in d for d in cert.details)


# channels whose sum capacity only the numeric route certifies, with the
# family and ordering of the winning sum-rate inequality.  On the first the
# two families meet TIN to within an ulp, and the genie family reads 1 ulp lower
NUMERIC_CASES = [
    ([[1.0, 0.0], [0.5, 1.0]], "ETW", (2, 1)),
    ([[2.0, 0.0, 0.0], [0.3, 1.5, 0.0], [0.2, 0.4, 1.0]], "KRA", (3, 2, 1)),
]

# the same channels with certify's region run on one family alone, so that
# each family's winner, and so its re-check, is reached
NUMERIC_RECHECKS = [
    NUMERIC_CASES[0],
    NUMERIC_CASES[1],
    (NUMERIC_CASES[0][0], "KRA", (2, 1)),
]


def _certify_on_one_family(monkeypatch, H, family, perm):
    """The channel, with certify's region patched to ``family`` alone, after
    checking that its sum-rate winner is (family, perm)."""
    ch = ifc.validate_channel(np.array(H))
    monkeypatch.setattr(certify, "region", partial(certify.region, families=family))
    ineq = certify.region(ch, sum_rate_only=True).inequalities[-1]
    assert (ineq.family, tuple(ineq.witness["perm"])) == (family, perm)
    return ch


@pytest.mark.parametrize("H, family, perm", NUMERIC_CASES)
def test_numeric_match(H, family, perm):
    ch = ifc.validate_channel(np.array(H))
    ineq = ifc.region(ch, sum_rate_only=True).inequalities[-1]
    assert (ineq.family, tuple(ineq.witness["perm"])) == (family, perm)
    cert = ifc.certify_sum_capacity(ch)
    assert (cert.status, cert.path) == (CERTIFIED, PATH_NUMERIC)
    assert abs(cert.gap_bits) <= 1e-9


@pytest.mark.parametrize("H, family, perm", NUMERIC_RECHECKS)
def test_numeric_match_upper_recheck_is_a_second_route(monkeypatch, patch_pair_code,
                                                      H, family, perm):
    # region scores the winner by kra_term_value / etw_term_value; the recheck
    # must reach the telescoped form (KRA) or the closed-form summands (ETW)
    ch = _certify_on_one_family(monkeypatch, H, family, perm)
    assert ifc.certify_sum_capacity(ch).path == PATH_NUMERIC
    owner, name = ((certify, "_bound_at_coupling") if family == "KRA"
                   else (outer_bound, "_etw_summand"))
    route = getattr(owner, name)

    def doctored(*args):
        return route(*args) + 1e-6
    if owner is outer_bound:
        patch_pair_code(name, doctored)  # the ETW pair table is filled through it
    else:
        monkeypatch.setattr(owner, name, doctored)
    with pytest.raises(ifc.InternalConsistencyError, match="re-verification"):
        ifc.certify_sum_capacity(ch)


@pytest.mark.parametrize("H, family, perm", NUMERIC_RECHECKS)
def test_numeric_match_lower_recheck_is_the_square_root_ladder(monkeypatch, H, family, perm):
    # every case certifies against TIN, re-checked with no earlier input known
    ch = _certify_on_one_family(monkeypatch, H, family, perm)
    assert max(certify.region(ch, sum_rate_only=True).lower_bounds.items(),
               key=lambda kv: kv[1])[0] == "TIN"
    route = certify._ladder_by_information
    calls = []

    def doctored(*args, **kwargs):
        calls.append(kwargs)
        return route(*args, **kwargs) + 1e-6
    monkeypatch.setattr(certify, "_ladder_by_information", doctored)
    with pytest.raises(ifc.InternalConsistencyError, match="re-verification"):
        ifc.certify_sum_capacity(ch)
    assert calls == [{"earlier_known": False}]


# a certificate of each ladder theorem, and the second routes its re-check reaches
LADDER_RECHECKS = [
    ([[1.0, 1.0], [1.0, 1.0]], PATH_DEGRADED, "degraded_chain_sum_rate"),
    ([[1.0, 1.0], [1.0, 1.0]], PATH_DEGRADED, "_ladder_by_information"),
    ([[1.0, 0.4], [0.0, 1.0]], PATH_Z, "_bound_at_coupling"),
    ([[1.0, 0.4], [0.0, 1.0]], PATH_Z, "_ladder_by_information"),
    ([[1.0, 0.5], [2.5, 2.0]], PATH_MAC, "_bound_at_coupling"),
    ([[1.0, 0.5], [2.5, 2.0]], PATH_MAC, "_ladder_by_information"),
]


@pytest.mark.parametrize("H, path, name", LADDER_RECHECKS)
def test_ladder_certificates_are_rechecked_by_a_second_route(monkeypatch, H, path, name):
    ch = ifc.validate_channel(np.array(H))
    assert ifc.certify_sum_capacity(ch).path == path
    route = getattr(certify, name)
    monkeypatch.setattr(certify, name, lambda *args: route(*args) + 1e-6)
    with pytest.raises(ifc.InternalConsistencyError, match="re-verification"):
        ifc.certify_sum_capacity(ch)


@pytest.fixture
def coupling_checks(monkeypatch):
    """Every validate_noise_correlation call, through each module's binding."""
    return count_calls(monkeypatch, model.validate_noise_correlation)


@pytest.mark.parametrize("case", ["etw_term_value", "region-etw", PATH_Z, PATH_MAC,
                                  PATH_DEGRADED])
def test_no_route_revalidates_a_coupling(coupling_checks, case):
    # the identity coupling is never built, and a recovered one is taken as
    # the recursion accepted it
    H = {PATH_Z: [[1.0, 0.4], [0.0, 1.0]], PATH_MAC: [[1.0, 0.5], [2.5, 2.0]],
         PATH_DEGRADED: [[1.0, 1.0], [1.0, 1.0]]}.get(case, [[1.0, 0.5], [0.3j, 2.0]])
    ch = ifc.validate_channel(np.array(H))
    if case == "etw_term_value":
        ifc.etw_term_value(ch, ifc.BoundTerm((1, 2), (2, 1)), (0.3, 0.2j))
    elif case == "region-etw":
        ifc.region(ch, families="etw")
    else:
        assert ifc.certify_sum_capacity(ch).path == case
    assert coupling_checks == []


def _heard_z_channel(rng, K, loud=30.0):
    """A Z channel whose receivers also hear every earlier user, at gain ``loud``."""
    H = random_z_channel(rng, K)[0].entries.copy()
    lower = np.tril_indices(K, -1)
    H[lower] = loud * np.exp(2j * np.pi * rng.random(len(lower[0])))
    return ifc.validate_channel(H)


#: linear-algebra calls a recovery-route certificate makes, whatever K: the
#: unit-rank test, the recovery's PSD test, and a root of the coupling and a
#: QR each for the telescoped bound and kra_term_value's entropy chain, plus
#: one QR for the ladder
RECOVERY_ROUTE_LINALG = {"svd": 1, "eigvalsh": 1, "cholesky": 2, "qr": 3}


@pytest.mark.parametrize("K", [2, 5])
@pytest.mark.parametrize("path, channel", [
    (PATH_Z, lambda rng, K: random_z_channel(rng, K)[0]),
    (PATH_MAC, _heard_z_channel),
])
def test_recovery_route_factorizations_do_not_grow_with_the_users(monkeypatch, K, path,
                                                                    channel):
    ch = channel(np.random.default_rng(57), K)
    counts = {fn.__name__: count_calls(monkeypatch, fn) for fn in
              (outer_bound.kra_term_value, ifc.conditional_entropy, ifc.conditional_mi,
               ifc.build_joint)}
    linalg = {name: count_calls(monkeypatch, getattr(np.linalg, name))
              for name in ("cholesky", "qr", "slogdet", "inv", "solve", "eigh", "eigvalsh", "svd")}
    assert ifc.certify_sum_capacity(ch).path == path
    assert {name: len(calls) for name, calls in counts.items()} == {
        "kra_term_value": 1, "conditional_entropy": 0, "conditional_mi": 0, "build_joint": 0}
    assert {name: len(calls) for name, calls in linalg.items() if calls} == RECOVERY_ROUTE_LINALG


def _entropy_chain_by_queries(ch, noise, order):
    """The full-set term with one conditional_entropy query per output."""
    j = ifc.build_joint(ch, noise)
    total = sum(ifc.conditional_entropy(
        j, [f"Y{user}"], [f"X{i}" for i in order[:k]] + [f"Y{i}" for i in order[:k]])
        for k, user in enumerate(order))
    return total - ch.K * LOG2PIE - float(np.linalg.slogdet(noise.sigma)[1]) / np.log(2.0)


def _constructed(rng, kind, K):
    if kind == "z":
        return random_z_channel(rng, K)[0]
    if kind == "many-to-one":
        v = rng.normal(size=K - 1) + 1j * rng.normal(size=K - 1)
        v *= np.sqrt(rng.uniform(0.2, 0.95) / np.sum(np.abs(v) ** 2))
        return ifc.many_to_one(v, random_gains(rng, K))
    return _heard_z_channel(rng, K, loud=rng.uniform(0.5, 3.0))


@pytest.mark.parametrize("kind", ["z", "mac", "many-to-one"])
def test_square_root_entropy_chain_matches_the_per_query_chain(kind):
    # every ordering up to K=4, six random ones beyond.  The two chains round
    # differently, by up to 3e-14 of the term here; with other draws a term
    # of 21 bits differed by 1.25e-12 bits, so the bound scales with the term
    rng = np.random.default_rng(58)
    for K in range(2, 7):
        for _ in range(3):
            ch = _constructed(rng, kind, K)
            noise = sample_interior_sigma(rng, K)
            orders = (list(permutations(range(1, K + 1))) if K <= 4 else
                      [tuple(int(u) for u in rng.permutation(K) + 1) for _ in range(6)])
            for order in orders:
                want = _entropy_chain_by_queries(ch, noise, order)
                got = ifc.kra_term_value(ch, noise, ifc.BoundTerm(tuple(range(1, K + 1)), order))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (kind, K, order)


def test_entropy_chain_refuses_only_the_output_pivots():
    # a coupling 1e-13 from singular all but fixes Y2 given (X1, Y1)
    ch = ifc.validate_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))
    tight = ifc.validate_noise_correlation(np.array([[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]]))
    with pytest.raises(SingularCovariance, match=r"\['Y2'\] given .* within EIG_TOL"):
        _entropy_chain_by_queries(ch, tight, (1, 2))
    with pytest.raises(SingularCovariance,
                       match=r"\['Y2'\] given \['X1', 'Y1'\] has .* within EIG_TOL"):
        ifc.kra_term_value(ch, tight, ifc.BoundTerm((1, 2), (1, 2)))
    # on a subset the query also names the inputs outside it, conditioned on
    wide = ifc.validate_channel(np.array([[1.0, 1.0, 0.3], [0.0, 1.0, 0.2], [0.1, 0.0, 1.0]]))
    sigma = np.eye(3, dtype=complex)
    sigma[:2, :2] = tight.sigma
    with pytest.raises(SingularCovariance, match=r"\['Y2'\] given \['X1', 'Y1', 'X3'\] has"):
        ifc.kra_term_value(wide, ifc.validate_noise_correlation(sigma),
                           ifc.BoundTerm((1, 2), (1, 2)))
    # a large direct gain leaves X1 given Y1 a variance within EIG_TOL of its
    # own, but above eps times it; X1 is only conditioned on, so the chain
    # scores, and exactly
    ch = ifc.validate_channel(np.array([[3e6, 0.5], [0.0, 1.3]]))
    noise = ifc.validate_noise_correlation(np.array([[1.0, 0.3], [0.3, 1.0]]))
    t = ifc.BoundTerm((1, 2), (1, 2))
    want = referee_kra_term(ch, noise, t)
    assert abs(ifc.kra_term_value(ch, noise, t) - want) <= 1e-12 * want


def _reproducer(shape, g):
    """Large-gain channels on which a covariance-form re-check errs as eps g^2."""
    return ifc.validate_channel(np.array({
        "z3": [[g, 0.4, 0.2], [0, g, 0.3], [0, 0, g]],
        "mac3": [[g, 0, 0], [3 * g, 1.2, 0], [4 * g, 0, 0.9]],
        "z2": [[g, 0.4], [0, g]],
    }[shape], dtype=complex))


@pytest.mark.parametrize("shape, path, top", [
    ("z3", PATH_Z, 5.75), ("mac3", PATH_MAC, 5.25), ("z2", PATH_Z, 5.75)])
def test_large_gain_recovery_certificates_survive_their_rechecks(shape, path, top):
    # g = 10^3 .. 10^top, past which the ladder refuses a pivot within
    # EIG_TOL.  Covariance-form re-checks miss the exact values here by up to
    # 3e-5 bits, eps g^2; the square-root ones stay within 1e-12 of them
    for g in 10.0 ** np.arange(3.0, top + 0.1, 0.25):
        ch = _reproducer(shape, g)
        cert = ifc.certify_sum_capacity(ch)
        assert (cert.status, cert.path) == (CERTIFIED, path), g
        users = tuple(range(1, ch.K + 1))
        full = ifc.BoundTerm(users, users)
        rec = ifc.recover_noise_correlation(ch)
        want = referee_kra_term(ch, rec, full)
        assert abs(outer_bound._bound_at_coupling(ch, rec, full) - want) <= 1e-12 * want, g
        assert abs(ifc.kra_term_value(ch, rec, full) - want) <= 1e-12 * want, g
        assert abs(certify._ladder_by_information(ch) - ifc.tin_sum_rate(ch)) <= 1e-12 * want, g


def _huge_direct_gains(g):
    """A dense K = 3 term whose first two direct gains are g: (channel,
    identity coupling, full-set term in natural order)."""
    ch = ifc.validate_channel(np.array([[g, 0.5, 0.2], [0.3, g, 0.4], [0.1, 0.6, 1.0]]))
    return ch, ifc.identity_noise(3), ifc.BoundTerm((1, 2, 3), (1, 2, 3))


@pytest.mark.parametrize("g", [1e9, 1e12])
def test_kra_recheck_keeps_its_digits_at_huge_direct_gains(g):
    # the telescoped re-check reads QR factors of the blocks' roots [L_n | T]:
    # within an ulp or two of the 50-digit value where the chain below is not
    ch, noise, t = _huge_direct_gains(g)
    want = referee_kra_term(ch, noise, t)
    assert abs(outer_bound._bound_at_coupling(ch, noise, t) - want) <= 1e-15 * want


def test_kra_chain_at_huge_direct_gains_is_exact_or_refused():
    # X_1 and X_2 given the outputs before them keep 1.3e-24 of their variance
    # at g = 1e12 (1.3e-18 at 1e9), below the eps rule pivot_log2det applies to
    # a conditioning set; read past them, the chain would be 2.5e-4 bits below
    # the referee (3.9e-8 at 1e9), a bound below its exact value
    for g in (1e9, 1e12):
        ch, noise, t = _huge_direct_gains(g)
        want = referee_kra_term(ch, noise, t)
        try:
            got = ifc.kra_term_value(ch, noise, t)
        except SingularCovariance as exc:  # worded as pivot_log2det words it
            assert "cov of ['X1', 'Y1'] is singular to working precision" in str(exc)
            continue
        assert abs(got - want) <= 1e-9, g


def test_bound_at_the_recovered_coupling_is_read_off_square_roots():
    # the telescoped blocks Sigma_n + T T^H as slogdets of their covariances
    # err as eps g^2: at gains [4, 2000] that form misses the ladder by 3.1e-9
    # bits, while their square roots stay within 1e-12 of the 50-digit value
    ch = ifc.validate_channel(np.array([[4.0, 1800.0], [0.0, 2000.0]]))
    rec = ifc.recover_noise_correlation(ch)
    full = ifc.BoundTerm((1, 2), (1, 2))
    want = referee_kra_term(ch, rec, full)
    assert abs(outer_bound._bound_at_coupling(ch, rec, full) - want) <= 1e-12 * want
    assert abs(outer_bound._bound_at_coupling(ch, rec, full) - ifc.tin_sum_rate(ch)) <= 1e-11
    # on moderate gains both forms agree with the referee and each other, in
    # the natural order and in a random order of a random subset
    rng = np.random.default_rng(60)
    for _ in range(40):
        K = int(rng.integers(2, 6))
        ch, sig = random_z_channel(rng, K)
        users = tuple(range(1, K + 1))
        subset = tuple(sorted(int(u) for u in rng.choice(users, int(rng.integers(1, K + 1)),
                                                         replace=False)))
        for t in (ifc.BoundTerm(users, users),
                  ifc.BoundTerm(subset, tuple(int(u) for u in rng.permutation(subset)))):
            want = referee_kra_term(ch, sig, t)
            got = outer_bound._bound_at_coupling(ch, sig, t)
            idx = [p - 1 for p in t.perm]
            lean = slogdet_kra_term(outer_bound._reduced_channel(ch, t),
                                    sig.sigma[np.ix_(idx, idx)])
            assert abs(got - want) <= 1e-13 * max(1.0, want), t
            assert abs(got - lean) <= 1e-12 * max(1.0, want), t


def test_square_root_ladder_refuses_as_the_covariance_route_did():
    # at g = 1e6 Y3 given (X3, X1, X2) keeps 1e-12 of its variance, the same
    # query conditional_mi refused on
    with pytest.raises(SingularCovariance,
                       match=r"cov of \['Y3'\] given \['X3', 'X1', 'X2'\] has a pivot"):
        certify._ladder_by_information(_reproducer("z3", 1e6))
    with pytest.raises(SingularCovariance, match=r"cov of \['Y2'\] given \['X1'\] has a pivot"):
        certify._ladder_by_information(_reproducer("mac3", 10 ** 5.75))


def test_interference_as_noise_ladder_matches_the_closed_form():
    rng = np.random.default_rng(59)
    for K in range(1, 6):
        for scale in (0.5, 3.0, 300.0):
            ch = random_channel(rng, K, scale)
            want = ifc.tin_sum_rate_general(ch)
            got = certify._ladder_by_information(ch, earlier_known=False)
            assert abs(got - want) <= 1e-12 * max(1.0, want), (K, scale)


def test_interference_as_noise_ladder_refuses_as_conditional_mi_does():
    # a direct gain of 1e7 over unit interference leaves Y1 given X1 2e-14 of
    # its variance
    ch = ifc.validate_channel(np.array([[1e7, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularCovariance) as want:
        ifc.conditional_mi(ifc.build_joint(ch), ["Y1"], ["X1"])
    with pytest.raises(SingularCovariance) as got:
        certify._ladder_by_information(ch, earlier_known=False)
    assert str(got.value) == str(want.value)
    assert str(want.value).startswith("cov of ['Y1'] given ['X1'] has a pivot within EIG_TOL")
