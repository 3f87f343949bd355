import numpy as np
import pytest
import re

from hypothesis import given, settings, strategies as st

import ifcbounds as ifc
from ifcbounds.errors import (
    IndexOutOfRange, InternalConsistencyError, LabelOverlap, NotPSD, RhoTooLarge,
    SingularCovariance)
from ifcbounds.gaussian_info import LOG2PIE, RHO_CAP, squared_pivots
from ifcbounds.model import make_joint

from support import (
    count_calls, random_channel, random_joint, referee_conditioning, referee_joint_cov,
    referee_log2det, sample_interior_sigma)

LOG2PIE_EXPECTED = np.log2(np.pi * np.e)


def test_single_user_joint_covariance():
    ch = ifc.validate_channel([[1.0]])
    j = ifc.build_joint(ch, ifc.identity_noise(1))
    assert j.labels == ("X1", "Y1")
    assert np.allclose(j.cov, [[1.0, 1.0], [1.0, 2.0]])


def test_diagonal_outputs_uncorrelated():
    ch = ifc.validate_channel(np.eye(2))
    j = ifc.build_joint(ch, ifc.identity_noise(2))
    iy = j.indices(["Y1", "Y2"])
    block = j.cov[np.ix_(iy, iy)]
    assert np.allclose(block, 2.0 * np.eye(2))


def test_genie_output_cross_covariance():
    rng = np.random.default_rng(9)
    ch = random_channel(rng, 2)
    H = ch.entries
    gen = ifc.GenieSpec(target=2, rho=0.5, paired_with=1)
    j = ifc.build_joint(ch, ifc.identity_noise(2), [gen])
    iy, ig = j.indices(["Y1"])[0], j.indices(["G2"])[0]
    expected = H[0, 0] * np.conj(H[1, 0]) + 0.5
    assert abs(j.cov[iy, ig] - expected) < 1e-12


def test_genie_covariance_against_sampled_moments():
    # brute-force moment estimate of the (Y1, G2) cross-covariance
    g = 0.7
    H = np.array([[1.0, 0.3], [g, 2.0]], dtype=complex)
    ch = ifc.validate_channel(H)
    rho = 0.5
    gen = ifc.GenieSpec(target=2, rho=rho, paired_with=1)
    j = ifc.build_joint(ch, ifc.identity_noise(2), [gen])

    rng = np.random.default_rng(123)
    n = 1_000_000

    def cnormal(size):
        return (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.sqrt(2)

    x1, x2, z1, z2, w0 = (cnormal(n) for _ in range(5))
    w = rho * z1 + np.sqrt(1 - rho ** 2) * w0  # unit power, corr rho with Z1
    y1 = H[0, 0] * x1 + H[0, 1] * x2 + z1
    g2 = H[1, 0] * x1 + w
    est = np.mean(y1 * np.conj(g2))
    iy, ig = j.indices(["Y1"])[0], j.indices(["G2"])[0]
    assert abs(est - j.cov[iy, ig]) < 5e-3


def test_genie_duplicate_target_rejected():
    ch = ifc.validate_channel(np.eye(2))
    gens = [ifc.GenieSpec(target=2, rho=0.0, paired_with=1),
            ifc.GenieSpec(target=2, rho=0.1, paired_with=2)]
    with pytest.raises(LabelOverlap):
        ifc.build_joint(ch, ifc.identity_noise(2), gens)


def test_genie_bad_index_rejected():
    ch = ifc.validate_channel(np.eye(2))
    with pytest.raises(IndexOutOfRange):
        ifc.build_joint(ch, ifc.identity_noise(2), [ifc.GenieSpec(3, 0.0, 1)])


def test_rho_cap_enforced():
    with pytest.raises(RhoTooLarge):
        ifc.GenieSpec(target=1, rho=0.9999999, paired_with=1)


@pytest.mark.parametrize("rho", [complex("nan"), complex(0.1, float("nan")), complex("inf")])
def test_non_finite_rho_rejected(rho):
    # build_joint trusts GenieSpec for a finite rho and checks no covariance
    # entry, so a NaN must stop here
    with pytest.raises(RhoTooLarge):
        ifc.GenieSpec(2, rho, 1)


def _random_genies(rng, K, n_g, rho_max):
    targets = rng.permutation(np.arange(1, K + 1))[:n_g]
    return [ifc.GenieSpec(int(m), rho_max * rng.random() * np.exp(2j * np.pi * rng.random()),
                          int(rng.integers(1, K + 1))) for m in targets]


def test_joint_assembly_matches_the_entrywise_referee():
    # the written root against the model entry by entry at 50 digits: every
    # GenieSpec up to RHO_CAP has a law, with or without a coupling, and with
    # genies that share a receiver
    rng = np.random.default_rng(12)
    cases = [(random_channel(rng, K), sample_interior_sigma(rng, K) if rng.random() < 0.5 else None,
              _random_genies(rng, K, int(rng.integers(0, K + 1)), RHO_CAP))
             for K in (1, 2, 3, 4) for _ in range(10)]
    ch = random_channel(rng, 3)
    cases += [(ch, sample_interior_sigma(rng, 3),
               [ifc.GenieSpec(2, 0.3 + 0.1j, 1), ifc.GenieSpec(3, -0.2j, 1)]),
              (ch, ifc.validate_noise_correlation([[1, 0.95, 0], [0.95, 1, 0], [0, 0, 1]]),
               [ifc.GenieSpec(2, RHO_CAP, 1), ifc.GenieSpec(3, RHO_CAP * 1j, 1)]),
              (ch, None, [ifc.GenieSpec(2, RHO_CAP, 3), ifc.GenieSpec(3, RHO_CAP * 1j, 3)])]
    shared = [sig is not None for _, sig, gens in cases
              if len(gens) > len({g.paired_with for g in gens})]
    assert True in shared and False in shared
    for ch, sig, gens in cases:
        want = referee_joint_cov(ch, sig or ifc.identity_noise(ch.K), gens)
        got = ifc.build_joint(ch, sig, gens).cov
        scale = np.sqrt(np.outer(np.diagonal(want).real, np.diagonal(want).real))
        assert np.all(np.abs(got - want) <= 1e-12 * scale), (ch.K, len(gens))


def test_genie_noise_given_its_receiver_noise_is_the_fresh_part():
    # given the inputs and Y_k, G_m's noise is sqrt(1 - |rho|^2) W', whatever the
    # coupling and the other genies: a strong coupling beside a strong genie
    # correlation, and two strong genies on one receiver, both have a law
    rng = np.random.default_rng(13)
    sig = ifc.validate_noise_correlation([[1.0, 0.95, 0.0], [0.95, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ch = random_channel(rng, 3)
    xs = ["X1", "X2", "X3"]
    for noise, gens in ((sig, [ifc.GenieSpec(2, 0.9, 1)]),
                        (sig, [ifc.GenieSpec(2, 0.8, 3), ifc.GenieSpec(3, 0.8j, 3)]),
                        (None, [ifc.GenieSpec(2, 0.8, 3), ifc.GenieSpec(3, 0.8j, 3)])):
        j = ifc.build_joint(ch, noise, gens)
        for g in gens:
            got = ifc.conditional_entropy(j, [f"G{g.target}"], xs + [f"Y{g.paired_with}"])
            assert abs(got - (LOG2PIE + np.log2(1.0 - abs(g.rho) ** 2))) < 1e-12, (noise, g)


def test_two_genies_on_one_receiver_share_its_noise():
    # Z~_a = conj(rho_a) Z_k + sqrt(1 - |rho_a|^2) W'_a, so two genies on Z_k
    # have noise correlation conj(rho_2) rho_3, and given the inputs they share
    # -log2(1 - |rho_2 rho_3|^2) bits
    ch = random_channel(np.random.default_rng(14), 3)
    gens = [ifc.GenieSpec(2, 0.8, 3), ifc.GenieSpec(3, 0.8j, 3)]
    j = ifc.build_joint(ch, None, gens)
    i2, i3 = j.indices(["G2", "G3"])
    r2, r3 = (np.where(np.arange(3) == m - 1, 0.0, ch.entries[m - 1]) for m in (2, 3))
    assert abs(j.cov[i2, i3] - np.vdot(r3, r2) - 0.8 * 0.8j) < 1e-12
    got = ifc.conditional_mi(j, ["G2"], ["G3"], ["X1", "X2", "X3"])
    assert abs(got + np.log2(1.0 - 0.64 ** 2)) < 1e-12


def test_genies_on_distinct_receivers_need_no_eigen_check():
    # without a coupling, Cov(Z, Z~) is a direct sum of ones and blocks
    # [[1, rho], [conj(rho), 1]]: its smallest eigenvalue is 1 - max|rho|,
    # positive up to RHO_CAP
    rng = np.random.default_rng(15)
    for _ in range(60):
        K = int(rng.integers(1, 6))
        n_g = int(rng.integers(1, K + 1))
        mags = RHO_CAP * rng.random(n_g)
        phases = np.exp(2j * np.pi * rng.random(n_g))
        top = rng.integers(n_g)  # one genie at the cap, its phase a quarter turn
        mags[top], phases[top] = RHO_CAP * rng.choice([0.5, 1.0]), 1j ** rng.integers(4)
        genies = [ifc.GenieSpec(int(m), r * p, int(k))
                  for m, k, r, p in zip(rng.permutation(K)[:n_g] + 1,
                                        rng.permutation(K)[:n_g] + 1, mags, phases)]
        j = ifc.build_joint(random_channel(rng, K), None, genies)
        B = j.cov[K:, :K]
        w = np.linalg.eigvalsh(j.cov[K:, K:] - B @ B.conj().T)
        assert w[0] >= 1.0 - max(mags) - 1e-12, (K, n_g)


def test_genie_terms_make_no_eigen_solve(monkeypatch):
    # one law per (subset, ordering) term, 64 at K = 4, and none eigen-factored
    laws = count_calls(monkeypatch, ifc.build_joint)
    eigen = [count_calls(monkeypatch, np.linalg.eigvalsh), count_calls(monkeypatch, np.linalg.eigh)]
    ifc.region(random_channel(np.random.default_rng(16), 4), families="etw")
    assert (len(laws), sum(map(len, eigen))) == (ifc.count_bounds(4), 0)


# ---------------------------------------------------------------------------
# entropies

def test_unit_scalar_entropy():
    ch = ifc.validate_channel([[1.0]])
    j = ifc.build_joint(ch, ifc.identity_noise(1))
    assert abs(ifc.diff_entropy(j, ["X1"]) - LOG2PIE_EXPECTED) < 1e-12
    assert abs(LOG2PIE - LOG2PIE_EXPECTED) < 1e-15


def test_entropy_additive_for_independent_scalars():
    ch = ifc.validate_channel(np.eye(2))
    j = ifc.build_joint(ch, ifc.identity_noise(2))
    assert abs(ifc.diff_entropy(j, ["X1", "X2"]) - 2 * LOG2PIE_EXPECTED) < 1e-12


def test_entropy_matches_eigenvalue_product():
    rng = np.random.default_rng(4)
    j, _, _ = random_joint(rng, 2)
    labels = ["X1", "Y1", "X2", "Y2"]
    idx = j.indices(labels)
    w = np.linalg.eigvalsh(j.cov[np.ix_(idx, idx)])
    expected = len(labels) * LOG2PIE_EXPECTED + np.sum(np.log2(w))
    assert abs(ifc.diff_entropy(j, labels) - expected) < 1e-10


def test_degenerate_entropy_raises():
    # a repeated label makes the covariance block exactly singular
    ch = ifc.validate_channel([[1.0]])
    j = ifc.build_joint(ch, ifc.identity_noise(1))
    with pytest.raises(SingularCovariance):
        ifc.diff_entropy(j, ["Y1", "Y1"])


# ---------------------------------------------------------------------------
# conditional mutual information

def test_unit_snr_link_is_one_bit():
    ch = ifc.validate_channel([[1.0]])
    j = ifc.build_joint(ch, ifc.identity_noise(1))
    assert abs(ifc.conditional_mi(j, ["Y1"], ["X1"], []) - 1.0) < 1e-12


def test_independent_blocks_zero_mi():
    ch = ifc.validate_channel(np.eye(2))
    j = ifc.build_joint(ch, ifc.identity_noise(2))
    assert ifc.conditional_mi(j, ["Y1"], ["X2"], []) == 0.0


def test_overlap_rejected():
    ch = ifc.validate_channel(np.eye(2))
    j = ifc.build_joint(ch, ifc.identity_noise(2))
    with pytest.raises(LabelOverlap):
        ifc.conditional_mi(j, ["Y1"], ["Y1"], [])


def test_conditional_entropy_overlap_rejected():
    ch = ifc.validate_channel(np.eye(2))
    j = ifc.build_joint(ch, ifc.identity_noise(2))
    with pytest.raises(LabelOverlap):
        ifc.conditional_entropy(j, ["Y1"], ["Y1"])


def test_deterministic_conditioning_raises():
    # conditioning on (X1, X2, Y1) pins Y1's noise; asking about Y1 again is
    # fine, but a deterministic *target* must raise
    H = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    ch = ifc.validate_channel(H)
    sig = np.array([[1.0, 1.0 - 1e-16], [1.0 - 1e-16, 1.0]])
    # noise correlation 1 makes Y2 a deterministic function of (X1, X2, Y1)
    j = ifc.build_joint(ch, ifc.validate_noise_correlation(sig))
    with pytest.raises(SingularCovariance):
        ifc.conditional_mi(j, ["Y2"], ["X2"], ["X1", "Y1"])


def test_mi_nonnegative_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(200):
        K = int(rng.integers(1, 4))
        j, _, _ = random_joint(rng, K)
        labels = list(j.labels)
        rng.shuffle(labels)
        a = [labels[0]]
        b = labels[1:1 + int(rng.integers(1, 3))]
        c = labels[1 + len(b):1 + len(b) + int(rng.integers(0, 3))]
        if not b:
            continue
        v = ifc.conditional_mi(j, a, b, c)
        assert v >= 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_chain_rule(seed, K):
    rng = np.random.default_rng(seed)
    j, _, _ = random_joint(rng, K)
    xs = [f"X{k}" for k in range(1, K + 1)]
    ys = [f"Y{k}" for k in range(1, K + 1)]
    a, b, b2 = [ys[0]], [xs[0]], [xs[1]]
    c = ys[1:2]
    joint = ifc.conditional_mi(j, a, b + b2, c)
    split = ifc.conditional_mi(j, a, b, c) + ifc.conditional_mi(j, a, b2, c + b)
    assert abs(joint - split) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_symmetry(seed):
    rng = np.random.default_rng(seed)
    j, _, _ = random_joint(rng, 3)
    a, b, c = ["Y1", "Y2"], ["X1", "X3"], ["X2"]
    assert abs(ifc.conditional_mi(j, a, b, c) - ifc.conditional_mi(j, b, a, c)) < 1e-9


def test_conditional_entropy_agrees_with_the_referee_under_strong_coupling():
    # conditioning on (Y, X) must not invert that block, whose condition
    # number grows like |h|^4
    for d in (5, 8, 9, 10):
        for x in (1, 2, 4, 7):
            for y in (10, 15, 20, 25, 30, 40):
                ch = ifc.validate_channel([[d, x], [y, d]])
                j = ifc.build_joint(ch, ifc.identity_noise(2), [ifc.GenieSpec(2, 0.5 + 0.2j, 1)])

                def ld(labels):
                    idx = j.indices(labels)
                    return referee_log2det(j.cov[np.ix_(idx, idx)])

                for a, c in ((["G2"], ["Y1", "X1", "X2"]), (["Y1"], ["G2"]), (["Y2"], ["Y1", "X1"])):
                    ref = LOG2PIE + ld(c + a) - ld(c)
                    assert abs(ifc.conditional_entropy(j, a, c) - ref) < 1e-12, (d, x, y, a)


# ---------------------------------------------------------------------------
# genie law invariants

def test_genie_marginal_matches_output_given_input():
    # genies ride on the actual channel law (independent receiver noises)
    rng = np.random.default_rng(77)
    for _ in range(50):
        K = int(rng.integers(2, 5))
        ch = random_channel(rng, K)
        m = int(rng.integers(1, K + 1))
        k = int(rng.integers(1, K + 1))
        rho = 0.8 * rng.random() * np.exp(2j * np.pi * rng.random())
        j = ifc.build_joint(ch, ifc.identity_noise(K),
                            [ifc.GenieSpec(m, rho, k)])
        ig = j.indices([f"G{m}"])[0]
        expected = 1.0 + np.sum(np.abs(np.delete(ch.entries[m - 1], m - 1)) ** 2)
        assert abs(j.cov[ig, ig].real - expected) < 1e-12
        # same number through the conditional-covariance route
        hyx = ifc.conditional_entropy(j, [f"Y{m}"], [f"X{m}"])
        hg = ifc.diff_entropy(j, [f"G{m}"])
        assert abs(hyx - hg) < 1e-10


def test_genie_cancellation_sum():
    rng = np.random.default_rng(88)
    for _ in range(20):
        K = int(rng.integers(2, 5))
        ch = random_channel(rng, K)
        subset = sorted(rng.choice(np.arange(1, K + 1), size=int(rng.integers(1, K + 1)),
                                   replace=False).tolist())
        perm = list(subset)
        rng.shuffle(perm)
        gens = [ifc.GenieSpec(int(m), 0.3, int(k)) for k, m in zip(subset, perm)]
        j = ifc.build_joint(ch, ifc.identity_noise(K), gens)
        lhs = sum(ifc.diff_entropy(j, [f"G{m}"]) for m in perm)
        rhs = sum(ifc.conditional_entropy(j, [f"Y{k}"], [f"X{k}"]) for k in subset)
        assert abs(lhs - rhs) < 1e-10


def test_a_coupling_that_is_not_positive_definite_is_refused():
    # every channel law is built on square_root, which refuses a singular
    # coupling with or without genies; a strong coupling beside a strong
    # genie correlation builds, the genie's noise written on its receiver's
    ch = ifc.validate_channel(np.eye(2))
    singular = ifc.validate_noise_correlation([[1.0, 1.0], [1.0, 1.0]])
    for gens in ([], [ifc.GenieSpec(2, 0.9, 1)]):
        with pytest.raises(SingularCovariance, match="the noise coupling is not positive definite"):
            ifc.build_joint(ch, singular, gens)
    sig = ifc.validate_noise_correlation([[1.0, 0.95], [0.95, 1.0]])
    assert ifc.build_joint(ch, sig, [ifc.GenieSpec(2, 0.9, 1)]).dim == 5


# ---------------------------------------------------------------------------
# the conditioning queries against the plain route and the 50-digit referee

def _random_law(rng):
    """build_joint on K = 2..4 users, with or without a noise coupling and
    genies; returns the law and whether it has a coupling."""
    K = int(rng.integers(2, 5))
    ch = random_channel(rng, K)
    noise = sample_interior_sigma(rng, K) if rng.random() < 0.5 else None
    genies = _random_genies(rng, K, int(rng.integers(0, K + 1)), 0.9)
    return ifc.build_joint(ch, noise, genies), noise is not None


def _random_query(rng, labels):
    """Disjoint label lists (A, B, C) in random order, A and B nonempty."""
    while True:
        labels = [str(lab) for lab in rng.permutation(labels)]
        part = rng.integers(0, 4, len(labels))  # 3 leaves a label out
        a, b, c = ([lab for lab, p in zip(labels, part) if p == i] for i in range(3))
        if a and b:
            return a, b, c


#: the refusal text with its ratio masked: the QR pivots and the covariance
#: factor's round a near-zero pivot differently in its third digit
_RATIO = re.compile(r"\(\d\.\d{3}e[+-]\d+ of it\)")


def _same_refusal(call, want_exc):
    with pytest.raises(SingularCovariance) as got:
        call()
    assert _RATIO.sub("(r of it)", str(got.value)) == _RATIO.sub("(r of it)", str(want_exc))


def test_conditioning_queries_match_the_plain_route():
    # the covariance Cholesky factor of each block, M M^H formed in floats:
    # on these gains the two routes agree to round-off
    rng = np.random.default_rng(2301)
    n_genie = n_noise = 0
    for _ in range(120):
        j, coupled = _random_law(rng)
        n_genie += any(lab.startswith("G") for lab in j.labels)
        n_noise += coupled
        for _ in range(4):
            a, b, c = _random_query(rng, j.labels)
            ld_c, _ = referee_conditioning(j, a, c)
            ld_bc, _ = referee_conditioning(j, a, b + c)
            want = len(a) * LOG2PIE + ld_c
            # relative to the terms that cancel: an entropy near zero is a
            # difference of two of a few bits, and errs as they do
            assert abs(ifc.conditional_entropy(j, a, c) - want) <= 1e-12 * (len(a) * LOG2PIE
                                                                              + abs(ld_c))
            mi = ld_c - ld_bc
            if mi < -1e-9:
                with pytest.raises(InternalConsistencyError):
                    ifc.conditional_mi(j, a, b, c)
            else:
                assert abs(ifc.conditional_mi(j, a, b, c) - max(mi, 0.0)) <= 1e-12
    assert n_genie >= 60 and n_noise >= 30


@pytest.mark.parametrize("g", [1e3, 1e4, 1e5])
def test_conditioning_at_large_gains_keeps_its_digits(g):
    # integer gains and genie correlations of a few bits make every covariance
    # entry exact in floats, so the 50-digit referee of each block decides.
    # QR pivots of the root err as eps g; a covariance Cholesky factor erred
    # as eps g^2 here: 2.5e-10, 4.7e-8 and 9.2e-7 bits
    ch = ifc.validate_channel([[1.0, g], [0.0, g]])
    genies = [ifc.GenieSpec(1, 0.5, 2), ifc.GenieSpec(2, -0.25j, 1)]
    j = ifc.build_joint(ch, None, genies)
    cov = referee_joint_cov(ch, ifc.identity_noise(2), genies)

    def ld(labels):
        idx = j.indices(labels)
        return referee_log2det(cov[np.ix_(idx, idx)]) if labels else 0.0

    for a, c in ((["Y2"], ["G1"]), (["Y1"], ["G2"]), (["G1"], ["X1", "X2", "Y2"]),
                 (["Y1"], ["Y2"]), (["Y2", "Y1"], []), (["G2"], ["Y1"])):
        want = len(a) * LOG2PIE + ld(c + a) - ld(c)
        assert abs(ifc.conditional_entropy(j, a, c) - want) <= 64 * np.finfo(float).eps * g, a


def test_refusal_texts_are_unchanged():
    # a lost pivot: noise correlation 1 - 1e-13 all but pins Y2 given (X1, X2, Y1)
    ch = ifc.validate_channel(np.array([[1.0, 0.0], [1.0, 1.0]]))
    sig = ifc.validate_noise_correlation([[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]])
    j = ifc.build_joint(ch, sig)
    a, c = ["Y2"], ["X2", "X1", "Y1"]
    with pytest.raises(SingularCovariance) as want:
        referee_conditioning(j, a, c)
    assert re.fullmatch(
        r"cov of \['Y2'\] given \['X2', 'X1', 'Y1'\] has a pivot within EIG_TOL = 1e-12 "
        r"times its variance \(\d\.\d{3}e[+-]\d+ of it\), lost to round-off", str(want.value))
    _same_refusal(lambda: ifc.conditional_entropy(j, a, c), want.value)
    _same_refusal(lambda: ifc.conditional_mi(j, a, ["X2"], ["X1", "Y1"]), want.value)

    # a covariance that is not PSD is refused where its law is built
    with pytest.raises(NotPSD) as got:
        make_joint(("A", "B"), np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert str(got.value) == "covariance has eigenvalue -1.000e+00: no such joint law exists"


def test_a_singular_conditioning_set_is_refused_in_every_order():
    # Y2 = Y1 + X2 under fully correlated noise: past a lost pivot of C the QR
    # would condition on a direction round-off chose (Var(X1 | C) is 1/2, and
    # one order read it as 0); square_root refuses that coupling, so the law
    # comes from its covariance, (X1, X2, Y1, Y2) written out
    j = make_joint(("X1", "X2", "Y1", "Y2"), np.array(
        [[1, 0, 1, 1], [0, 1, 0, 1], [1, 0, 2, 2], [1, 1, 2, 3]], dtype=float))
    for c in (["Y1", "Y2", "X2"], ["X2", "Y1", "Y2"], ["Y2", "X2", "Y1"]):
        with pytest.raises(SingularCovariance, match=re.escape(f"cov of {c} is singular")):
            ifc.conditional_entropy(j, ["X1"], c)
    assert abs(ifc.conditional_entropy(j, ["X1"], ["Y1", "X2"]) - (LOG2PIE - 1.0)) < 1e-15


def test_stacked_squared_pivots_are_each_blocks_own():
    # one batched QR factors each block as its own call does, bit for bit,
    # whatever the stack's shape, the blocks' sizes and the rows' scales; and
    # without a QR, each pivot is the squared diagonal of the Cholesky factor
    # of its block's covariance, the row's variance given the rows before it
    rng = np.random.default_rng(2303)
    for shape in ((5, 2, 7), (4, 6, 6), (3, 7, 11), (2, 3, 4, 9), (6, 1, 3)):
        rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rows *= 10.0 ** rng.uniform(-4.0, 4.0, shape[:-1] + (1,))
        stacked = squared_pivots(rows)
        assert stacked.shape == shape[:-1]
        for idx in np.ndindex(*shape[:-2]):
            assert np.array_equal(stacked[idx], squared_pivots(np.array(rows[idx]))), (shape, idx)
        chol = np.linalg.cholesky(rows @ np.swapaxes(rows.conj(), -1, -2))
        assert np.allclose(stacked, np.abs(np.diagonal(chol, axis1=-2, axis2=-1)) ** 2,
                           rtol=1e-12, atol=0.0), shape


def test_each_law_answers_with_its_own_label_order():
    rng = np.random.default_rng(2302)
    j1 = ifc.build_joint(random_channel(rng, 3), None, [ifc.GenieSpec(2, 0.4j, 1)])
    perm = rng.permutation(j1.dim)
    j2 = ifc.JointGaussian(tuple(j1.labels[p] for p in perm), root=j1.root[perm])
    names = ["G2", "Y3", "X1", "Y1"]
    for j in (j2, j1, j2):
        got = j.indices(names)
        assert type(got) is list and got == [j.labels.index(n) for n in names]
    assert j1.indices(names) != j2.indices(names)
    a, c = ["Y1", "G2"], ["X2", "Y3"]
    assert ifc.conditional_entropy(j1, a, c) == ifc.conditional_entropy(j2, a, c)


def test_unknown_label_raises_key_error_naming_it():
    j = ifc.build_joint(ifc.validate_channel(np.eye(2)))
    for call in (lambda: j.indices(["X1", "Y9"]),
                 lambda: ifc.conditional_entropy(j, ["Y9"], ["X1"])):
        with pytest.raises(KeyError) as got:
            call()
        assert got.value.args == (f"label 'Y9' not in joint ({j.labels})",)
