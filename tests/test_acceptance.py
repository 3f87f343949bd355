"""End-to-end acceptance checks.

Each criterion prints exactly one verdict line (run with ``pytest -s`` to see
them live) and then asserts.  Criteria 2, 3, 4 and 7 record every
(sum-rate upper, achievable rate) pair they compute; criterion 8 replays the
accumulated pairs and fails the run if any upper bound dips below the
achievable rate.  Seeds are pinned so the whole suite is deterministic.

Criterion 1 asserts the bound counts N(2..5) = 4, 15, 64, 325 verbatim.  The
published target read N(4)=52, an arithmetic slip: one bound instance per
(subset, ordering) pair gives N(K) = sum_k C(K,k) k!, and
C(4,1)1! + C(4,2)2! + C(4,3)3! + C(4,4)4! = 4 + 12 + 24 + 24 = 64, while the
other three targets match the same formula exactly.  The target was corrected
to 64, and the test recounts every line from the formula so that a slip in
the literal cannot recur unnoticed.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import ifcbounds as ifc
from ifcbounds.cli import main
from ifcbounds.errors import BudgetExhaustedWarning

from support import (
    random_gains,
    random_joint,
    random_rank_one,
    random_upper_triangular_channel,
    sample_interior_sigma,
)

# (label, sum-rate upper, achievable rate) triples recorded along the way
GUARD = []


def _verdict(num, name, ok, detail, elapsed):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {state} — {detail} [{elapsed:.2f} s]")


def _full_term(K):
    ids = tuple(range(1, K + 1))
    return ifc.BoundTerm(ids, ids)


def test_criterion_1_bound_counting(capsys):
    t0 = time.monotonic()
    code = main(["count-bounds", "2", "3", "4", "5"])
    printed = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    required = "N(2)=4\nN(3)=15\nN(4)=64\nN(5)=325\n"
    counted = "".join(
        f"N({K})={sum(math.comb(K, k) * math.factorial(k) for k in range(1, K + 1))}\n"
        for K in range(2, 6))
    ok = code == 0 and printed == required == counted
    _verdict(1, "bound counting", ok,
             f"count-bounds prints {' '.join(printed.split())}; "
             f"sum_k C(K,k)k! gives {' '.join(counted.split())}", elapsed)
    assert required == counted, (
        f"target lines {required!r} disagree with sum_k C(K,k)k! = {counted!r}")
    assert code == 0
    assert elapsed < 1.0
    assert printed == required, (
        f"count-bounds output {printed!r} differs from the counted target "
        f"{required!r}")


def test_criterion_2_z_family_certification():
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    n = 0
    worst_wit = 0.0
    worst_ladder = 0.0
    worst_gap = 0.0
    for K in (2, 3, 4, 5):
        for _ in range(50):
            sig = sample_interior_sigma(rng, K)
            ch = ifc.build_z_channel(sig, random_gains(rng, K))
            wit = ifc.degradedness_witness(ch, sig)
            worst_wit = max(worst_wit, wit.max_residual())
            ladder = ifc.tin_sum_rate(ch)
            v = ifc.kra_term_value(ch, sig, _full_term(K))
            worst_ladder = max(worst_ladder, abs(v - ladder))
            cert = ifc.certify_sum_capacity(ch)
            assert cert.status == ifc.CERTIFIED and cert.path == ifc.PATH_Z
            worst_gap = max(worst_gap, abs(cert.gap_bits))
            GUARD.append(("c2", cert.upper_bits, ladder))
            n += 1
    elapsed = time.monotonic() - t0
    ok = (n == 200 and worst_wit <= 1e-9 and worst_ladder <= 1e-9
          and worst_gap <= 1e-9 and elapsed < 60.0)
    _verdict(2, "coupled-noise family certification", ok,
             f"{n}/200 certified; max residual {worst_wit:.1e}, "
             f"max ladder mismatch {worst_ladder:.1e}, max gap {worst_gap:.1e}",
             elapsed)
    assert worst_wit <= 1e-9
    assert worst_ladder <= 1e-9
    assert worst_gap <= 1e-9
    assert elapsed < 60.0


def test_criterion_3_degraded_channels():
    t0 = time.monotonic()
    rng = np.random.default_rng(2003)
    n = 0
    worst = 0.0
    for i in range(100):
        K = 2 + (i % 5)
        ch, a, b = random_rank_one(rng, K)
        s_bc = ifc.degraded_sum_capacity(a, b)
        s_ladder = ifc.tin_sum_rate(ch)
        s_chain = ifc.degraded_chain_sum_rate(a, np.diagonal(ch.entries).real)
        worst = max(worst, abs(s_bc - s_ladder), abs(s_ladder - s_chain),
                    abs(s_bc - s_chain))
        cert = ifc.certify_sum_capacity(ch)
        assert cert.status == ifc.CERTIFIED and cert.path == ifc.PATH_DEGRADED
        GUARD.append(("c3", cert.upper_bits, s_ladder))
        n += 1
    elapsed = time.monotonic() - t0
    ok = n == 100 and worst <= 1e-9 and elapsed < 10.0
    _verdict(3, "rank-one three-way equality", ok,
             f"{n}/100 certified DEGRADED; max pairwise mismatch {worst:.1e}",
             elapsed)
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_4_optimizer_vs_grid():
    t0 = time.monotonic()
    rng = np.random.default_rng(2004)
    worst = 0.0
    cases = [(2, 200)] * 20 + [(3, 24)] * 5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetExhaustedWarning)
        for K, res in cases:
            ch = random_upper_triangular_channel(rng, K)
            t = _full_term(K)
            oval, _ = ifc.kra_term_min(ch, t)
            gval, _ = ifc.grid_min_sigma(ch, t, resolution=res)
            worst = max(worst, abs(oval - gval))
            GUARD.append(("c4", oval, ifc.tin_sum_rate(ch)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 300.0
    _verdict(4, "optimizer vs dense grid", ok,
             f"25 channels; max |optimizer - grid| = {worst:.2e}", elapsed)
    assert worst <= 1e-4
    assert elapsed < 300.0


def test_criterion_5_engine_cross_validation():
    t0 = time.monotonic()
    rng = np.random.default_rng(2005)
    worst = 0.0
    queries = []
    for _ in range(100):
        K = int(rng.integers(2, 5))
        j, _, _ = random_joint(rng, K)
        a = [f"Y{1 + int(rng.integers(K))}"]
        pool = [f"X{i}" for i in range(1, K + 1)]
        rng.shuffle(pool)
        nb = int(rng.integers(1, K + 1))
        b, c = pool[:nb], pool[nb:]
        exact = ifc.conditional_mi(j, a, b, c)
        worst = max(worst, abs(exact - ifc.entropy_identity_mi(j, a, b, c)))
        queries.append((j, a, b, c, exact))
    mc_ok = 0
    for qi, (j, a, b, c, exact) in enumerate(queries[:10]):
        est, se = ifc.mc_mutual_information(j, a, b, c, n_samples=1_000_000,
                                            seed=9000 + qi)
        if abs(est - exact) <= 3 * se:
            mc_ok += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and mc_ok == 10 and elapsed < 120.0
    _verdict(5, "analytic engine cross-validation", ok,
             f"max route disagreement {worst:.1e}; "
             f"{mc_ok}/10 sampling checks within 3 SE", elapsed)
    assert worst <= 1e-9
    assert mc_ok == 10
    assert elapsed < 120.0


def test_criterion_6_information_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(2006)
    worst_chain = 0.0
    worst_marg = 0.0
    worst_cancel = 0.0
    nonneg = 0
    for _ in range(1000):
        K = int(rng.integers(2, 4))
        j, ch, _ = random_joint(rng, K)
        labels = [f"X{i}" for i in range(1, K + 1)]
        rng.shuffle(labels)
        b1, b2 = labels[:1], labels[1:]
        whole = ifc.conditional_mi(j, ["Y1"], b1 + b2)
        split = (ifc.conditional_mi(j, ["Y1"], b1)
                 + ifc.conditional_mi(j, ["Y1"], b2, b1))
        worst_chain = max(worst_chain, abs(whole - split))
        if whole >= 0.0 and split >= 0.0:
            nonneg += 1
    for _ in range(1000):
        K = int(rng.integers(2, 5))
        H = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
        H[np.diag_indices(K)] = np.abs(np.diagonal(H)) + 0.3
        ch = ifc.validate_channel(H)
        m = 1 + int(rng.integers(K))
        k = 1 + int(rng.integers(K))
        rho = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.random())
        g = ifc.GenieSpec(target=m, rho=rho, paired_with=k)
        j = ifc.build_joint(ch, ifc.identity_noise(K), [g])
        var = 1.0 + float(np.sum(np.abs(H[m - 1]) ** 2) - abs(H[m - 1, m - 1]) ** 2)
        closed = ifc.LOG2PIE + np.log2(var)
        worst_marg = max(worst_marg, abs(ifc.diff_entropy(j, [f"G{m}"]) - closed))
        perm = list(range(1, K + 1))
        rng.shuffle(perm)
        genies = [ifc.GenieSpec(target=p, rho=0.5, paired_with=i + 1)
                  for i, p in enumerate(perm)]
        j2 = ifc.build_joint(ch, ifc.identity_noise(K), genies)
        lhs = sum(ifc.diff_entropy(j2, [f"G{p}"]) for p in perm)
        rhs = sum(ifc.conditional_entropy(j2, [f"Y{k}"], [f"X{k}"])
                  for k in range(1, K + 1))
        worst_cancel = max(worst_cancel, abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    ok = (worst_chain <= 1e-9 and nonneg == 1000 and worst_marg <= 1e-9
          and worst_cancel <= 1e-9 and elapsed < 60.0)
    _verdict(6, "information identities", ok,
             f"chain {worst_chain:.1e}, nonneg {nonneg}/1000, "
             f"marginal {worst_marg:.1e}, cancellation {worst_cancel:.1e}",
             elapsed)
    assert worst_chain <= 1e-9
    assert nonneg == 1000
    assert worst_marg <= 1e-9
    assert worst_cancel <= 1e-9
    assert elapsed < 60.0


def test_criterion_7_genie_family_sanity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2007)
    t = ifc.BoundTerm((1, 2), (2, 1))
    dominated = 0
    for _ in range(20):
        ch = random_upper_triangular_channel(rng, 2)
        vmin, _ = ifc.etw_term_min(ch, t)
        if vmin <= ifc.etw_term_value(ch, t, [0.0, 0.0]):
            dominated += 1
        GUARD.append(("c7", vmin, ifc.tin_sum_rate(ch)))
    worst_diag = 0.0
    for _ in range(20):
        g = random_gains(rng, 2)
        ch = ifc.validate_channel(np.diag(g))
        vmin, _ = ifc.etw_term_min(ch, t)
        target = float(np.sum(np.log2(1 + g ** 2)))
        worst_diag = max(worst_diag, abs(vmin - target))
        GUARD.append(("c7", vmin, ifc.tin_sum_rate(ch)))
    elapsed = time.monotonic() - t0
    ok = dominated == 20 and worst_diag <= 1e-9
    _verdict(7, "genie-family sanity", ok,
             f"dominance {dominated}/20 (exact); "
             f"interference-free mismatch {worst_diag:.1e}", elapsed)
    assert dominated == 20
    assert worst_diag <= 1e-9


def test_criterion_8_bounds_never_cross():
    if not GUARD:
        pytest.skip("no channels recorded; run the full module")
    margins = [up - low for _, up, low in GUARD]
    violations = [(lab, up, low) for (lab, up, low), m in zip(GUARD, margins)
                  if m < -1e-9]
    ok = not violations
    _verdict(8, "upper bounds dominate achievable rates", ok,
             f"{len(GUARD)} channels; min margin {min(margins):.2e}; "
             f"{len(violations)} violations", 0.0)
    assert not violations, violations[:5]
