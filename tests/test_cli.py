import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ifcbounds.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def spec_file(tmp_path, name, H):
    p = tmp_path / name
    p.write_text(json.dumps({"schema_version": 1, "K": len(H), "H": H}))
    return str(p)


@pytest.fixture
def diag2(tmp_path):
    return spec_file(tmp_path, "diag2.json", [[1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def weak2(tmp_path):
    return spec_file(tmp_path, "weak2.json", [[1.0, 0.5], [0.5, 1.0]])


@pytest.fixture
def z2(tmp_path):
    return spec_file(tmp_path, "z2.json", [[1.0, 0.4], [0.0, 1.0]])


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh(*args, timeout=60):
    """``python *args`` in a fresh interpreter that imports the package from
    this checkout; a run past ``timeout`` seconds fails the test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=timeout)


def test_evaluate_exit_zero_and_json(capsys, diag2):
    code, out, _ = run(capsys, ["evaluate", diag2])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert abs(doc["sum_rate_upper_bits"] - 2.0) < 1e-9
    assert doc["consistent"] is True
    assert len(doc["inequalities"]) == 3


def test_evaluate_byte_identical_across_runs(capsys, weak2):
    code1, out1, _ = run(capsys, ["evaluate", weak2])
    code2, out2, _ = run(capsys, ["evaluate", weak2])
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_evaluate_strong_cross_gain_is_consistent(capsys, tmp_path):
    # neither a 30x cross gain nor cross gains of 1000 (Var(G_m) ~ 1e6) may
    # trip the genie residual check (exit 4)
    for H in ([[5, 1], [30, 5]], [[1, 1000], [1000, 1]]):
        p = spec_file(tmp_path, "strong2.json", H)
        code, out, _ = run(capsys, ["evaluate", p])
        assert code == 0
        assert json.loads(out)["consistent"] is True


def test_evaluate_malformed_json_exits_two(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, out, err = run(capsys, [ "evaluate", str(p)])
    assert code == 2
    assert out == ""
    assert err != ""


def test_evaluate_invalid_spec_exits_two(capsys, tmp_path):
    path = spec_file(tmp_path, "bad.json", [[1.0, 0.0], [0.0, -1.0]])
    code, _, err = run(capsys, ["evaluate", path])
    assert code == 2
    assert "diagonal" in err.lower() or "positive" in err.lower()


def test_evaluate_missing_file_exits_two(capsys, tmp_path):
    code, _, _ = run(capsys, ["evaluate", str(tmp_path / "nope.json")])
    assert code == 2


def test_evaluate_large_k_needs_sum_rate_only(capsys, tmp_path):
    H = np.eye(7).tolist()
    path = spec_file(tmp_path, "k7.json", H)
    code, _, err = run(capsys, ["evaluate", path])
    assert code == 3
    assert "sum-rate-only" in err


def test_evaluate_sum_rate_only_single_inequality(capsys, tmp_path):
    path = spec_file(tmp_path, "k3.json", np.eye(3).tolist())
    code, out, _ = run(capsys, ["evaluate", path, "--sum-rate-only"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["inequalities"]) == 1
    assert doc["inequalities"][0]["subset"] == [1, 2, 3]
    assert abs(doc["sum_rate_upper_bits"] - 3.0) < 1e-6


def test_evaluate_family_selection(capsys, weak2):
    code, out, _ = run(capsys, ["evaluate", weak2, "--families", "etw"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["per_family_sum_rate_bits"]) == {"ETW"}


def test_count_bounds_exact_output(capsys):
    code, out, _ = run(capsys, ["count-bounds", "2", "3", "4", "5"])
    assert code == 0
    assert out == "N(2)=4\nN(3)=15\nN(4)=64\nN(5)=325\n"


def test_certify_z_channel_exit_zero(capsys, z2):
    code, out, _ = run(capsys, ["certify", z2])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "CERTIFIED"
    assert doc["path"] == "Z_THEOREM2"
    assert abs(doc["gap_bits"]) <= 1e-9


def test_certify_open_gap_exit_one(capsys, weak2):
    code, out, _ = run(capsys, ["certify", weak2])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "BOUND_ONLY"
    assert doc["gap_bits"] > 0.01


def test_construct_z_mode_roundtrip(capsys, tmp_path):
    params = tmp_path / "zp.json"
    params.write_text(json.dumps({
        "sigma": [[1.0, 0.35], [0.35, 1.0]],
        "diag_gains": [1.0, 2.0],
    }))
    code, out, _ = run(capsys, ["construct", "z", str(params)])
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["mode"] == "z"
    # emitted channel certifies
    chan = tmp_path / "zc.json"
    chan.write_text(json.dumps({k: doc[k] for k in ("schema_version", "K", "H")}))
    code2, out2, _ = run(capsys, ["certify", str(chan)])
    assert code2 == 0
    assert json.loads(out2)["path"] == "Z_THEOREM2"


def test_construct_rank_one_mode(capsys, tmp_path):
    params = tmp_path / "r1.json"
    params.write_text(json.dumps({"a": [1.0, 2.0], "b": [1.0, 1.0]}))
    code, out, _ = run(capsys, ["construct", "rank-one", str(params)])
    assert code == 0
    doc = json.loads(out)
    H = np.array([[complex(*e) if isinstance(e, list) else e for e in row]
                  for row in doc["H"]])
    s = np.linalg.svd(H, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]


def test_re_im_object_entries_are_rejected_with_pointer(capsys, tmp_path):
    # entries are bare reals or [re, im] pairs; {"re", "im"} objects are not a format
    spec = spec_file(tmp_path, "reim.json", [[1, {"re": 0.3, "im": 0.1}], [0, 1]])
    code, out, err = run(capsys, ["certify", spec])
    assert code == 2 and out == ""
    assert "/H/0/1: expected a number or [re, im] pair" in err


def test_construct_z_malformed_sigma_entry(capsys, tmp_path):
    params = tmp_path / "zbad.json"
    params.write_text(json.dumps({"sigma": [[1.0, 0.3], ["x", 1.0]]}))
    code, out, err = run(capsys, ["construct", "z", str(params)])
    assert code == 2 and out == ""
    assert "/sigma/1/0: expected a number or [re, im] pair" in err


def test_construct_many_to_one_power_violation(capsys, tmp_path):
    params = tmp_path / "m1.json"
    params.write_text(json.dumps({"v": [0.8, 0.7]}))
    code, _, err = run(capsys, ["construct", "many-to-one", str(params)])
    assert code == 2
    assert "1" in err


@pytest.mark.parametrize("mode, params", [
    ("z", {"sigma": [[1, 1], [1, 1]]}),
    ("many-to-one", {"v": [0.6, 0.8]}),
    ("many-to-one", {"v": [1.0]}),
])
def test_construct_refuses_a_singular_coupling(capsys, tmp_path, mode, params):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(params))
    code, out, err = run(capsys, ["construct", mode, str(path)])
    assert (code, out) == (2, "")
    assert "noise coupling must be positive definite" in err


def test_sweep_csv_shape(capsys, tmp_path):
    tmpl = spec_file(tmp_path, "tmpl.json", [[1.0, 0.0], [0.0, 1.0]])
    code, out, _ = run(capsys, [
        "sweep", tmpl, "--param", "/H/0/1,/H/1/0",
        "--start", "0", "--stop", "2", "--steps", "21",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "parameter,upper_kra,upper_etw,tin_lower,gap"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[4] == "0"  # interference-free point: bound meets TIN exactly


def test_sweep_zero_steps_exits_two(capsys, tmp_path):
    tmpl = spec_file(tmp_path, "tmpl2.json", [[1.0, 0.0], [0.0, 1.0]])
    code, _, _ = run(capsys, ["sweep", tmpl, "--param", "/H/0/1",
                              "--start", "0", "--stop", "1", "--steps", "0"])
    assert code == 2


@pytest.mark.parametrize("steps", [10 ** 15, 10 ** 19])
def test_sweep_grid_past_memory_exits_three_before_allocating(capsys, tmp_path, monkeypatch,
                                                              steps):
    def refuse(*args, **kwargs):
        raise AssertionError("grid allocated before the size check")

    monkeypatch.setattr(np, "linspace", refuse)
    tmpl = spec_file(tmp_path, "tmpl3.json", [[1.0, 0.0], [0.0, 1.0]])
    code, out, err = run(capsys, ["sweep", tmpl, "--param", "/H/0/1",
                                  "--start", "0", "--stop", "1", "--steps", str(steps)])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_exit_zero(capsys, z2):
    code, out, _ = run(capsys, ["verify", z2, "--mc-samples", "50000", "--seed", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert all(q["ok"] for q in doc["queries"])


def test_negative_seed_exits_two(capsys, z2):
    code, out, err = run(capsys, ["verify", z2, "--mc-samples", "10000", "--seed", "-1"])
    assert (code, out) == (2, "")
    assert "seed" in err and "Traceback" not in err


@pytest.mark.parametrize("seed", ["5", "many"])
def test_environment_does_not_steer_the_cli(capsys, weak2, z2, monkeypatch, seed):
    requests = [["evaluate", weak2], ["verify", z2, "--mc-samples", "10000"]]
    clean = [run(capsys, argv)[:2] for argv in requests]
    assert json.loads(clean[0][1])["config"]["families"] == ["KRA", "ETW"]
    assert json.loads(clean[1][1])["seed"] == 0
    monkeypatch.setenv("IFC_FAMILIES", "etw")
    monkeypatch.setenv("IFC_SEED", seed)
    assert [run(capsys, argv)[:2] for argv in requests] == clean


def test_evaluate_z_channel_lists_the_ladder(capsys, z2):
    code, out, _ = run(capsys, ["evaluate", z2])
    doc = json.loads(out)
    assert code == 0 and doc["consistent"] is True
    assert abs(doc["lower_bounds_bits"]["SUCC_DEC"] - (np.log2(1 + 1 / 1.16) + 1)) < 1e-12


@pytest.mark.parametrize("command", ["evaluate", "certify", "sweep"])
@pytest.mark.parametrize("flag", ["--seed", "--restarts", "--max-evals", "--tolerance"])
def test_solver_settings_are_not_options(capsys, weak2, command, flag):
    argv = [command, weak2]
    if command == "sweep":
        argv += ["--param", "/H/0/1", "--start", "0", "--stop", "1", "--steps", "1"]
    if command == "evaluate":
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert set(json.loads(out)["config"]) == {"families", "sum_rate_only"}
    code, out, err = run(capsys, argv + [flag, "1"])
    assert code == 2
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("command", ["evaluate", "certify", "verify", "sweep"])
def test_noise_correlation_document_is_not_a_channel(capsys, tmp_path, command):
    p = tmp_path / "sigma.json"
    p.write_text(json.dumps({"K": 2, "Sigma": [[1.0, 0.3], [0.3, 1.0]]}))
    argv = [command, str(p)]
    if command == "sweep":  # the swept document stays Hermitian
        argv += ["--param", "/Sigma/0/1,/Sigma/1/0", "--start", "0", "--stop", "0.5",
                 "--steps", "2"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: /H:")


@pytest.mark.parametrize("param", ["/H/0/-1", "/H/-1/0", "/H/0/01", "/H/0/+1", "/H/0/"])
def test_sweep_rejects_non_rfc6901_array_index(capsys, tmp_path, param):
    tmpl = spec_file(tmp_path, "tmpl3.json", [[1.0, 0.0], [0.0, 1.0]])
    code, out, err = run(capsys, ["sweep", tmpl, "--param", param,
                                  "--start", "0", "--stop", "1", "--steps", "2"])
    assert code == 2
    assert out == ""
    assert "bad array index" in err


UNDECODABLE = {
    "non_utf8": b"\xff",
    "deep_nesting": b"[" * 100_000,
    "huge_integer": b'{"K": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("command", ["evaluate", "certify", "verify", "construct", "sweep"])
@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
def test_undecodable_json_exits_two(capsys, tmp_path, command, kind):
    p = tmp_path / "in.json"
    p.write_bytes(UNDECODABLE[kind])
    argv = {
        "construct": ["construct", "z", str(p)],
        "sweep": ["sweep", str(p), "--param", "/H/0/1", "--start", "0", "--stop", "1",
                  "--steps", "2"],
    }.get(command, [command, str(p)])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "invalid JSON" in err


def test_unexpected_error_exits_four_with_traceback(capsys, z2, monkeypatch):
    def broken(ch):
        raise KeyError("boom")
    monkeypatch.setattr("ifcbounds.cli.certify_sum_capacity", broken)
    code, out, err = run(capsys, ["certify", z2])
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "KeyError: 'boom'" in err


def test_family_list_is_stripped_deduplicated_and_case_blind(capsys, weak2):
    code, out, _ = run(capsys, ["evaluate", weak2, "--families", " ETW, ,etw"])
    assert code == 0
    assert json.loads(out)["config"]["families"] == ["ETW"]


@pytest.mark.parametrize("families", ["", "bogus"])
def test_bad_family_list_exits_two(capsys, weak2, families):
    code, out, err = run(capsys, ["evaluate", weak2, "--families", families])
    assert code == 2
    assert out == ""
    assert "famil" in err


def test_count_bounds_prints_up_to_the_digit_limit(capsys):
    code, out, _ = run(capsys, ["count-bounds", "1558"])
    assert code == 0
    assert len(out.strip().split("=")[1]) == 4300


def test_count_bounds_past_the_digit_limit_exits_three(capsys):
    code, out, err = run(capsys, ["count-bounds", "2", "1559"])
    assert code == 3
    assert out == "" and "N(1559)" in err


def test_count_bounds_cap_is_checked_before_counting(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["count-bounds", "1000000"])
    assert code == 3 and out == ""
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("command", ["evaluate", "certify"])
def test_huge_gains_exit_two_without_traceback(capsys, tmp_path, command):
    # at cross gains of 1e6 every witness of the pair terms loses its
    # conditional variance to round-off, so no bound can be scored
    code, out, err = run(capsys, [command, spec_file(tmp_path, "huge.json",
                                                     [[1.0, 1e6], [1e6, 1.0]])])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_python_m_runs_the_cli():
    res = fresh("-m", "ifcbounds", "count-bounds", "2")
    assert (res.returncode, res.stdout) == (0, "N(2)=4\n")


@pytest.mark.parametrize("argv, H", [
    (["certify"], [[1, 1e8], [0, 1e8]]),
    (["evaluate", "--families", "etw"], [[1, 1e8], [1e8, 1]]),
    (["certify"], [[1, 1e10, 0], [0, 1e-300, 0], [0, 0, 1]]),
    (["evaluate"], [[1, 1e10, 0], [0, 1e-300, 0], [0, 0, 1]]),
], ids=["certify-z", "evaluate-etw", "certify-overflow", "evaluate-overflow"])
def test_closed_form_rho_ends_at_huge_gains(tmp_path, argv, H):
    # the first two lose a pivot to round-off (once, rounding drove
    # b = p - |c|^2 - 1 to -1 there); on the overflow channel the coupling
    # recursion leaves the float range
    res = fresh("-m", "ifcbounds", *argv, spec_file(tmp_path, "huge.json", H))
    assert (res.returncode, res.stdout) == (2, "")
    assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr


@pytest.mark.parametrize("cmd, err", [
    ("evaluate", "error: cov of ['Y1'] given ['G1'] has a pivot within EIG_TOL = 1e-12 times "
                 "its variance (3.000e-20 of it), lost to round-off\n"),
    ("certify", "error: cov of ['X1', 'X2', 'Y1', 'Y2'] is singular to working precision\n"),
])
def test_overflow_refusal_texts(tmp_path, capsys, cmd, err):
    # CI's "Huge gains" step greps these texts.  region raises the refusal
    # of the first term whose candidates are all refused, in its solve order:
    # an ETW term's for the full region, and for certify's sum-rate-only
    # region the third KRA ordering of the full set, (1, 2, 3), after two
    # that score
    spec = spec_file(tmp_path, "overflow3.json", [[1, 1e10, 0], [0, 1e-300, 0], [0, 0, 1]])
    assert run(capsys, [cmd, spec]) == (2, "", err)


#: every g = 10^k up to 1e20, then a coarse tail to the float limit; past
#: about 8e76 the output power overflows and the gains are refused at input
SWEEP_GAINS = [10.0 ** k for k in range(21)] + [
    1e30, 1e50, 1e76, 1e77, 1e100, 1e154, 1e155, 1e200, 1e250, 1e308]

# runs each command on each shape at each gain through one interpreter's
# cli.main and prints, per case, its exit code, whether it printed a
# traceback and the warnings it raised, as one JSON object
_SWEEP_CHILD = """
import contextlib, io, json, os, sys, warnings
from ifcbounds.cli import main
shapes = {"pair": lambda g: [[1, g], [g, 1]], "z": lambda g: [[1, g], [0, g]],
          "dense3": lambda g: [[1, g, 0.5 * g], [0.3 * g, 1, g], [g, 0.7 * g, 1]]}
commands = {"evaluate": ["evaluate"], "etw": ["evaluate", "--families", "etw"],
            "kra": ["evaluate", "--families", "kra"], "certify": ["certify"]}
path = os.path.join(sys.argv[1], "ch.json")
cases = {}
for shape, H in shapes.items():
    for g in json.loads(sys.argv[2]):
        with open(path, "w") as fh:
            json.dump({"K": len(H(g)), "H": H(g)}, fh)
        for name, argv in commands.items():
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \\
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv + [path])
            cases[f"{shape} {name} {g:g}"] = {
                "code": code, "traceback": "Traceback" in err.getvalue(),
                "warnings": [str(w.message) for w in caught]}
print(json.dumps(cases))
"""

#: certify on [[1, 1e3], [0, 1e3]]: a covariance Cholesky route for the genie
#: terms, and the subtracting closed form that re-checks them, put the numeric
#: bound's two scores 1.2e-5 bits apart, and certify exited 4
SWEEP_MISMATCH = "z certify 1000"


@pytest.fixture(scope="module")
def gain_sweep(tmp_path_factory):
    res = fresh("-c", _SWEEP_CHILD, str(tmp_path_factory.mktemp("sweep")),
                json.dumps(SWEEP_GAINS), timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_gain_sweep_ends_without_traceback_or_warning(gain_sweep):
    assert len(gain_sweep) == 3 * 4 * len(SWEEP_GAINS)
    bad = {case: r for case, r in gain_sweep.items()
           if r["code"] not in (0, 1, 2) or r["traceback"] or r["warnings"]}
    assert bad == {}
    assert all(gain_sweep[f"{shape} {cmd} 1e+77"]["code"] == 2
               for shape in ("pair", "z", "dense3") for cmd in ("evaluate", "certify"))


def test_gain_sweep_certify_on_a_large_z_channel(gain_sweep):
    assert gain_sweep[SWEEP_MISMATCH]["code"] != 4


def test_large_gain_z_construction_certifies(capsys, tmp_path):
    # build_z_channel at rho = 0.9 and gains [4, 2000]: the telescoped bound at
    # the recovered coupling meets the ladder when read off square roots
    path = spec_file(tmp_path, "z.json", [[4, 1800], [0, 2000]])
    code, out, _ = run(capsys, ["certify", path])
    assert (code, json.loads(out)["path"]) == (0, "Z_THEOREM2")
    # and so does the KRA sum-rate bound, whose reference value is read off the
    # same square root; a covariance route fell 1.6e-9 bits below TIN (exit 4)
    code, out, _ = run(capsys, ["evaluate", "--families", "kra", "--sum-rate-only", path])
    assert (code, json.loads(out)["consistent"]) == (0, True)


def test_one_process_serves_each_channel_its_own_pair_table(capsys, tmp_path):
    # the ETW pair table is memoised per channel: B is A with one cross gain's
    # phase turned, and a generic K=2 certify runs between them
    turned = (0.4 + 0.3j) * np.exp(1j)
    a = spec_file(tmp_path, "a.json", [[1.0, [0.4, 0.3], 0.2], [[0.5, -0.2], 1.2, 0.6],
                                       [0.3, [0.0, 0.7], 0.9]])
    b = spec_file(tmp_path, "b.json", [[1.0, [turned.real, turned.imag], 0.2],
                                       [[0.5, -0.2], 1.2, 0.6], [0.3, [0.0, 0.7], 0.9]])
    c = spec_file(tmp_path, "c.json", [[1.0, [0.6, 0.2]], [[0.5, -0.4], 1.3]])
    etw_a, etw_b = ["evaluate", "--families", "etw", a], ["evaluate", "--families", "etw", b]
    argvs = [etw_a, etw_b, ["certify", c], etw_a]
    in_process = [run(capsys, argv)[:2] for argv in argvs]
    expected = {}
    for argv in argvs:
        if tuple(argv) not in expected:
            res = fresh("-m", "ifcbounds", *argv)
            expected[tuple(argv)] = (res.returncode, res.stdout)
    assert in_process == [expected[tuple(argv)] for argv in argvs]
    assert in_process[0] != in_process[1]


BIG_INT = 10 ** 400  # a JSON integer past the float range


@pytest.mark.parametrize("argv, doc, pointer", [
    (["evaluate"], {"K": 2, "H": [[1, BIG_INT], [0, 1]]}, "/H/0/1"),
    (["certify"], {"K": 2, "H": [[1, [0, BIG_INT]], [0, 1]]}, "/H/0/1/1"),
    (["construct", "z"], {"sigma": [[1, 0], [0, 1]], "diag_gains": [1, BIG_INT]},
     "/diag_gains/1"),
    (["construct", "many-to-one"], {"v": [BIG_INT]}, "/v/0"),
    (["sweep", "--param", "/H/0/1", "--start", "0", "--stop", "1", "--steps", "2"],
     {"K": 2, "H": [[1, 0.5], [BIG_INT, 1]]}, "/H/1/0"),
], ids=["channel", "channel-pair", "construct-z", "construct-many-to-one", "sweep-template"])
def test_integer_past_float_range_is_a_schema_error(capsys, tmp_path, argv, doc, pointer):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    argv = argv[:1] + [str(p)] + argv[1:] if argv[0] == "sweep" else argv + [str(p)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {pointer}: ") and "Traceback" not in err
