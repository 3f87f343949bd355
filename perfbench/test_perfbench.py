"""Fast checks of the benchmark itself.

    python3 -m pytest perfbench

The smoke input is one K=2 ``evaluate`` and one K=2 ``certify`` request.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from ifcbounds import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    res = _run("--smoke", "--trace", trace)
    assert res.returncode == 0, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == want
    for name in want:
        assert any(line.startswith(name + " ") for line in res.stdout.splitlines()), name


def _evaluate(req):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(req.argv))
    return code, out.getvalue()


def test_doctored_witness_trips_the_gate(tmp_path):
    req = next(r for r in workloads.smoke_requests(tmp_path) if r.argv[0] == "evaluate")
    code, text = _evaluate(req)
    assert gate.check_evaluate(req.channel, code, text) == []

    doc = json.loads(text)
    ineq = doc["inequalities"][-1]
    w = ineq["witness"]
    if "sigma" in w:
        w["sigma"][0][1] = [0.5, 0.0]
        w["sigma"][1][0] = [0.5, 0.0]
    else:
        w["rhos"][0] = [w["rhos"][0][0] + 0.25, w["rhos"][0][1]]
    fails = gate.check_evaluate(req.channel, code, json.dumps(doc))
    assert len(fails) == 1 and "re-score" in fails[0]


def test_certify_gate_checks_the_known_capacity(tmp_path):
    req = next(r for r in workloads.smoke_requests(tmp_path) if r.argv[0] == "certify")
    code, text = _evaluate(req)
    assert gate.check_certify(code, text, req.capacity) == []
    assert gate.check_certify(code, text, req.capacity + 1e-6)
    assert gate.check_certify(4, "", req.capacity) == ["certify exited 4"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify-cli",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert res.stdout == ""


def test_speed_factor_uses_the_probes_around_a_request():
    import speed

    host = speed.Speed()
    host.samples = [(0.0, 0.010), (0.5, 0.010), (1.0, 0.010),
                    (10.0, 0.020), (10.5, 0.020), (11.0, 0.020), (11.5, 0.020)]
    assert host.factor(0.2, 0.4) == pytest.approx(speed.NOMINAL_S / 0.010)
    assert host.factor(10.2, 10.3) == pytest.approx(speed.NOMINAL_S / 0.020)
    # too few probes nearby: the nearest NEAREST decide
    assert host.factor(30.0, 31.0) == pytest.approx(speed.NOMINAL_S / 0.020)
    assert 0.005 < speed.reference() < 1.0
