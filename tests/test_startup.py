"""scipy stays off the import path of every command but ``verify``.

Importing scipy.optimize would be most of a fresh CLI call's start-up.  KRA
terms on three or more users are solved by the package's own BFGS, so only
``verify`` (the Monte-Carlo sampler's ``ndtri``) and the grid oracle, which
no other command runs, load it.  Each case runs in a fresh interpreter,
because the test process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ifcbounds.cli import main

from support import random_channel

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the CLI with sys.argv[1:] and prints its exit code, its stdout and the
# scipy modules it loaded as one JSON line
_CHILD = """
import contextlib, io, json, sys
from ifcbounds.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _fresh(code, *argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _fresh_cli(*argv):
    return json.loads(_fresh(_CHILD, *argv))


@pytest.fixture
def specs(tmp_path):
    def write(name, doc):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        return str(p)

    dense = {f"dense{K}": write(f"dense{K}", random_channel(np.random.default_rng(K), K)
                                .to_spec_dict()) for K in (2, 3, 4)}
    return dict(dense,
                z_params=write("z_params", {"sigma": [[1, 0.3], [0.3, 1]],
                                            "diag_gains": [1.0, 1.5]}),
                z2=write("z2", {"K": 2, "H": [[1.0, 0.4], [0.0, 1.0]]}))


def test_import_loads_no_scipy():
    out = _fresh("import sys, ifcbounds; print('scipy' in sys.modules)")
    assert out == "False\n"


@pytest.mark.parametrize("argv", [
    ["count-bounds", "2"],
    ["construct", "z", "{z_params}"],
    ["certify", "{z2}"],
    ["certify", "{dense2}"],
    ["evaluate", "--families", "etw", "{dense4}"],
], ids=" ".join)
def test_commands_without_bfgs_load_no_scipy(specs, argv):
    res = _fresh_cli(*[a.format(**specs) for a in argv])
    assert res["code"] in (0, 1), res
    assert res["out"]
    assert res["scipy"] == []


@pytest.mark.parametrize("argv", [
    ["evaluate", "--families", "kra,etw", "{dense3}"],
    ["evaluate", "--sum-rate-only", "{dense3}"],
    ["evaluate", "--sum-rate-only", "{dense4}"],
], ids=" ".join)
def test_kra_on_three_users_loads_no_scipy_and_matches_in_process(specs, argv, capsys):
    argv = [a.format(**specs) for a in argv]
    res = _fresh_cli(*argv)
    assert res["scipy"] == []
    code = main(argv)
    assert (res["code"], res["out"]) == (code, capsys.readouterr().out)


def test_main_holds_no_state_between_calls(specs, capsys):
    # one process's main answers each command as a fresh interpreter does,
    # whatever ran before it, an argument error included
    runs = [["certify", specs["z2"]], ["evaluate", specs["dense3"]], ["count-bounds", "2", "3"],
            ["count-bounds", "two"], ["certify", specs["z2"]]]
    got = []
    for argv in runs:
        code = main(argv)
        got.append((code, capsys.readouterr().out))
    assert got[3][0] == 2
    for argv, (code, out) in zip(runs, got):
        res = _fresh_cli(*argv)
        assert (res["code"], res["out"]) == (code, out), argv
