"""The README's library tour and the two scripts run as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sweep_symmetric_pair.py", "--steps", "3"],
    ["certify_z_family.py", "--users", "3", "--trials", "2"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout
