import glob
import hashlib
import os
import subprocess
import sys

import pytest

import unitwist

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

# sha256 of each demo's stdout; the same under every PYTHONHASHSEED.  Demo 02
# prints `J.eval` values and identity reports with their instance counts.
STDOUT_SHA256 = {
    "01_presentations.py": "87dd9088283d112bb66cb5c4f9a86a8a06779f64ecdc75bdf74dca9f536368bd",
    "02_cocycle_calculus.py": "641d1453d1125064e39f6738126b5507a89002b5a8f70dde4ac68fa630bebcde",
    "03_strata_and_modules.py": "1fe82bfcf2c0e0de301e29f80e4f22416339cfeafee599c39e25195ef3317f1c",
    "04_file_format_and_cli.py": "fa4db858bdf003b8916dd09f43993a3d7cd5917c141612b1346c2e0680b7d2fd",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [os.path.basename(p) for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(unitwist.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[os.path.basename(path)], proc.stdout[-2000:]
