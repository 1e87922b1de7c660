"""Cold start: importing the package and running CLI commands loads no scipy.

scipy.optimize is most of the package's import time; it is imported on first
use by the one caller that needs it, the level crossing on analytic fields.
Each check runs in a fresh interpreter, since the test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import wavevel as wv

_SRC = str(Path(wv.__file__).resolve().parent.parent)

_SCRIPT = r"""
import contextlib, io, json, sys

import numpy as np

import wavevel, wavevel.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

path = sys.argv[1]
commands = [
    ["generate", "--kind", "translating-gaussian", "--param", "velocity=0.7,0",
     "--param", "sigma=1.0", "--shape", "32,32", "--spacing", "0.05",
     "--origin=-0.775", "--frames", "9", "--dt", "0.02", "--out", path],
    ["info", path],
    ["velocity", path, "--order", "1"],
    ["track", path, "--attribute", "gradient-set", "--targets", "0,0", "--seed", "16,16"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [wavevel.cli.cli(argv) for argv in commands]
after_cli = scipy_modules()

res = wavevel.track_attribute(
    wavevel.PlaneWave((2.0, 1.0), 3.0), wavevel.AttributeSpec.level_set(0.3),
    np.array([0.2, 0.1]), times=0.01 * np.arange(9), search_radius=0.6)
print(json.dumps({
    "codes": codes,
    "after_cli": after_cli,
    "optimize_loaded": "scipy.optimize" in sys.modules,
    "positions": [float(v).hex() for v in res.positions.ravel()],
}))
"""


def _fresh_interpreter(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _SCRIPT, *args], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_commands_load_no_scipy_and_analytic_levels_load_it_on_use(tmp_path):
    got = _fresh_interpreter(str(tmp_path / "f.wvf"))
    assert got["codes"] == [0, 0, 0, 0]
    assert got["after_cli"] == []
    assert got["optimize_loaded"]
    # the deferred brentq refines the same crossings, bit for bit
    ref = wv.track_attribute(
        wv.PlaneWave((2.0, 1.0), 3.0), wv.AttributeSpec.level_set(0.3),
        np.array([0.2, 0.1]), times=0.01 * np.arange(9), search_radius=0.6)
    assert got["positions"] == [float(v).hex() for v in ref.positions.ravel()]
