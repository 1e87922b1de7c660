"""numpy only: no scipy module is loaded by importing the package, by any CLI
command, or by an analytic level track.

Each check runs in a fresh interpreter, since the test process may have scipy
loaded by another package; that interpreter's level-track positions must
equal the in-process ones bit for bit.
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

loaded = [scipy_modules()]  # after import, after each command, after the track
path = sys.argv[1]
commands = [
    ["generate", "--kind", "translating-gaussian", "--param", "velocity=0.7,0",
     "--param", "sigma=1.0", "--shape", "32,32", "--spacing", "0.05",
     "--origin=-0.775", "--frames", "9", "--dt", "0.02", "--out", path],
    ["info", path],
    ["velocity", path, "--order", "1"],
    ["scalar", path],
    ["track", path, "--attribute", "gradient-set", "--targets", "0,0", "--seed", "16,16"],
    ["track", path, "--attribute", "level-set", "--level", "0.9", "--seed", "20,16"],
    ["covcheck", "--kind", "translating-gaussian", "--param", "velocity=0.7,0",
     "--param", "sigma=1.0", "--matrix", "2,0.3,0.1,1.5", "--samples", "20"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(wavevel.cli.cli(argv))
    loaded.append(scipy_modules())

res = wavevel.track_attribute(
    wavevel.PlaneWave((2.0, 1.0), 3.0), wavevel.AttributeSpec.level_set(0.3),
    np.array([0.2, 0.1]), times=0.01 * np.arange(9), search_radius=0.6)
loaded.append(scipy_modules())
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "positions": [float(v).hex() for v in res.positions.ravel()],
}))
"""


def _fresh_interpreter(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _SCRIPT, *args], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_no_scipy_after_import_cli_commands_and_analytic_level_tracks(tmp_path):
    got = _fresh_interpreter(str(tmp_path / "f.wvf"))
    assert got["codes"] == [0] * 7
    assert got["loaded"] == [[]] * 9
    # a fresh interpreter finds the same crossings, bit for bit
    ref = wv.track_attribute(
        wv.PlaneWave((2.0, 1.0), 3.0), wv.AttributeSpec.level_set(0.3),
        np.array([0.2, 0.1]), times=0.01 * np.arange(9), search_radius=0.6)
    assert got["positions"] == [float(v).hex() for v in ref.positions.ravel()]
