"""The benchmark's span tracer still finds what it wraps and counts.

`perfbench/tracer.py` wraps public functions by name and the class methods
in its METHODS; a renamed or moved one fails the tracer's install or leaves
a counter at zero without failing any other test.  The tracer rebinds
module attributes, so it runs in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from compopnum import opmatrix
from compopnum.opmatrix import retained_degree
from compopnum.series import SeriesParams
from compopnum.symbols import CuspMap

ROOT = Path(__file__).resolve().parents[1]

_TRACED_RUN = """
import json, sys
import tracer

spans = tracer.Tracer()
spans.install()
from compopnum import cli

out = sys.argv[1]
commands = [
    ["an", "--symbol", "cusp", "--N", "16", "--out", f"{out}/an.csv"],
    ["area", "--symbol", "cusp", "--t", "0.1", "--method", "monte-carlo",
     "--samples", "262149", "--seed", "1"],
    ["area", "--symbol", "cusp", "--t", "0.1"],
    ["zinc", "--symbol", "cusp", "--n", "60"],
]
codes = [cli.main(args + ["--report", f"{out}/{i}.json"]) for i, args in enumerate(commands)]
commands_spans = spans.summary()
import numpy as np
from compopnum import geometry, symbols

# the window route tests its points with the base's contains
geometry.window_area(symbols.CuspMap(), geometry.CarlesonWindow(1.0, 0.25), "monte-carlo",
                     samples=4099, seed=1)
window_spans = sorted(spans.summary())
# the winding-test entry, on seeded window points in the disk
rng = np.random.default_rng(1)
u, v = rng.random(4099), rng.random(4099)
w = 1.0 + 0.25 * np.sqrt(u) * np.exp(1j * (2.0 * np.pi * v))
w = w[np.abs(w) < 1.0]
geometry.image_contains(symbols.CuspMap(), w)
print(json.dumps({"codes": codes, "spans": commands_spans, "window_spans": window_spans,
                  "passed": int(w.size), "contains": spans.summary()["geometry.image_contains"]}))
"""


def test_tracer_installs_and_its_hooks_count(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    spans = result["spans"]
    # the FFT count is not pinned: the tracer books two per power, where one runs
    assert spans["series.power_coefficient_table"]["ffts"] > 0
    assert spans["opmatrix.singular_spectrum"]["svd_dim"] == 16
    # the catalog's evaluate methods: the real cusp's table samples Q/2 + 1
    # points of its circle, Q from the default plan at N = 16, and the
    # column bound n/2 + 1 of each of its circles, n = Q/4; no other command
    # evaluates it
    Q = SeriesParams(M=retained_degree(CuspMap(), 16)).resolved()[2]
    circles = opmatrix._BOUND_DEPTHS.size * (Q // opmatrix._BOUND_SAMPLING // 2 + 1)
    assert spans["symbols.evaluate"]["points"] == Q // 2 + 1 + circles == 129 + 6 * 33
    # the annulus and window routes ask the base's contains, never image_contains
    assert "geometry.image_contains" not in spans
    assert "geometry.image_contains" not in result["window_spans"]
    # the hook on the winding-test entry counts one call and every point passed
    rng = np.random.default_rng(1)
    u, v = rng.random(4099), rng.random(4099)
    w = 1.0 + 0.25 * np.sqrt(u) * np.exp(1j * (2.0 * np.pi * v))
    assert result["passed"] == np.count_nonzero(np.abs(w) < 1.0) > 0
    assert result["contains"]["calls"] == 1
    assert result["contains"]["points"] == result["passed"]
    assert spans["geometry.CuspRegion.annulus_area"]["calls"] >= 1
    assert spans["geometry.M_functional"]["calls"] >= 1
    # every command here has a known image base: no sup-norm majorant
    assert "tails.column_tail_majorant" not in spans
