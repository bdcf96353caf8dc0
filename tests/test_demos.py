"""Every demo script runs to completion against the current API, and the
reference pulse preset matches the demo input file."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import presets
from voidtherm.material import MATERIAL_KEYS

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_pulse_preset_matches_the_demo_input():
    # presets.pulse_scenario() and demos/inputs/pulse.scn are two copies of
    # the reference pulse: the same grid, horizon, slab, step, material and
    # face table (only the label differs)
    preset = presets.pulse_scenario()
    scn = vt.read_scenario_file(ROOT / "demos" / "inputs" / "pulse.scn")
    assert (preset.grid, preset.T, preset.support_x0, preset.dt) == \
        (scn.grid, scn.T, scn.support_x0, scn.dt)
    for key in MATERIAL_KEYS:
        assert np.array_equal(getattr(preset.material, key), getattr(scn.material, key)), key
    assert preset.boundary.faces.keys() == scn.boundary.faces.keys()
    for face, groups in preset.boundary.faces.items():
        for group, bc in groups.items():
            # repr covers the kind, the signal with its parameters, and the axis
            assert repr(bc) == repr(scn.boundary.faces[face][group]), (face, group)
    assert not preset.initial and not scn.initial and not preset.sources and not scn.sources
