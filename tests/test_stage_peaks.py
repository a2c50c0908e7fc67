"""``tools/stage_peaks.py`` prints the peak RSS of each W1 CLI stage."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_a_peak_for_each_stage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_peaks.py"),
                           "--replicas", "1"], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    header, *lines = proc.stdout.splitlines()
    assert header == "peak RSS of each stage at 8 spectra"
    assert [line.split()[0] for line in lines] == ["simulate", "fit", "series", "kb", "import"]
    assert all(re.fullmatch(r"\w+ +\d+\.\d MB", line) for line in lines)
    *stages, floor = (float(line.split()[1]) for line in lines)
    assert all(10 < peak < 200 for peak in stages)
    # every stage imports dopplerkb.cli and then does its work
    assert 10 < floor < min(stages)


def test_a_failing_stage_names_itself_and_exits_non_zero(tmp_path):
    # without dopplerkb importable the first stage fails
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_peaks.py"),
                           "--replicas", "1"], env=env, capture_output=True, text=True,
                          timeout=60, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "stage_peaks: simulate exited 1"
