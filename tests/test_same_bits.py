"""``tools/same_bits.py`` prints one sha256 for the fits, one for the outcomes
of series with failed spectra, and one for the CLI outputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_a_digest_of_the_fits_the_failures_and_the_cli_outputs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "same_bits.py")], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert [line.split("  ")[1] for line in lines] == ["fits", "failures", "cli"]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \w+", line) for line in lines)
