"""Peak resident memory of each W1 CLI stage, each run as its own process.

Run as ``python tools/stage_peaks.py [--replicas N]``, with ``dopplerkb``
importable (``PYTHONPATH=src`` in a checkout).  It runs ``simulate``,
``fit``, ``series`` and ``kb`` of the default 8-pressure campaign at seed 42
and N replicas per pressure (default 50: 400 spectra) in a temp directory,
and prints each stage's peak RSS in MB: the ``ru_maxrss`` of the stage
process, reaped with ``os.wait4``.

The script imports the standard library only.  Linux carries a parent's
high-water mark into a child started by vfork + exec, so a stage run from a
parent that has loaded numpy reports at least the parent's peak; from this
small process the figure is the stage's own.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESSURES_PA = [0.2, 0.6, 1.2, 2.0, 3.2, 5.0, 7.5, 10.0]


def stage_peak_mb(*args) -> float:
    """Run ``python -m dopplerkb.cli *args`` and return its peak RSS in MB."""
    proc = subprocess.Popen([sys.executable, "-m", "dopplerkb.cli", *map(str, args)],
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"stage_peaks: {args[0]} exited {proc.returncode}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--replicas", type=int, default=50,
                        help="spectra per pressure (default 50)")
    replicas = parser.parse_args(argv).replicas
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config = work / "campaign.json"
        config.write_text(json.dumps({"pressures_pa": PRESSURES_PA, "replicas": replicas,
                                      "seed": 42, "snr": 1000.0}))
        spectra, fits, summary = work / "spectra", work / "fits.jsonl", work / "summary.json"
        stages = {
            "simulate": ("simulate", "--config", config, "--out", spectra),
            "fit": ("fit", spectra, "--out", fits),
            "series": ("series", "--fits", fits, "--out-summary", summary,
                       "--out-table", work / "widths.txt"),
            "kb": ("kb", "--summary", summary, "--config", config, "--out", work / "kb.json"),
        }
        print(f"peak RSS of each stage at {len(PRESSURES_PA) * replicas} spectra")
        for name, args in stages.items():
            print(f"{name:9s}{stage_peak_mb(*args):8.1f} MB", flush=True)


if __name__ == "__main__":
    main()
