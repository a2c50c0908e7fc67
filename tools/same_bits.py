"""Digests of the fitter's results and of the CLI's outputs, for checking
that a change leaves every bit the same.

Run as ``python tools/same_bits.py``; it fits with whichever ``dopplerkb``
is importable, so ``PYTHONPATH=<other checkout>/src python
tools/same_bits.py`` checks another version.  It prints three sha256 lines:

1. ``fits``: θ, covariance, ``chi2_reduced``, ``n_iter``, ``converged`` and
   ``source_id`` of every fit of four W2 campaigns (seeds 100-103), three
   W3 campaigns (exp-Voigt, seeds 200-202) and a series on three grids
   (501, 401 and another 501 points, interleaved) for both models at
   ``max_iter`` 3 and 200.
2. ``failures``: the outcome of two series that each hold a degenerate and
   an unstartable spectrum, on two grids of the same size: every result
   with those fields and its ``failure``, or the error raised when a
   version of ``fit_series`` raises for a failed spectrum.
3. ``cli``: the spectra, ``fits.jsonl``, ``summary.json``, ``widths.txt`` and
   ``kb.json`` of the W1 campaign ``{"replicas": 50}`` at ``--seed 9``
   through ``simulate``, ``fit``, ``series`` and ``kb``.  Manifests are left
   out: they record paths.
"""

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

from dopplerkb import (
    GasConditions,
    HyperfineStructure,
    ModulationComb,
    ScanConfig,
    constants,
    fit_series,
)
from dopplerkb.cli import main
from dopplerkb.config import CampaignConfig
from dopplerkb.errors import DopplerKBError
from dopplerkb.fitter import FitModel
from dopplerkb.simulator import synth_series

GAUSSIAN, VOIGT = FitModel.EXP_GAUSSIAN, FitModel.EXP_VOIGT
KB = constants.KB_CODATA_2002


def add_result(digest, r):
    theta = list(r.params.values())
    digest.update(struct.pack(f"{len(theta)}d", *theta))
    digest.update(r.covariance.tobytes())
    digest.update(struct.pack("d?q", r.chi2_reduced, r.converged, r.n_iter))
    digest.update(r.source_id.encode() + b"\0")


def add_fits(digest, label, spectra, model, max_iter=200):
    ids = [f"{label}-{i}" for i in range(len(spectra))]
    for r in fit_series(spectra, model, max_iter=max_iter, source_ids=ids):
        add_result(digest, r)


def add_outcomes(digest, label, spectra):
    try:
        results = fit_series(spectra, source_ids=[f"{label}-{i}" for i in range(len(spectra))])
    except DopplerKBError as exc:
        digest.update(f"{type(exc).__name__}: {exc}\0".encode())
        return
    for r in results:
        add_result(digest, r)
        digest.update(getattr(r, "failure", "").encode() + b"\0")


def campaign(seed, replicas, comb=False):
    cfg = CampaignConfig(replicas=replicas)
    pressures = [p for p in cfg.pressures_pa for _ in range(replicas)]
    pairs = synth_series(cfg.transition(), pressures, cfg.conditions(pressures[0]), cfg.scan(),
                         cfg.kb_true, seed,
                         hyperfine=HyperfineStructure.nh3_placeholder() if comb else None,
                         comb=ModulationComb.paper_default() if comb else None,
                         temperature_sigma_k=cfg.temperature_sigma_k,
                         cell_length_m=cfg.cell_length_m)
    return [spectrum for spectrum, _ in pairs]


def on_scan(pressures, seed, span=250.0, step=0.5):
    transition = CampaignConfig().transition()
    pairs = synth_series(transition, pressures, GasConditions(pressure_pa=1.0),
                         ScanConfig(span_mhz=span, step_mhz=step), KB, seed)
    return [spectrum for spectrum, _ in pairs]


def fits_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(100, 104):
        add_fits(digest, f"w2-{seed}", campaign(seed, 50), GAUSSIAN)
    for seed in range(200, 203):
        add_fits(digest, f"w3-{seed}", campaign(seed, 6, comb=True), VOIGT)

    pressures = [0.6, 2.0, 3.2, 5.0, 7.5]
    wide = on_scan(pressures * 9, 300)                     # 501 points
    narrow = on_scan(pressures * 2, 301, span=200.0)       # 401 points
    shifted = on_scan(pressures * 4, 302, span=200.0, step=0.4)  # 501 other offsets
    mixed = (wide[:40] + narrow[:7] + shifted[:5] + wide[40:43] + shifted[5:17]
             + narrow[7:9] + wide[43:45])
    for model in (GAUSSIAN, VOIGT):
        for max_iter in (3, 200):
            add_fits(digest, f"grids-{model.value}-{max_iter}", mixed, model, max_iter)
    return digest.hexdigest()


def failures_digest() -> str:
    digest = hashlib.sha256()
    wide = on_scan([0.6, 2.0, 3.2], 300)                        # 501 points
    shifted = on_scan([0.6, 2.0], 302, span=200.0, step=0.4)    # 501 other offsets
    # a singular normal matrix at S/N 1000, and flat spectra, whose start is refused
    degenerate, = on_scan([0.01], 3)
    flat_wide, flat_shifted = (s.with_transmission([1.0] * s.n_points)
                               for s in (wide[0], shifted[0]))
    add_outcomes(digest, "degenerate-first",
                 wide[:3] + [degenerate] + shifted[:2] + [flat_shifted])
    add_outcomes(digest, "refused-first", wide[:2] + [flat_wide] + shifted[:2] + [degenerate])
    return digest.hexdigest()


def cli_digest() -> str:
    digest = hashlib.sha256()
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("campaign.json").write_text(json.dumps({"replicas": 50}))
            for argv in (["simulate", "--config", "campaign.json", "--out", "spectra",
                          "--seed", "9"],
                         ["fit", "spectra", "--out", "fits.jsonl"],
                         ["series", "--fits", "fits.jsonl", "--out-summary", "summary.json",
                          "--out-table", "widths.txt"],
                         ["kb", "--summary", "summary.json", "--config", "campaign.json",
                          "--out", "kb.json"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    sys.exit(f"same_bits: {argv[0]} exited {code}")
            outputs = sorted(Path("spectra").glob("spectrum_*.txt")) + [
                Path(name) for name in ("fits.jsonl", "summary.json", "widths.txt", "kb.json")]
            for path in outputs:
                digest.update(f"{path.as_posix()}\0".encode() + path.read_bytes())
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


if __name__ == "__main__":
    fits = fits_digest()
    failures = failures_digest()
    cli = cli_digest()
    print(f"{fits}  fits")
    print(f"{failures}  failures")
    print(f"{cli}  cli")
