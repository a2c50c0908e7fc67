"""Workload definitions, set-up and campaign runners of the benchmark.

A campaign is the paper's chain for one seed: synthesize a pressure series,
fit every spectrum, extrapolate the width to zero pressure and turn it into
k_B with its budget.  ``run_library_campaign`` drives it in-process through
the library's batch functions; ``run_cli_campaign`` runs the four CLI stages,
each as its own ``python -m dopplerkb.cli`` process, the way users run it.

The program is imported inside ``setup`` so that a fresh interpreter that
imports this module pays only for the standard library before it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import threading
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
QUALITY_SEED = 7
NOISELESS_KB_TOL = 1e-5
STAGE_TIMEOUT_S = 30.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    cli: bool               # four CLI processes per campaign, else in-process
    replicas: int           # spectra per pressure of the default 8-pressure series
    model: str              # fit model name
    comb: bool              # hyperfine x FM-comb synthesis
    quality_campaigns: int  # fixed-seed campaigns behind the quality metrics
    trace_campaigns: int    # campaigns of each phase of the traced run


# Why each workload exists is in README.md.  The W3 campaign is smaller than
# W1 because comb synthesis costs ~35 ms per spectrum.  Quality lists are
# sized so that they fill about half of a 30 s timed part.
WORKLOADS = {
    "campaign-cli": Workload("campaign-cli", cli=True, replicas=50, model="exp-gaussian",
                             comb=False, quality_campaigns=4, trace_campaigns=2),
    "mc-bias": Workload("mc-bias", cli=False, replicas=50, model="exp-gaussian",
                        comb=False, quality_campaigns=24, trace_campaigns=8),
    "systematics": Workload("systematics", cli=False, replicas=6, model="exp-voigt",
                            comb=True, quality_campaigns=6, trace_campaigns=3),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at smoke-test size."""
    return dataclasses.replace(workload, replicas=min(workload.replicas, 2),
                               quality_campaigns=3, trace_campaigns=1)


def campaign_seeds(label: str, seed: int):
    """Endless stream of campaign seeds derived from the workload seed."""
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield rng.getrandbits(32)


def write_config(workload: Workload, path: Path) -> None:
    """The default campaign config with the workload's replica count."""
    path.write_text(json.dumps({"replicas": workload.replicas}) + "\n")


@dataclasses.dataclass
class Context:
    """Everything a campaign needs, built once by ``setup``."""

    workload: Workload
    config_path: Path
    cfg: object
    transition: object
    scan: object
    pressures: tuple        # expanded pressure-major: p0 x replicas, p1 x replicas, ...
    conditions: object
    temperature: object
    model: object
    hyperfine: object
    comb: object
    delta_true_mhz: float
    load_config_s: float


def setup(workload: Workload, config_path) -> Context:
    """Import the program, load the config and build the line structure."""
    import dopplerkb
    from dopplerkb import boltzmann, config, fitter, lineshape

    if workload.cli:
        import dopplerkb.cli  # noqa: F401  (the import every stage process pays)
    t0 = time.perf_counter()
    cfg = config.load_config(config_path)
    load_config_s = time.perf_counter() - t0
    transition = cfg.transition()
    hyperfine = comb = None
    if workload.comb:
        hyperfine = dopplerkb.HyperfineStructure.nh3_placeholder()
        comb = dopplerkb.ModulationComb.paper_default()
    pressures = tuple(p for p in cfg.pressures_pa for _ in range(cfg.replicas))
    return Context(
        workload=workload,
        config_path=Path(config_path),
        cfg=cfg,
        transition=transition,
        scan=cfg.scan(),
        pressures=pressures,
        conditions=cfg.conditions(pressures[0]),
        temperature=boltzmann.TemperatureReading(cfg.temperature_k, cfg.temperature_sigma_k),
        model=fitter.FitModel.from_name(workload.model),
        hyperfine=hyperfine,
        comb=comb,
        delta_true_mhz=lineshape.doppler_width(transition, cfg.temperature_k, cfg.kb_true),
        load_config_s=load_config_s,
    )


@dataclasses.dataclass
class Outcome:
    """One campaign: its wall time, spectrum accounting and result."""

    seed: int
    seconds: float
    attempted: int
    converged: int = 0
    unconverged: int = 0
    lost: int = 0           # spectra of a batch aborted by a raised error / failed stage
    kb: Optional[float] = None
    delta_d_mhz: Optional[float] = None
    delta_d_sigma_mhz: Optional[float] = None
    error: str = ""
    budget: object = None   # BoltzmannResult (library campaigns)
    kb_json: bytes = b""    # kb.json as written (CLI campaigns)
    max_rss_kb: int = 0     # largest stage process (CLI campaigns)
    bytes_written: int = 0  # CLI campaigns

    @property
    def ok(self) -> bool:
        return self.kb is not None

    @property
    def accounted(self) -> bool:
        """Check (c): converged + unconverged + lost = attempted."""
        return self.converged + self.unconverged + self.lost == self.attempted


def run_library_campaign(ctx: Context, seed: int, tracer=None, *, noiseless=False) -> Outcome:
    """The chain in-process through the batch functions; no files written.

    Functions are looked up on their defining modules at call time, so the
    traced run's wrappers see these calls.
    """
    from dopplerkb import boltzmann, extrapolation, fitter, simulator
    from dopplerkb.errors import DopplerKBError

    scan = ctx.scan.without_noise() if noiseless else ctx.scan
    out = Outcome(seed=seed, seconds=0.0, attempted=len(ctx.pressures))
    root = tracer.begin("bench.campaign") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        pairs = simulator.synth_series(
            ctx.transition, ctx.pressures, ctx.conditions, scan, ctx.cfg.kb_true, seed,
            hyperfine=ctx.hyperfine, comb=ctx.comb,
            temperature_sigma_k=ctx.cfg.temperature_sigma_k,
            cell_length_m=ctx.cfg.cell_length_m,
        )
        results = fitter.fit_series([spectrum for spectrum, _ in pairs], ctx.model)
    except DopplerKBError as exc:
        out.lost = out.attempted
        out.error = f"synth/fit: {exc}"
    else:
        out.converged = sum(1 for r in results if r.converged)
        out.unconverged = len(results) - out.converged
        try:
            threshold = extrapolation.default_slope_threshold(results)
            points = extrapolation.points_from_fit_results(results)
            kept, rejected = extrapolation.filter_by_slope(points, threshold)
            line = extrapolation.zero_pressure_width(kept, n_rejected=len(rejected))
            budget = boltzmann.uncertainty_budget(
                line.delta_d_mhz, line.delta_d_sigma_mhz, ctx.transition, ctx.temperature,
                mass_sigma_rel=ctx.cfg.mass_sigma_rel, nu_sigma_rel=ctx.cfg.nu_sigma_rel,
            )
        except DopplerKBError as exc:
            out.error = f"series/kb: {exc}"
        else:
            out.kb = budget.kb
            out.delta_d_mhz = line.delta_d_mhz
            out.delta_d_sigma_mhz = line.delta_d_sigma_mhz
            out.budget = budget
    out.seconds = time.perf_counter() - t0
    if root is not None:
        tracer.end(root)
    return out


def child_env(src_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, env, log_path: Path, timeout_s: float = STAGE_TIMEOUT_S):
    """Run ``argv`` to completion; returns (exit code, peak RSS in KB).

    The child is reaped with ``os.wait4`` so its own peak RSS is known; a
    watchdog kills it after ``timeout_s``.
    """
    import subprocess

    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log, env=env)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, usage.ru_maxrss


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_cli_campaign(ctx: Context, seed: int, workdir: Path, src_dir: Path,
                     tracer=None) -> Outcome:
    """simulate -> fit -> series -> kb, each stage its own process.

    Exit 3 means records were written with some fits unconverged: the
    campaign goes on and counts them from the records.  Any other non-zero
    exit fails the campaign; spectra without a fit record count as lost.
    The traced run starts each stage through ``cli_launcher.py``.
    """
    from dopplerkb.fileio import read_fit_records

    cdir = workdir / f"campaign-{seed}"
    logs = workdir / "logs"
    cdir.mkdir(parents=True)
    logs.mkdir(exist_ok=True)
    spectra, fits = cdir / "spectra", cdir / "fits.jsonl"
    summary, kb_path = cdir / "summary.json", cdir / "kb.json"
    stages = (
        ("simulate", ["simulate", "--config", ctx.config_path, "--out", spectra,
                      "--seed", seed]),
        ("fit", ["fit", spectra, "--out", fits]),
        ("series", ["series", "--fits", fits, "--out-summary", summary,
                    "--out-table", cdir / "widths.txt"]),
        ("kb", ["kb", "--summary", summary, "--config", ctx.config_path, "--out", kb_path]),
    )
    env = child_env(src_dir)
    out = Outcome(seed=seed, seconds=0.0, attempted=len(ctx.pressures))
    root = tracer.begin("bench.campaign") if tracer is not None else None
    t0 = time.perf_counter()
    for stage, args in stages:
        args = [str(a) for a in args]
        if tracer is None:
            argv = [sys.executable, "-m", "dopplerkb.cli", *args]
        else:
            spans_path = logs / f"spans-{stage}.json"
            argv = [sys.executable, str(HERE / "cli_launcher.py"), str(spans_path), *args]
            span = tracer.begin(f"cli.{stage}")
        code, rss_kb = run_process(argv, env, logs / f"{stage}.log")
        if tracer is not None:
            tracer.end(span)
            if spans_path.exists():
                tracer.adopt(json.loads(spans_path.read_text()), span)
                spans_path.unlink()
        out.max_rss_kb = max(out.max_rss_kb, rss_kb)
        if code not in (0, 3):
            tail = (logs / f"{stage}.log").read_text(errors="replace").strip().splitlines()
            out.error = f"{stage}: exit {code}: {tail[-1] if tail else ''}"
            break
    out.seconds = time.perf_counter() - t0
    if root is not None:
        tracer.end(root)

    if fits.exists():
        records = read_fit_records(fits)
        out.converged = sum(1 for r in records if r.converged)
        out.unconverged = len(records) - out.converged
    else:
        out.lost = out.attempted
    if not out.error:
        record = json.loads(kb_path.read_text())
        out.kb = record["kb_j_per_k"]
        out.kb_json = kb_path.read_bytes()
        summary_record = json.loads(summary.read_text())
        out.delta_d_mhz = summary_record["delta_d_mhz"]
        out.delta_d_sigma_mhz = summary_record["delta_d_sigma_mhz"]
    out.bytes_written = _tree_bytes(cdir)
    return out


def library_kb_json(ctx: Context, seed: int, path: Path) -> Optional[bytes]:
    """kb.json as the library chain writes it for the same config and seed."""
    from dopplerkb.fileio import write_boltzmann_record

    outcome = run_library_campaign(ctx, seed)
    if not outcome.ok:
        return None
    write_boltzmann_record(outcome.budget, path)
    return path.read_bytes()


def quality_metrics(ctx: Context, outcomes) -> dict:
    """k_B bias and δ_D pulls over the workload's fixed-seed campaigns.

    The campaign list depends neither on ``--seed`` nor on how long the
    timed part runs, so these figures repeat exactly for the same code.
    """
    import statistics

    done = [o for o in outcomes if o.ok]
    if len(done) < 2:
        raise RuntimeError("quality block: fewer than two campaigns gave k_B")
    kb_true = ctx.cfg.kb_true
    pulls = [(o.delta_d_mhz - ctx.delta_true_mhz) / o.delta_d_sigma_mhz for o in done]
    return {
        "kb_bias_rel": abs(statistics.fmean(o.kb / kb_true - 1.0 for o in done)),
        "pull_mean_abs": abs(statistics.fmean(pulls)),
        "pull_width_err": abs(statistics.stdev(pulls) - 1.0),
        "delta_bias_rel": statistics.fmean(o.delta_d_mhz / ctx.delta_true_mhz - 1.0
                                           for o in done),
        "pull_mean": statistics.fmean(pulls),
        "pull_std": statistics.stdev(pulls),
    }
