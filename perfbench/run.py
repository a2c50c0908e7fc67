"""Benchmark of the dopplerkb chain synth -> fit -> extrapolation -> k_B.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics for S seconds; ``--trace 1`` runs the workload's fixed number of
campaigns untraced and then traced, and reports the per-layer metrics.
Both run the correctness checks; a failed check fails the run (exit 1).
A readable report goes first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count campaigns; a campaign fails when it gives
no k_B.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import campaigns
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 12
IMPORT_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(campaigns.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (for the benchmark's own tests)")
    return parser.parse_args(argv)


def _probe(args, env) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload, config_path, env) -> float:
    """Fresh interpreter start to 'ready for the first campaign'."""
    t0 = time.perf_counter()
    ready = float(_probe(["setup", workload.name, str(config_path)], env))
    return ready - t0


class Bench:
    def __init__(self, args, workload, workdir: Path):
        self.args = args
        self.workload = workload
        self.workdir = workdir
        self.config_path = workdir / "campaign.json"
        self.env = campaigns.child_env(SRC)
        self.outcomes = []      # every campaign run, for check (c) and the counts
        self.checks = []        # (name, passed, detail)
        self.report = []        # readable lines

    def campaign(self, ctx, seed, tracer=None):
        if self.workload.cli:
            out = campaigns.run_cli_campaign(ctx, seed, self.workdir, SRC, tracer)
            shutil.rmtree(self.workdir / f"campaign-{seed}")
        else:
            out = campaigns.run_library_campaign(ctx, seed, tracer)
        self.outcomes.append(out)
        return out

    def setup(self):
        ctx = campaigns.setup(self.workload, self.config_path)
        import dopplerkb

        if not Path(dopplerkb.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"dopplerkb imported from {dopplerkb.__file__}, not {SRC}")
        return ctx

    def run(self) -> dict:
        campaigns.write_config(self.workload, self.config_path)
        metrics = self.run_traced() if self.args.trace else self.run_timed()
        self.check_accounting()
        declared = json.loads(SPEC.read_text())["per_layer" if self.args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not computed: {sorted(missing)}")
        return {
            "correct": all(passed for _, passed, _ in self.checks),
            "attempted": len(self.outcomes),
            "failed": sum(1 for o in self.outcomes if not o.ok),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }

    def run_timed(self) -> dict:
        """The timed part starts with the workload's fixed-seed quality
        campaigns and goes on with campaigns seeded from ``--seed`` (at least
        one) until ``--seconds`` have passed."""
        probes = 1 if self.args.tiny else SETUP_PROBES
        if not self.args.tiny:
            # Warm-up: fills the bytecode and page caches, as on a user's second run.
            setup_seconds(self.workload, self.config_path, self.env)
        setup_samples = [setup_seconds(self.workload, self.config_path, self.env)]
        ctx = self.setup()
        fixed = campaigns.campaign_seeds(f"quality:{self.workload.name}", campaigns.QUALITY_SEED)
        seeds = campaigns.campaign_seeds(self.workload.name, self.args.seed)
        t0 = time.perf_counter()
        probe_s = 0.0  # wall time of the set-up probes, left out of the timed part

        def net_s():
            return time.perf_counter() - t0 - probe_s

        def probe_setup(due):
            """Take set-up probes until ``due`` are done; spread over the
            timed part, they sample the host's speed states as it does."""
            nonlocal probe_s
            while len(setup_samples) < due:
                t = time.perf_counter()
                setup_samples.append(setup_seconds(self.workload, self.config_path, self.env))
                probe_s += time.perf_counter() - t

        def campaign(seed):
            probe_setup(1 + (probes - 1) * min(1.0, net_s() / self.args.seconds))
            return self.campaign(ctx, seed)

        quality_runs = [campaign(next(fixed)) for _ in range(self.workload.quality_campaigns)]
        seeded = []
        while not seeded or net_s() < self.args.seconds:
            seeded.append(campaign(next(seeds)))
        timed_s = net_s()
        probe_setup(probes)
        timed = quality_runs + seeded
        if self.workload.cli:
            peak_rss_kb = max(o.max_rss_kb for o in timed)
        else:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done = [o.seconds for o in timed if o.ok]
        if not done:
            raise RuntimeError(f"no campaign gave k_B: {timed[0].error}")

        self.run_checks(ctx, seeded)
        quality = campaigns.quality_metrics(ctx, quality_runs)
        attempted = sum(o.attempted for o in timed)
        self.report += [
            f"timed part: {len(quality_runs)} fixed-seed + {len(seeded)} seeded campaigns, "
            f"{attempted} spectra in {timed_s:.3f} s",
            f"setup_s: median of {len(setup_samples)} probes; campaign_s: mean of {len(done)} "
            f"campaigns (median {statistics.median(done):.4f} s, max {max(done):.4f} s)",
            f"quality block (seed {campaigns.QUALITY_SEED}): delta_D bias "
            f"{quality['delta_bias_rel']:+.3e} relative, pull mean {quality['pull_mean']:+.3f}, "
            f"pull std {quality['pull_std']:.3f}",
        ]
        return {
            "setup_s": statistics.median(setup_samples),
            "campaign_s": statistics.fmean(done),
            "spectra_per_s": sum(o.converged + o.unconverged for o in timed) / timed_s,
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "converged_fraction": sum(o.converged for o in timed) / attempted,
            "kb_bias_rel": quality["kb_bias_rel"],
            "pull_mean_abs": quality["pull_mean_abs"],
            "pull_width_err": quality["pull_width_err"],
        }

    def run_traced(self) -> dict:
        import_samples = [float(_probe(["import-cli"], self.env))
                          for _ in range(1 if self.args.tiny else IMPORT_PROBES)]
        ctx = self.setup()
        seeds = campaigns.campaign_seeds(self.workload.name, self.args.seed)
        seeds = [next(seeds) for _ in range(self.workload.trace_campaigns)]
        untraced = [self.campaign(ctx, s) for s in seeds]

        tracer = tracing.Tracer()
        saved = [] if self.workload.cli else tracing.install(tracer, tracing.LIBRARY_TARGETS)
        t0 = time.perf_counter()
        try:
            traced = [self.campaign(ctx, s, tracer) for s in seeds]
        finally:
            wall_s = time.perf_counter() - t0
            tracing.uninstall(saved)
        self.run_checks(ctx, untraced)

        m = tracing.layer_metrics(tracer.spans, len(traced), wall_s)
        load_config = [s[2] - s[1] for s in tracer.spans if s[0] == "config.load_config"]
        attempted = sum(o.attempted for o in traced)
        traced_s = statistics.fmean(o.seconds for o in traced)
        m.update({
            "cli.import_s": statistics.median(import_samples),
            "config.load_config_ms": 1e3 * statistics.median([ctx.load_config_s, *load_config]),
            "fileio.bytes_per_campaign": statistics.fmean(o.bytes_written for o in traced),
            "fail_fraction": sum(o.unconverged + o.lost for o in traced) / attempted,
            "trace.campaign_s": traced_s,
            "trace.overhead_s": traced_s - statistics.fmean(o.seconds for o in untraced),
        })
        self.report.append(f"traced: {len(traced)} campaigns, {len(tracer.spans)} spans, "
                           f"{wall_s:.3f} s; untraced: {len(untraced)} campaigns")
        return m

    def run_checks(self, ctx, outcomes):
        """Checks (a) and (b); check (c) runs over every campaign at the end."""
        if self.workload.cli:
            first = next((o for o in outcomes if o.ok), None)
            library = None
            if first is not None:
                library = campaigns.library_kb_json(ctx, first.seed,
                                                    self.workdir / "library-kb.json")
            self.checks.append((
                "(a) kb.json of the CLI chain equals the library chain bit for bit",
                library is not None and library == first.kb_json,
                f"seed {first.seed if first else '-'}",
            ))
        if self.workload.name == "mc-bias":
            noiseless = campaigns.run_library_campaign(ctx, outcomes[0].seed, noiseless=True)
            self.outcomes.append(noiseless)
            rel = noiseless.kb / ctx.cfg.kb_true - 1.0 if noiseless.ok else float("nan")
            self.checks.append((
                f"(b) noiseless campaign recovers k_B to <= {campaigns.NOISELESS_KB_TOL:g}",
                abs(rel) <= campaigns.NOISELESS_KB_TOL,
                f"k_B/k_true - 1 = {rel:+.3e}",
            ))

    def check_accounting(self):
        bad = [o for o in self.outcomes if not o.accounted]
        self.checks.append((
            "(c) converged + unconverged + lost = attempted, every campaign",
            not bad,
            f"{len(self.outcomes)} campaigns, {len(bad)} unbalanced",
        ))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dopplerkb" / "__init__.py").is_file():
        print(f"perfbench: no dopplerkb sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    workload = campaigns.WORKLOADS[args.workload]
    if args.tiny:
        workload = campaigns.tiny(workload)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args, workload, workdir)
        result = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"perfbench {workload.name} seed {args.seed} trace {args.trace}")
    for line in bench.report:
        print(f"  {line}")
    for name, passed, detail in bench.checks:
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
