#!/usr/bin/env python3
"""rsstego benchmark: Monte-Carlo trials/s and CLI embed/extract bytes/s.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-rs31-burst --seed 1 --seconds 50 --trace 0

Each workload fixes one code geometry and times four jobs on it, in one
process and one thread: a cold set-up (field, geometry, Cauchy matrix),
``run_experiment`` on a 6-bit burst channel (the paper's experiment), and a
cold ``rsstego embed`` and ``rsstego extract`` of a random carrier through
``rsstego.cli.main``.  The workload's shares decide which job gets most of
the run.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped.  ``--trace 1`` follows every untraced call with the same call
traced, then counts operations exactly in a separate pass (spans.py).
Every output is checked.  The last stdout line is one JSON object, and the
exit status is 1 if any check failed.  bench/README.md explains the
workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from rsstego import (
        ChannelSpec,
        CodeParams,
        ExperimentConfig,
        ExperimentReport,
        GF2m,
        cli,
        export_report,
        run_experiment,
        run_trial,
    )
    from rsstego import rs
except ImportError as exc:
    sys.exit(f"bench: cannot import rsstego from {ROOT / 'src'}: {exc}")

import spans

# The lru_cache object itself: the span pass rebinds the name rs.build_cauchy.
BUILD_CAUCHY = rs.build_cauchy

GOLDEN_SEED = 1
GOLDEN_FILE = BENCH_DIR / "golden.json"
STEGO = 2
BURST_BITS = 6
MIN_SAMPLES = 3
CLOCK = time.perf_counter


@dataclass(frozen=True)
class Workload:
    m: int
    k: int
    trials: int            # Monte-Carlo trials per timed run_experiment call
    carrier_bytes: int     # carrier size for embed/extract
    shares: dict           # job name -> share of --seconds
    round_s: float         # interleaving round, see run_rounds

    @property
    def n(self) -> int:
        return (1 << self.m) - 1

    @property
    def codewords(self) -> int:
        symbols = -(-self.carrier_bytes * 8 // self.m)
        return -(-symbols // self.k)

    @property
    def message_bytes(self) -> int:
        """Message that fills exactly STEGO symbols in every codeword."""
        symbols = STEGO * self.codewords
        size = symbols * self.m // 8
        if -(-size * 8 // self.m) != symbols:
            raise ValueError(f"no byte length fills {symbols} {self.m}-bit symbols")
        return size


WORKLOADS = {
    # The paper's experiment: small codewords, so per-trial overhead and
    # decoding 2-4 errors are the whole cost of trials_per_s.
    "mc-rs31-burst": Workload(
        m=5, k=19, trials=100, carrier_bytes=4096, round_s=0.5,
        shares={"trials": 0.6, "embed": 0.15, "extract": 0.2, "setup": 0.05}),
    # Bulk file path: encode, syndromes and container packing dominate.
    "file-rs255": Workload(
        m=8, k=223, trials=8, carrier_bytes=16384, round_s=0.5,
        shares={"trials": 0.25, "embed": 0.35, "extract": 0.35, "setup": 0.05}),
    # m > 8: build_cauchy's O(k^2) set-up and the length-2047 Chien scan.
    "file-rs2047": Workload(
        m=11, k=2015, trials=1, carrier_bytes=4096, round_s=3.0,
        shares={"trials": 0.2, "embed": 0.35, "extract": 0.1, "setup": 0.35}),
}

# Span-pass layers that report per-call percentiles (they have many calls).
PERCENTILE_LAYERS = (
    "rs.encode", "rs.syndromes", "rs.decode", "stego.derive_positions",
    "stego.embed", "stego.extract", "channel.apply_noise", "harness.run_trial",
)
REPORTED_LAYERS = PERCENTILE_LAYERS + (
    "rs.build_cauchy", "container.pack_symbols", "container.unpack_symbols",
    "container.bytes_to_symbols", "cli.cmd_embed", "cli.cmd_extract",
)


class Tally:
    """Operations attempted and failed correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ops: int, failed: int, reason: str) -> None:
        self.attempted += ops
        self.failed += failed
        if failed and reason not in self.reasons:
            self.reasons.append(reason)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timed(fn, tracer=None):
    """Run fn once; spans are recorded only when a tracer is given."""
    patch = tracer.install() if tracer is not None else None
    try:
        t0 = CLOCK()
        result = fn()
        return CLOCK() - t0, result
    finally:
        if patch is not None:
            patch.undo()


def calibrate(seconds: float) -> float:
    """Median rate of a fixed pure-Python table-lookup loop, in lookups/s."""
    exp = list(range(512))
    log = list(range(256))
    rates = []
    deadline = CLOCK() + seconds
    while CLOCK() < deadline:
        t0 = CLOCK()
        acc = 0
        for a in range(1, 64):
            la = log[a]
            for b in range(1, 256):
                acc ^= exp[la + log[b]]
        rates.append(63 * 255 / (CLOCK() - t0))
    return median(rates)


# ----------------------------------------------------------------------
# jobs: prepare() once untimed, warm() before a run of steps, step() timed
# ----------------------------------------------------------------------
class ColdSetup:
    """Cold field + geometry + Cauchy build, as every fresh process pays it."""

    name = "setup"

    def __init__(self, w: Workload):
        self.w = w
        self.samples: list[float] = []
        self.built: CodeParams | None = None   # cached geometry, for MonteCarlo.warm

    def prepare(self) -> None:
        pass

    def warm(self) -> None:
        pass

    def step(self, tracer=None) -> float:
        w = self.w

        def build():
            params = CodeParams(field=GF2m(w.m), n=w.n, k=w.k)
            BUILD_CAUCHY(params)
            return params

        BUILD_CAUCHY.cache_clear()
        dt, self.built = timed(build, tracer)
        self.samples.append(dt)
        return dt


def mc_config(w: Workload, master_seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        params=CodeParams(field=GF2m(w.m), n=w.n, k=w.k),
        stego_count=STEGO,
        channel=ChannelSpec(mode="burst", burst_bits=BURST_BITS),
        trials=w.trials,
        master_seed=master_seed,
    )


def failed_trials(config: ExperimentConfig, report: ExperimentReport) -> int:
    """Re-run every trial through run_trial and check it and the report.

    Every trial must decode its data without a decode failure, and recover
    exactly the message symbols whose positions the channel missed.  The
    report must aggregate those records.
    """
    n, trials = config.params.n, config.trials
    error_hist, stego_hist = [0] * n, [0] * n
    bad = data_ok = symbols_ok = whole_ok = 0
    for i in range(trials):
        rec = run_trial(config, i)
        survived = sum(p not in rec.error_positions for p in rec.stego_positions)
        bad += not rec.data_ok or rec.decode_failed or rec.message_symbols_ok != survived
        data_ok += rec.data_ok
        symbols_ok += rec.message_symbols_ok
        whole_ok += rec.message_symbols_ok == config.stego_count
        for p in rec.error_positions:
            error_hist[p] += 1
        for p in rec.stego_positions:
            stego_hist[p] += 1
    expected = ExperimentReport(
        pct_decoded_info=100.0 * data_ok / trials,
        pct_decoded_secret=100.0 * symbols_ok / (trials * config.stego_count),
        pct_decoded_secret_trials=100.0 * whole_ok / trials,
        error_location_hist=error_hist,
        stego_location_hist=stego_hist,
        trials=trials,
        stego_count=config.stego_count,
    )
    return trials if report != expected else bad


class MonteCarlo:
    """run_experiment at a fixed trial count and master seed."""

    name = "trials"

    def __init__(self, w: Workload, master_seed: int, tally: Tally, setup: ColdSetup):
        self.w, self.tally, self.setup = w, tally, setup
        self.config = mc_config(w, master_seed)
        self.reference: ExperimentReport | None = None
        self.reference_failed = 0
        self.samples: list[float] = []

    def prepare(self) -> None:
        """Untimed first call: its report, checked trial by trial, is the
        reference every timed call must reproduce."""
        self.reference = run_experiment(self.config)
        self.reference_failed = failed_trials(self.config, self.reference)

    def warm(self) -> None:
        """The timed calls run with a cached matrix, but the cold jobs clear
        the cache.  A set-up step that ran just before has cached an equal
        geometry, which saves a rebuild (about 1 s at m=11)."""
        if self.setup.built is not None:
            self.config = replace(self.config, params=self.setup.built)
            self.setup.built = None
        BUILD_CAUCHY(self.config.params)

    def step(self, tracer=None) -> float:
        dt, report = timed(lambda: run_experiment(self.config), tracer)
        failed = self.reference_failed if report == self.reference else self.w.trials
        self.tally.record(self.w.trials, failed, "run_experiment trial check failed")
        self.samples.append(dt)
        return dt


class FileCase:
    """A carrier and a message on disk, the CLI calls on them, and checks."""

    def __init__(self, w: Workload, workdir: Path, tag: str, inputs: dict):
        self.w = w
        self.carrier, self.message = inputs["carrier"], inputs["message"]
        self.paths = {name: workdir / f"{tag}-{name}" for name in (
            "carrier", "message", "embedded", "container", "data_out", "message_out")}
        self.paths["carrier"].write_bytes(self.carrier)
        self.paths["message"].write_bytes(self.message)
        p = {name: str(path) for name, path in self.paths.items()}
        self.embed_argv = [
            "embed", "--data", p["carrier"], "--message", p["message"], "--out", p["embedded"],
            "--m", str(w.m), "--n", str(w.n), "--k", str(w.k),
            "--stego", str(STEGO), "--seed", str(inputs["key_seed"]),
        ]
        self.extract_argv = [
            "extract", p["container"], "--out-data", p["data_out"],
            "--out-message", p["message_out"], "--stego", str(STEGO),
        ]
        self.container_sha: str | None = None

    @staticmethod
    def _cli(argv, tracer):
        BUILD_CAUCHY.cache_clear()   # every rsstego process starts cold
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            dt, rc = timed(lambda: cli.main(argv), tracer)
        return dt, rc, out.getvalue()

    def embed(self, tracer=None) -> tuple[float, bool]:
        """Embed into 'embedded'; must match the reference container bytes."""
        self.paths["embedded"].unlink(missing_ok=True)
        dt, rc, out = self._cli(self.embed_argv, tracer)
        ok = (rc == 0 and out == f"codewords={self.w.codewords}\nresidual_capacity=0\n"
              and self.paths["embedded"].exists())
        if ok and self.container_sha is not None:
            ok = sha256(self.paths["embedded"].read_bytes()) == self.container_sha
        return dt, ok

    def extract(self, tracer=None) -> tuple[float, bool]:
        """Extract the reference container; carrier and message round-trip."""
        for key in ("data_out", "message_out"):
            self.paths[key].unlink(missing_ok=True)
        dt, rc, _ = self._cli(self.extract_argv, tracer)
        if rc != 0 or not self.paths["data_out"].exists():
            return dt, False
        data = self.paths["data_out"].read_bytes()
        size = len(self.carrier)
        ok = (
            len(data) == self.w.codewords * self.w.k * self.w.m // 8
            and data[:size] == self.carrier
            and not any(data[size:])
            and self.paths["message_out"].read_bytes() == self.message
        )
        return dt, ok

    def prepare(self) -> bool:
        """Untimed embed + extract; the container becomes the reference."""
        if self.container_sha is None:
            _, embedded = self.embed()
            if embedded:
                self.paths["embedded"].replace(self.paths["container"])
                if self.extract()[1]:
                    self.container_sha = sha256(self.paths["container"].read_bytes())
        return self.container_sha is not None


class CliJob:
    """Timed embed or extract calls on one FileCase."""

    def __init__(self, case: FileCase, name: str, tally: Tally):
        self.case, self.name, self.tally = case, name, tally
        self.samples: list[float] = []

    def prepare(self) -> None:
        self.case.prepare()

    def warm(self) -> None:
        pass

    def step(self, tracer=None) -> float:
        dt, ok = getattr(self.case, self.name)(tracer)
        ok = ok and self.case.container_sha is not None
        self.tally.record(1, not ok, f"{self.name} check failed")
        self.samples.append(dt)
        return dt


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def make_inputs(w: Workload, seed: int) -> dict:
    rnd = random.Random(seed)
    return {
        "master_seed": rnd.getrandbits(64),
        "key_seed": rnd.getrandbits(63),
        "carrier": rnd.randbytes(w.carrier_bytes),
        "message": rnd.randbytes(w.message_bytes),
    }


def golden_digests(workload: str, workdir: Path) -> dict[str, str]:
    """Output digests for GOLDEN_SEED: the experiment CSVs and the container."""
    w = WORKLOADS[workload]
    inputs = make_inputs(w, GOLDEN_SEED)
    report = run_experiment(mc_config(w, inputs["master_seed"]))
    paths = export_report(report, workdir / "golden-csv")
    digests = {p.name: sha256(p.read_bytes()) for p in paths.values()}
    case = FileCase(w, workdir, "golden", inputs)
    if case.prepare():
        digests["container"] = case.container_sha
    return digests


def check_golden(workload: str, workdir: Path, tally: Tally) -> None:
    expected = json.loads(GOLDEN_FILE.read_text())[workload]
    got = golden_digests(workload, workdir)
    for name, digest in expected.items():
        tally.record(1, got.get(name) != digest, f"golden digest of {name} changed")


def make_jobs(w: Workload, inputs: dict, workdir: Path, tally: Tally, names):
    case = FileCase(w, workdir, "run", inputs)
    setup = ColdSetup(w)
    every = {
        "setup": setup,
        "trials": MonteCarlo(w, inputs["master_seed"], tally, setup),
        "embed": CliJob(case, "embed", tally),
        "extract": CliJob(case, "extract", tally),
    }
    total = sum(w.shares[name] for name in names)
    return [(every[name], w.shares[name] / total) for name in names]


def run_rounds(w: Workload, plan, seconds: float, tracers=None) -> None:
    """Interleave the jobs in rounds of about w.round_s seconds.

    The host's speed drifts over seconds, so every job is sampled all
    through the run rather than in one stretch.  Each job gets its share of
    every round; a step longer than that share is paid back in later
    rounds.  With tracers, every untraced step is followed by the same step
    traced, and both count against the share.
    """
    for job, _ in plan:
        job.prepare()
    rounds = max(1, round(seconds / w.round_s))
    per_step = 1 if tracers is None else 2
    credit = [0.0] * len(plan)

    def step(job):
        spent = job.step()
        if tracers is not None:
            spent += job.step(tracers[job.name])
        return spent

    for _ in range(rounds):
        for i, (job, share) in enumerate(plan):
            credit[i] += share * seconds / rounds
            if credit[i] > 0:
                job.warm()
            while credit[i] > 0:
                credit[i] -= step(job)
    for job, _ in plan:
        if len(job.samples) < MIN_SAMPLES * per_step:
            job.warm()
        while len(job.samples) < MIN_SAMPLES * per_step:
            step(job)


def upper_quartile(samples: list[float]) -> float:
    """A job's per-call time: the host's speed drifts between two levels
    about 1.7x apart, and the upper quartile stays on the slower level
    unless the host ran fast for over three quarters of the run (see
    README.md, "Host drift")."""
    return quantiles(samples, n=4)[2]


def end_to_end(w: Workload, seconds: float, inputs: dict, workdir: Path, tally: Tally):
    plan = make_jobs(w, inputs, workdir, tally, ("setup", "trials", "embed", "extract"))
    run_rounds(w, plan, seconds)
    samples = {job.name: job.samples for job, _ in plan}
    carrier = len(inputs["carrier"])
    metrics = {
        "trials_per_s": (w.trials / upper_quartile(samples["trials"]), "trials/s"),
        "embed_bytes_per_s": (carrier / upper_quartile(samples["embed"]), "B/s"),
        "extract_bytes_per_s": (carrier / upper_quartile(samples["extract"]), "B/s"),
        "setup_s": (upper_quartile(samples["setup"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, samples


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def count_pass(w: Workload, inputs: dict, workdir: Path, tally: Tally) -> dict:
    """Exact counts over one run_experiment call and one embed + extract."""
    config = mc_config(w, inputs["master_seed"])
    case = FileCase(w, workdir, "count", inputs)
    tally.record(1, not case.prepare(), "count-pass reference round trip failed")
    c_mc, c_file = spans.Counter(), spans.Counter()

    def counted(counter, call):
        patch = counter.install()
        try:
            return call()
        finally:
            patch.undo()

    BUILD_CAUCHY.cache_clear()
    BUILD_CAUCHY(config.params)   # timed Monte-Carlo calls run warm
    before = BUILD_CAUCHY.cache_info().misses
    report = counted(c_mc, lambda: run_experiment(config))
    misses = BUILD_CAUCHY.cache_info().misses - before
    tally.record(w.trials, failed_trials(config, report), "count-pass trials failed")
    for call in (case.embed, case.extract):
        # Each CLI call clears the cache first, which also zeroes its counts.
        _, ok = counted(c_file, call)
        misses += BUILD_CAUCHY.cache_info().misses
        tally.record(1, not ok, "count-pass embed/extract failed")
    BUILD_CAUCHY.cache_clear()
    decodes = c_mc.decodes + c_file.decodes
    positions = c_mc.positions + c_file.positions
    return {
        "galois.mul.calls_per_trial": (c_mc.mul_calls / w.trials, "calls/trial"),
        "galois.mul.calls_per_codeword": (c_file.mul_calls / w.codewords, "calls/codeword"),
        "rng.next_u64.calls_per_trial": (c_mc.draws / w.trials, "calls/trial"),
        "rng.next_u64.calls_per_codeword": (c_file.draws / w.codewords, "calls/codeword"),
        "rs.build_cauchy.misses": (misses, "count"),
        "container.pack_symbols.symbols": (c_file.symbols_packed, "count"),
        "rs.decode.symbols_corrected_per_call": (
            (c_mc.symbols_corrected + c_file.symbols_corrected) / decodes, "symbols/call"),
        "rs.decode.failure_ratio": (
            (c_mc.decode_failures + c_file.decode_failures) / decodes, "ratio"),
        "stego.derive_positions.draws_per_position": (
            (c_mc.position_draws + c_file.position_draws) / positions, "draws/position"),
    }


def per_layer(w: Workload, seconds: float, inputs: dict, workdir: Path, tally: Tally):
    plan = make_jobs(w, inputs, workdir, tally, ("trials", "embed", "extract"))
    tracers = {job.name: spans.Tracer() for job, _ in plan}
    run_rounds(w, plan, seconds, tracers)
    # Each job's untraced and traced step time, weighted by its steps.
    untraced = sum(len(job.samples) / 2 * upper_quartile(job.samples[0::2]) for job, _ in plan)
    traced = sum(len(job.samples) / 2 * upper_quartile(job.samples[1::2]) for job, _ in plan)
    traced_wall = sum(sum(job.samples[1::2]) for job, _ in plan)
    job_stats = {name: tracer.stats() for name, tracer in tracers.items()}
    metrics = {}
    covered = 0.0
    for layer in spans.LAYERS:
        stats = [s[layer] for s in job_stats.values()]
        self_s = sum(s["self_s"] for s in stats)
        covered += self_s
        if layer not in REPORTED_LAYERS:
            continue
        metrics[f"{layer}.calls"] = (sum(s["calls"] for s in stats), "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        if layer in PERCENTILE_LAYERS:
            durations = sorted(d for s in stats for d in s["durations"])
            metrics[f"{layer}.p50_us"] = (percentile(durations, 50) * 1e6, "us")
            metrics[f"{layer}.p99_us"] = (percentile(durations, 99) * 1e6, "us")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.coverage"] = (covered / traced_wall, "ratio")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics.update(count_pass(w, inputs, workdir, tally))
    return metrics, job_stats


def print_layer_table(workload: str, job_stats: dict) -> None:
    for job, stats in job_stats.items():
        wall = sum(s["self_s"] for s in stats.values())
        print(f"# {workload} {job}: self time by layer, {wall:.3f} s traced", file=sys.stderr)
        for layer, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
            if s["calls"]:
                print(f"#   {layer:28s} {s['calls']:9d} calls {s['self_s']:9.4f} s "
                      f"{100 * s['self_s'] / wall:5.1f}%", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    tally = Tally()
    calib = [calibrate(0.25)]
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        check_golden(args.workload, workdir, tally)
        inputs = make_inputs(w, args.seed)
        if args.trace:
            metrics, job_stats = per_layer(w, args.seconds, inputs, workdir, tally)
            print_layer_table(args.workload, job_stats)
        else:
            metrics, samples = end_to_end(w, args.seconds, inputs, workdir, tally)
            for job, values in samples.items():
                print(f"# {job}: {len(values)} samples, upper quartile "
                      f"{upper_quartile(values):.6g} s, median {median(values):.6g} s, "
                      f"fastest {min(values):.6g} s", file=sys.stderr)
    calib.append(calibrate(0.25))
    if args.trace:
        metrics["host.calib_ops_per_s"] = (median(calib), "ops/s")
    else:
        print(f"# host.calib_ops_per_s {median(calib):.6g} ops/s", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"# FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
