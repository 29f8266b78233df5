"""Monte-Carlo harness: encode -> embed -> noise -> decode -> extract.

Each trial draws fresh random carrier data and a fresh random message,
derives per-trial stego positions, pushes the stego codeword through the
channel and compares what comes back with what was sent.  Aggregated
metrics:

* pct_decoded_info          - % of trials whose k data symbols all survived;
* pct_decoded_secret        - % of message SYMBOLS recovered across all
                              trials (primary accounting);
* pct_decoded_secret_trials - % of trials whose whole message survived
                              (secondary, stricter accounting);
* error_location_hist       - channel-error count per codeword position;
* stego_location_hist       - stego-position count per codeword position.

Everything is a deterministic function of master_seed.  ``rng.fork`` is
the one seed derivation, used by two fixed schemes: this module's
experiment, and the RSSTEG01 keys of ``container`` (codeword i of a file
hides under fork(seed, i)).  Here trial i draws its data, message, key and
channel noise from the substreams fork(fork(master_seed, purpose), i), so
identical master seeds give identical reports and any trial can be replayed
on its own.  The data and the message are drawn with ``SplitMix64.draws``,
the values of repeated ``below(q)`` in one pass; the key and the noise draw
one value at a time, since how many they draw depends on what they draw.
The config forks master_seed once per purpose, and ``run_trial`` forks
those roots once per trial.  The pool, the stego count, the stego budget
(against the channel's worst case), the trial count and the master seed
are checked once, when the config is built.  Trials are independent, so
they could run concurrently; aggregation is ordered by trial index either
way.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .channel import ChannelSpec, apply_noise, max_affected_symbols
from .rng import SplitMix64, fork
from .rs import CodeParams, encode
from .stego import check_key_request, derive_positions, embed, extract

# substream purpose tags
_DATA, _MESSAGE, _KEY, _CHANNEL = 0, 1, 2, 3


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: geometry, stego load, channel and trial count."""

    params: CodeParams
    stego_count: int = 2
    channel: ChannelSpec = ChannelSpec(mode="single_symbol")
    trials: int = 100
    master_seed: int = 0
    pool: str = "parity"

    def __post_init__(self):
        if not isinstance(self.params, CodeParams):
            raise ValueError(f"params must be a CodeParams, got {self.params!r}")
        if not isinstance(self.channel, ChannelSpec):
            raise ValueError(f"channel must be a ChannelSpec, got {self.channel!r}")
        check_key_request(self.params, self.stego_count, self.pool, "stego_count",
                          max_affected_symbols(self.channel, self.params.field.m))
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError(f"trials must be an int >= 1, got {self.trials!r}")
        if type(self.master_seed) is not int:
            raise ValueError(f"master_seed must be an int, got {self.master_seed!r}")

    @cached_property
    def _substream_roots(self) -> tuple[int, ...]:
        """fork(master_seed, purpose) for the four purposes, in tag order:
        the same for every trial, so derived once per config."""
        return tuple(fork(self.master_seed, purpose)
                     for purpose in (_DATA, _MESSAGE, _KEY, _CHANNEL))


@dataclass
class TrialRecord:
    trial_index: int
    data_ok: bool
    message_symbols_ok: int
    stego_positions: tuple[int, ...]
    error_positions: tuple[int, ...]
    decode_failed: bool = False


@dataclass
class ExperimentReport:
    pct_decoded_info: float
    pct_decoded_secret: float
    pct_decoded_secret_trials: float
    error_location_hist: list[int]
    stego_location_hist: list[int]
    trials: int
    stego_count: int


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Execute one full pipeline pass and compare against what was sent."""
    params = config.params
    q = params.field.q
    data_seed, msg_seed, key_seed, noise_seed = (
        fork(root, trial_index) for root in config._substream_roots
    )

    data = SplitMix64(data_seed).draws(params.k, q)
    message = SplitMix64(msg_seed).draws(config.stego_count, q)
    key = derive_positions(params, key_seed, config.stego_count, pool=config.pool)

    clean = encode(params, data)
    carrier = embed(clean, key, message)
    noisy, event = apply_noise(carrier, config.channel, noise_seed)
    recovered = extract(noisy, key, params)

    return TrialRecord(
        trial_index=trial_index,
        data_ok=recovered.data == data,
        message_symbols_ok=sum(a == b for a, b in zip(recovered.message, message)),
        stego_positions=key.positions,
        error_positions=tuple(sorted(event.deltas)),
        decode_failed=recovered.diagnostics.failure,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all trials and aggregate; deterministic given master_seed."""
    n = config.params.n
    error_hist = [0] * n
    stego_hist = [0] * n
    data_ok = 0
    symbols_ok = 0
    whole_msg_ok = 0
    for trial in range(config.trials):
        rec = run_trial(config, trial)
        data_ok += rec.data_ok
        symbols_ok += rec.message_symbols_ok
        whole_msg_ok += rec.message_symbols_ok == config.stego_count
        for p in rec.error_positions:
            error_hist[p] += 1
        for p in rec.stego_positions:
            stego_hist[p] += 1

    trials = config.trials
    total_symbols = trials * config.stego_count
    return ExperimentReport(
        pct_decoded_info=100.0 * data_ok / trials,
        pct_decoded_secret=(
            100.0 * symbols_ok / total_symbols if total_symbols else 100.0
        ),
        pct_decoded_secret_trials=100.0 * whole_msg_ok / trials,
        error_location_hist=error_hist,
        stego_location_hist=stego_hist,
        trials=trials,
        stego_count=config.stego_count,
    )


def export_report(report: ExperimentReport, out_dir) -> dict[str, Path]:
    """Write report.csv plus the two location histograms for re-plotting."""
    metrics = ("pct_decoded_info", "pct_decoded_secret",
               "pct_decoded_secret_trials", "trials", "stego_count")
    tables = {
        "report": (("metric", "value"),
                   [(name, getattr(report, name)) for name in metrics]),
        "error_hist": (("position", "count"), enumerate(report.error_location_hist)),
        "stego_hist": (("position", "count"), enumerate(report.stego_location_hist)),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (header, rows) in tables.items():
        paths[name] = out / f"{name}.csv"
        with open(paths[name], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    return paths
