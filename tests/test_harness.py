"""Experiment pipeline: per-trial behavior, aggregation, CSV export."""

import math

import pytest

from rsstego import (
    BudgetExceededError,
    ChannelSpec,
    ExperimentConfig,
    export_report,
    run_experiment,
    run_trial,
)
from oracles import expected_pct_decoded_secret

CHI2_999_DF30 = 59.7031
Z_999 = 3.2905  # two-sided 99.9% normal quantile


def _single(rs31, **kw):
    defaults = dict(params=rs31, stego_count=2,
                    channel=ChannelSpec(mode="single_symbol"),
                    trials=100, master_seed=0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_budget_validation(rs31):
    with pytest.raises(BudgetExceededError):
        _single(rs31, stego_count=6)  # 6 + 1 > t = 6
    _single(rs31, stego_count=5)
    with pytest.raises(BudgetExceededError):
        _single(rs31, stego_count=5, channel=ChannelSpec(mode="burst"))  # 5 + 2 > 6


def test_config_rejects_bad_pool_and_count(rs31):
    """Checked at construction, so even a zero-trial config cannot report."""
    with pytest.raises(ValueError, match="pool"):
        _single(rs31, pool="bogus", trials=0)
    with pytest.raises(ValueError, match="non-negative"):
        _single(rs31, stego_count=-1, trials=0)
    for count in (2.0, 2.5):
        with pytest.raises(ValueError, match="must be an int"):
            _single(rs31, stego_count=count, trials=0)


def test_noiseless_trials_perfect(rs31):
    config = _single(rs31, channel=ChannelSpec(mode="none"), trials=20)
    for trial in range(20):
        rec = run_trial(config, trial)
        assert rec.data_ok
        assert rec.message_symbols_ok == 2
        assert rec.error_positions == ()
    report = run_experiment(config)
    assert report.pct_decoded_info == 100.0
    assert report.pct_decoded_secret == 100.0
    assert report.pct_decoded_secret_trials == 100.0
    assert sum(report.error_location_hist) == 0
    assert sum(report.stego_location_hist) == 40


def test_error_on_stego_position_breaks_one_symbol(rs31):
    """Trials where the channel error lands on a stego position lose exactly
    that message symbol; misses lose nothing.  Both cases must occur."""
    config = _single(rs31, master_seed=8, trials=300)
    hits = misses = 0
    for trial in range(300):
        rec = run_trial(config, trial)
        assert rec.data_ok
        if set(rec.error_positions) & set(rec.stego_positions):
            hits += 1
            assert rec.message_symbols_ok == 1
        else:
            misses += 1
            assert rec.message_symbols_ok == 2
    assert hits > 0 and misses > 0


def test_trials_check_no_codeword(rs31, codeword_inits):
    """Every word a trial builds comes from checked symbols; none is re-checked."""
    config = _single(rs31, channel=ChannelSpec(mode="burst", burst_bits=6), trials=20)
    for i in range(config.trials):
        assert run_trial(config, i).data_ok
    assert codeword_inits == []


def test_determinism(rs31):
    a = run_experiment(_single(rs31, master_seed=42))
    b = run_experiment(_single(rs31, master_seed=42))
    assert a == b
    c = run_experiment(_single(rs31, master_seed=43))
    assert a != c


@pytest.mark.parametrize("stego_count", [0, 1, 2, 4])
@pytest.mark.parametrize("mode", ["single_symbol", "burst"])
def test_data_always_decodes_within_budget(rs31, stego_count, mode):
    """stego + worst-case channel <= t makes %D_i = 100 a certainty."""
    config = _single(rs31, stego_count=stego_count,
                     channel=ChannelSpec(mode=mode), trials=60, master_seed=5)
    report = run_experiment(config)
    assert report.pct_decoded_info == 100.0


def test_single_mode_secret_rate_in_band(rs31):
    report = run_experiment(_single(rs31, master_seed=2, trials=2000))
    assert report.pct_decoded_info == 100.0
    assert 93.0 <= report.pct_decoded_secret <= 100.0
    # per-trial accounting is necessarily <= per-symbol accounting
    assert report.pct_decoded_secret_trials <= report.pct_decoded_secret


def _wilson(mean: float, n: int) -> tuple[float, float]:
    """99.9% Wilson score interval for a mean of n independent values in [0, 1]."""
    z = Z_999
    denom = 1 + z * z / n
    centre = (mean + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(mean * (1 - mean) / n + z * z / (4 * n * n))
    return centre - half, centre + half


@pytest.mark.parametrize("pool", ["parity", "any"])
@pytest.mark.parametrize("mode", ["single_symbol", "single_bit", "burst"])
def test_secret_rate_matches_exact_expectation(rs31, mode, pool):
    """The per-trial mean of the two message symbols has variance at most
    mu(1 - mu), so the interval counts trials, not symbols."""
    channel = ChannelSpec(mode=mode)
    trials = 2000
    report = run_experiment(_single(rs31, channel=channel, pool=pool,
                                    trials=trials, master_seed=11))
    assert report.pct_decoded_info == 100.0
    low, high = _wilson(report.pct_decoded_secret / 100, trials)
    exact = expected_pct_decoded_secret(rs31, channel, pool) / 100
    assert low <= exact <= high


def test_error_histogram_flat_at_10k(rs31):
    report = run_experiment(_single(rs31, master_seed=6, trials=10000))
    hist = report.error_location_hist
    assert sum(hist) == 10000  # one single-symbol event per trial
    expected = 10000 / 31
    chi2 = sum((c - expected) ** 2 / expected for c in hist)
    assert chi2 < CHI2_999_DF30


def test_stego_histogram_counts(rs31):
    report = run_experiment(_single(rs31, master_seed=3, trials=500))
    hist = report.stego_location_hist
    assert sum(hist) == 1000  # 2 positions per trial
    # parity pool only: no mass on data positions
    assert all(hist[p] == 0 for p in range(rs31.n_parity, rs31.n))
    assert all(hist[p] > 0 for p in range(rs31.n_parity))


def test_pool_any_spreads_over_whole_codeword(rs31):
    config = _single(rs31, pool="any", trials=500, master_seed=3)
    hist = run_experiment(config).stego_location_hist
    assert sum(hist[p] for p in range(rs31.n_parity, rs31.n)) > 0


def test_zero_trials_report(rs31, tmp_path):
    report = run_experiment(_single(rs31, trials=0))
    assert report.pct_decoded_info == 100.0
    assert sum(report.error_location_hist) == 0
    paths = export_report(report, tmp_path)
    lines = paths["error_hist"].read_text().splitlines()
    assert lines[0] == "position,count"
    assert len(lines) == 32
    assert all(line.endswith(",0") for line in lines[1:])


def test_export_report_golden_bytes(rs31, tmp_path):
    report = run_experiment(_single(rs31, master_seed=9))
    a = export_report(report, tmp_path / "a")
    b = export_report(report, tmp_path / "b")
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()
    rows = a["report"].read_text().splitlines()
    assert rows[0] == "metric,value"
    assert rows[1].startswith("pct_decoded_info=") is False  # CSV, not key=value
    assert rows[1].split(",")[0] == "pct_decoded_info"
    hist_rows = a["stego_hist"].read_text().splitlines()
    assert len(hist_rows) == 1 + 31
