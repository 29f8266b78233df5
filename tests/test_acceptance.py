"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from itertools import combinations, product

from rsstego import (
    ChannelSpec,
    ExperimentConfig,
    decode,
    derive_positions,
    embed,
    encode,
    extract,
    run_experiment,
    syndromes,
)
from rsstego.cli import main
from oracles import (
    expected_pct_decoded_secret,
    hamming_distance,
    hamming_weight,
    remainder_encode,
)


def _report(num: int, desc: str, ok: bool):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _experiment(rs31, mode: str, trials: int, seed: int):
    return run_experiment(ExperimentConfig(
        params=rs31,
        stego_count=2,
        channel=ChannelSpec(mode=mode),
        trials=trials,
        master_seed=seed,
    ))


def test_criterion_1_single_error_all_data_decodes(rs31):
    t0 = time.perf_counter()
    report = _experiment(rs31, "single_symbol", 100, seed=0)
    elapsed = time.perf_counter() - t0
    _report(1, f"single-error 100 trials %D_i={report.pct_decoded_info} "
               f"in {elapsed:.3f}s",
            report.pct_decoded_info == 100.0 and elapsed < 1.0)


def test_criterion_2_single_error_secret_rate(rs31):
    expectation = float(expected_pct_decoded_secret(
        rs31, ChannelSpec(mode="single_symbol"), "parity"))  # 3000/31
    in_band = []
    for seed in (0, 1, 7, 42, 123):
        report = _experiment(rs31, "single_symbol", 100, seed)
        in_band.append(93.0 <= report.pct_decoded_secret <= 100.0)
    deviations = []
    for seed in (0, 7):
        report = _experiment(rs31, "single_symbol", 10000, seed)
        deviations.append(abs(report.pct_decoded_secret - expectation))
    _report(2, f"%DS_M in [93,100] across 5 seeds at 100 trials; "
               f"10k-trial deviations from {expectation:.2f}: "
               f"{[round(d, 3) for d in deviations]}",
            all(in_band) and all(d <= 1.0 for d in deviations))


def test_criterion_3_burst_error_rates(rs31):
    info_ok, band_ok = [], []
    for seed in (0, 1, 42):
        report = _experiment(rs31, "burst", 100, seed)
        info_ok.append(report.pct_decoded_info == 100.0)
        band_ok.append(92.0 <= report.pct_decoded_secret <= 100.0)
    big = _experiment(rs31, "burst", 10000, seed=0)
    oracle = float(expected_pct_decoded_secret(rs31, ChannelSpec(mode="burst"), "parity"))
    deviation = abs(big.pct_decoded_secret - oracle)
    _report(3, f"burst %D_i=100 and %DS_M in [92,100] across 3 seeds; "
               f"10k-trial %DS_M={big.pct_decoded_secret} vs oracle "
               f"{oracle:.2f} (|diff|={deviation:.3f})",
            all(info_ok) and all(band_ok)
            and big.pct_decoded_info == 100.0 and deviation <= 1.5)


def test_criterion_4_rs7_exhaustive_codec(rs7):
    zero_synd = all(
        not any(syndromes(rs7, encode(rs7, list(data))))
        for data in product(range(8), repeat=3)
    )
    rnd = random.Random(404)
    all_corrected = True
    for _ in range(10):
        word = encode(rs7, [rnd.randrange(8) for _ in range(3)])
        # all 7*7 single + C(7,2)*7*7 double error patterns = 1078
        for pos in range(7):
            for delta in range(1, 8):
                received = list(word)
                received[pos] ^= delta
                if decode(rs7, received).corrected != word:
                    all_corrected = False
        for p1, p2 in combinations(range(7), 2):
            for d1 in range(1, 8):
                for d2 in range(1, 8):
                    received = list(word)
                    received[p1] ^= d1
                    received[p2] ^= d2
                    if decode(rs7, received).corrected != word:
                        all_corrected = False
    _report(4, "512/512 zero-syndrome encodings; 10 codewords x 1078 "
               "error patterns all decode",
            zero_synd and all_corrected)


def test_criterion_5_cauchy_matches_remainder_oracle(rs7, rs31):
    small = all(
        encode(rs7, list(data)).symbols == remainder_encode(rs7, list(data))
        for data in product(range(8), repeat=3)
    )
    rnd = random.Random(505)
    large = all(
        encode(rs31, data).symbols == remainder_encode(rs31, data)
        for data in ([rnd.randrange(32) for _ in range(19)] for _ in range(1000))
    )
    _report(5, "Cauchy parity = generator-polynomial parity "
               "(RS(7,3) exhaustive, 1000 random RS(31,19) words)",
            small and large)


def test_criterion_6_mds_minimum_distance(rs7):
    words = [encode(rs7, list(data)).symbols for data in product(range(8), repeat=3)]
    min_dist = min(
        hamming_distance(a, b) for a, b in combinations(words, 2)
    )
    _report(6, f"minimum pairwise symbol distance over 512 RS(7,3) "
               f"codewords = {min_dist} (n-k+1 = 5)",
            min_dist == 5)


def test_criterion_7_transparency(rs31):
    rnd = random.Random(707)
    exact = 0
    trials = 10000
    for i in range(trials):
        data = [rnd.randrange(32) for _ in range(19)]
        count = i % (rs31.t + 1)
        key = derive_positions(
            rs31, seed=rnd.randrange(1 << 48), count=count,
            pool="any" if i % 2 else "parity",
        )
        message = [rnd.randrange(32) for _ in range(count)]
        got = extract(embed(encode(rs31, data), key, message), key, rs31)
        exact += got.data == data
    _report(7, f"{exact}/{trials} noiseless stego codewords decoded "
               "to exact data",
            exact == trials)


def test_criterion_8_hamming_metric_axioms():
    rnd = random.Random(808)
    ok = True
    for _ in range(10000):
        nbits = rnd.randrange(1, 64)
        x = [rnd.randrange(2) for _ in range(nbits)]
        y = [rnd.randrange(2) for _ in range(nbits)]
        z = [rnd.randrange(2) for _ in range(nbits)]
        dxy = hamming_distance(x, y)
        ok &= dxy == hamming_weight([a ^ b for a, b in zip(x, y)])
        ok &= dxy == hamming_distance(y, x)
        ok &= (dxy == 0) == (x == y)
        ok &= hamming_distance(x, z) <= dxy + hamming_distance(y, z)
    _report(8, "symmetry, identity, triangle inequality and "
               "d(x,y)=weight(x^y) over 10000 random triples", ok)


def test_criterion_9_simulate_determinism(tmp_path, capsys):
    flags = ["simulate", "--m", "5", "--n", "31", "--k", "19", "--stego", "2",
             "--mode", "single", "--trials", "100", "--seed", "42"]
    assert main(flags + ["--out", str(tmp_path / "run1")]) == 0
    assert main(flags + ["--out", str(tmp_path / "run2")]) == 0
    capsys.readouterr()
    identical = all(
        (tmp_path / "run1" / name).read_bytes()
        == (tmp_path / "run2" / name).read_bytes()
        for name in ("report.csv", "error_hist.csv", "stego_hist.csv")
    )
    with capsys.disabled():
        print()
    _report(9, "two simulate runs with identical flags wrote "
               "byte-identical CSVs", identical)
