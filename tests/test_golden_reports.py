"""Frozen Monte-Carlo outputs: the exported CSVs of fixed-seed experiments.

The digests were computed once and must never be regenerated: any change to
how a trial draws its data, message, key or noise moves them.  RS(31,19),
2 stego symbols, 100 trials, master_seed 2014.
"""

import hashlib

import pytest

from rsstego import ChannelSpec, ExperimentConfig, export_report, run_experiment

GOLDEN = {
    ("none", "parity"): {
        "report": "37879d251c57dadab1f6809085be2c99d3d108fed89d0c15b2708c80b229d3fd",
        "error_hist": "e34e84142b6cbb149fd7f5992935eb29ffb85ed43c14ef91322f13ad08a741b2",
        "stego_hist": "c07338d7f933aee3e78f66a19556b9878f286068df75ce5398e8fd6fb0af6272",
    },
    ("single_symbol", "parity"): {
        "report": "670f801e2199c836ca467d7883fd448e26f9ad43f6ec9fff584596a86a31c5d9",
        "error_hist": "17734ef5659137a0d5a6d212e2a5ffa37ecec648ac9d3241210206228250a083",
        "stego_hist": "c07338d7f933aee3e78f66a19556b9878f286068df75ce5398e8fd6fb0af6272",
    },
    ("single_bit", "parity"): {
        "report": "84fb1c6b2cdba6372fe69804fb3a7ae965355513f84253f3b75a57a42c545749",
        "error_hist": "9af75c303ff16c62fdecdddb5aa91cd4f25c999175185943862786cda7c6558c",
        "stego_hist": "c07338d7f933aee3e78f66a19556b9878f286068df75ce5398e8fd6fb0af6272",
    },
    ("burst", "parity"): {
        "report": "4ca42533ba9c9a0b12501ef452088165643fa66e80ef18afab6f42463b22e312",
        "error_hist": "7490e7ee6ad06784e020a4a001fec699d7c6243a186679f369ff207cf873dc63",
        "stego_hist": "c07338d7f933aee3e78f66a19556b9878f286068df75ce5398e8fd6fb0af6272",
    },
    ("single_symbol", "any"): {
        "report": "b4e31c8e7cb4378c6288d121e1769d8a3e21853c746072baf965832b5efc8f82",
        "error_hist": "17734ef5659137a0d5a6d212e2a5ffa37ecec648ac9d3241210206228250a083",
        "stego_hist": "792cf7eed0591bb3c235c0bfb7794b64533f7c6a75e8761f55df8f3602b03881",
    },
}


@pytest.mark.parametrize("mode,pool", list(GOLDEN))
def test_report_csvs_match_frozen_digests(rs31, tmp_path, mode, pool):
    config = ExperimentConfig(
        params=rs31,
        stego_count=2,
        channel=ChannelSpec(mode=mode, burst_bits=6),
        trials=100,
        master_seed=2014,
        pool=pool,
    )
    paths = export_report(run_experiment(config), tmp_path)
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
    assert digests == GOLDEN[mode, pool]
