"""Frozen Monte-Carlo outputs: the exported CSVs of fixed-seed experiments.

The digests were computed once and must never be regenerated: any change to
how a trial draws its data, message, key or noise moves them.  ``GOLDEN`` is
RS(31,19), 2 stego symbols, 100 trials, master_seed 2014.  ``GOLDEN_FIELDS``
covers the other field sizes, m = 3, 11 and 16, also at master_seed 2014;
its digests were computed while ``run_trial`` still drew its data and
message one ``below`` call at a time, so they pin the packed draws to the
scalar values at every m.
"""

import hashlib

import pytest

from rsstego import (
    ChannelSpec,
    CodeParams,
    ExperimentConfig,
    GF2m,
    export_report,
    run_experiment,
)

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


# (m, k, mode, stego symbols, trials) at n = 2^m - 1
GOLDEN_FIELDS = {
    (3, 3, "single_symbol", 1, 100): {
        "report": "6ae3be93052fa73be994eb340c1aa9ea34c0d4d7510781c04ddef39868452d96",
        "error_hist": "e16c3ba9799f19d0f48faa2ad1a72c4ed87eed469fd9cfb0c9971d1f2e21a9a9",
        "stego_hist": "92e48611b56285a92558dbc3e5a59961ab0b7ad6e54206c398103c883c9a9999",
    },
    (11, 2015, "burst", 2, 20): {
        "report": "9b85936b5faf62a97aadb742cf915c23a6d97a3733293763ee3c473a6d5d6ff5",
        "error_hist": "a5c986fa62a5cc4af792f4614ac3a3c32d60eb5925ae90b5c7ab5914157c2c7e",
        "stego_hist": "3c0fa54b8cc97ff6f955ac3acc16a5ff44d1f321d09000371cf2b71dadac4721",
    },
    (16, 65503, "burst", 2, 2): {
        "report": "1c4331f5f07193c3127329fd250bb7f2a53944d1cf26995070ab7eac7a4257d9",
        "error_hist": "6b6868c6f97595831014004d0cfa5b71751a2ab2ba1b697f5d0eae21de00ba64",
        "stego_hist": "bf2772b40df89e700d5a7613f7f679e0e82c6078c6814bfc0ee4252690f633e7",
    },
}


def _digests(config, out_dir):
    paths = export_report(run_experiment(config), out_dir)
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}


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
    assert _digests(config, tmp_path) == GOLDEN[mode, pool]


@pytest.mark.parametrize("m,k,mode,stego,trials", list(GOLDEN_FIELDS))
def test_report_csvs_match_frozen_digests_across_fields(tmp_path, m, k, mode, stego,
                                                        trials):
    field = GF2m(m)
    config = ExperimentConfig(
        params=CodeParams(field=field, n=field.q - 1, k=k),
        stego_count=stego,
        channel=ChannelSpec(mode=mode, burst_bits=6),
        trials=trials,
        master_seed=2014,
    )
    assert _digests(config, tmp_path) == GOLDEN_FIELDS[m, k, mode, stego, trials]
