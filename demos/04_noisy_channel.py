"""The channel models: single-symbol, single-bit and 6-bit burst noise.

Noise is a pure function of the seed passed to apply_noise (SplitMix64),
so a simulation can be replayed bit-for-bit anywhere.  Here trial i uses
the seed fork(1, i); the harness derives one such seed per trial from its
master seed.
"""

from collections import Counter

from rsstego import ChannelSpec, CodeParams, GF2m, apply_noise, encode, fork

params = CodeParams(field=GF2m(5), n=31, k=19)
word = encode(params, list(range(19)))

print("single_symbol: one position, one uniformly random nonzero XOR delta")
spec = ChannelSpec(mode="single_symbol")
for trial in range(3):
    _, event = apply_noise(word, spec, fork(1, trial))
    print(f"  trial {trial}: {dict(event.deltas)}")
replay = apply_noise(word, spec, fork(1, 0))[1]
print(f"  replaying trial 0 gives the same event: "
      f"{replay == apply_noise(word, spec, fork(1, 0))[1]}\n")

print("single_bit: flips exactly one bit of the 155-bit codeword")
spec = ChannelSpec(mode="single_bit")
for trial in range(3):
    _, event = apply_noise(word, spec, fork(1, trial))
    pos, delta = next(iter(event.deltas.items()))
    print(f"  trial {trial}: symbol {pos}, bit mask {delta:05b}")
print()

print("burst: a contiguous 6-bit window, random fill, at least one flip")
spec = ChannelSpec(mode="burst", burst_bits=6)
for trial in range(4):
    _, event = apply_noise(word, spec, fork(1, trial))
    print(f"  trial {trial}: bit offset {event.bit_offset:3d} -> "
          f"symbols {sorted(event.deltas)}, deltas {dict(event.deltas)}")
print()
print("with 5-bit symbols a 6-bit window always straddles two symbols,")
print("but it only damages the ones where a bit actually flipped:")
sizes = Counter()
for trial in range(2000):
    _, event = apply_noise(word, spec, fork(1, trial))
    sizes[len(event.deltas)] += 1
print(f"  affected-symbol count over 2000 bursts: {dict(sorted(sizes.items()))}")
print("  at most 2 <= t = 6, so a burst plus 2 stego symbols never "
      "overwhelms the decoder")
