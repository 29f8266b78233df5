"""Reed-Solomon in action: systematic encoding, syndromes, error correction.

RS(n, k) over GF(2^m) with n = 2^m - 1 turns k data symbols into an
n-symbol codeword that survives any t = (n-k)//2 corrupted symbols.
The demo uses RS(7,3) over GF(8), which corrects t = 2.
"""

from rsstego import CodeParams, GF2m, build_cauchy, decode, encode, syndromes

params = CodeParams(field=GF2m(3), n=7, k=3)
print(f"RS({params.n},{params.k}) over GF({params.field.q}): "
      f"t = {params.t} correctable symbols")
n, k = params.n, params.k
print(f"parity block at positions {list(range(n - k))}, "
      f"data block at {list(range(n - k, n))}")
print(f"data symbol i lives at position n-1-i: {tuple(n - 1 - i for i in range(k))}\n")

gen = build_cauchy(params)
print("The systematic generator is a Cauchy matrix A (parity = data x A):")
for row in gen.matrix:
    print(f"  {list(row)}")
x = [params.field.alpha_pow(n - 1 - i) for i in range(k)]
y = [params.field.alpha_pow(n - 1 - k - j) for j in range(n - k)]
print(f"built from points x = {x} (data) and y = {y} (parity)\n")

data = [1, 5, 2]
word = encode(params, data)
print(f"encode({data}) -> {word.symbols}")
print(f"  data read back from the codeword: {word.data}")
print(f"  parity: {word.parity}")
print(f"  syndromes (all zero iff valid): {syndromes(params, word)}\n")

received = list(word)
received[1] ^= 3
received[6] ^= 4
print(f"corrupt positions 1 and 6: {received}")
print(f"  syndromes now: {syndromes(params, received)}")

result = decode(params, received)
print(f"  decoded ok: {not result.failure}")
print(f"  error positions {result.error_positions}, "
      f"magnitudes {result.error_magnitudes}")
print(f"  corrected == original: {result.corrected == word}\n")

received[3] ^= 1  # a third error exceeds t = 2
result = decode(params, received)
print(f"three errors (beyond t): failure flag = {result.failure} "
      "(or a miscorrection to some other valid codeword; never a crash)")
