"""Tour of GF(2^m) arithmetic: tables, axioms, polynomials.

Every value in this library is an element of a finite field GF(2^m):
an integer whose bits are coefficients of a polynomial over GF(2),
reduced modulo the one irreducible polynomial the library fixes for m.
This script pokes at the smallest interesting field, GF(8), where
everything can be printed.
"""

from rsstego import DEFAULT_PRIMITIVE_POLY, GF2m

f = GF2m(3)  # x^3 + x + 1
print(f"Field: {f}")
print(f"q = {f.q} elements, alpha = 2 (the polynomial 'x')\n")

print("Powers of alpha cover every nonzero element exactly once:")
for i in range(f.q - 1):
    print(f"  alpha^{i} = {f.alpha_pow(i)}  ({f.alpha_pow(i):03b})")
print(f"  alpha^{f.q - 1} = {f.alpha_pow(f.q - 1)}  (back to 1: the group is cyclic)\n")

print("Addition is XOR, so every element is its own negative:")
print(f"  5 + 5 = {5 ^ 5}")
print(f"  5 + 3 = {5 ^ 3},  (5 + 3) + 3 = {5 ^ 3 ^ 3}\n")

print("Multiplication runs on the log/antilog tables:")
a3, a5 = f.alpha_pow(3), f.alpha_pow(5)
print(f"  alpha^3 * alpha^5 = {f.mul(a3, a5)} = alpha^(8 mod 7) = alpha = {f.alpha_pow(1)}")
print(f"  inverses: 6 * (1 / 6) = {f.mul(6, f.div(1, 6))}\n")

modulus = DEFAULT_PRIMITIVE_POLY[3]
print(f"One modulus per m: DEFAULT_PRIMITIVE_POLY[3] = {modulus:#06b} (x^3 + x + 1)\n")

print("Polynomials over the field (coefficient lists, ascending powers):")
p = [1, 0, 1]            # x^2 + 1
q = [f.alpha_pow(2), 1]  # x + alpha^2
prod = [0] * (len(p) + len(q) - 1)   # schoolbook product, XOR for addition
for i, a in enumerate(p):
    for j, b in enumerate(q):
        prod[i + j] ^= f.mul(a, b)
print(f"  (x^2 + 1)(x + alpha^2) = {prod}")
print(f"  at x = alpha^2, the root of x + alpha^2: {f.poly_eval(prod, f.alpha_pow(2))}")
print(f"  p(1) = {f.poly_eval(p, 1)}   (1 XOR 1 = 0 in characteristic 2)")
