"""Span tracing and exact counting for the rsstego benchmark.

Nothing here changes the library.  A wrapper replaces a function at every
name its callers hold (``rs.encode`` is also ``harness.encode`` and
``cli.encode``), or replaces a method on its class, and ``Patch.undo``
puts the originals back.  Two kinds of pass use this:

* ``Tracer`` records one span per wrapped call: name, parent span, start
  and end.  Self time is a span's duration minus the time its child spans
  cover.  Spans stay in memory until ``Tracer.stats`` summarises them.
* ``Counter`` counts ``GF2m.mul`` calls, ``SplitMix64.next_u64`` draws,
  symbols packed, decodes and the symbols they corrected.  Wrapping
  ``GF2m.mul`` roughly halves throughput, so counts are taken in a pass of
  their own and never share one with spans.
"""

from __future__ import annotations

import time
from array import array

import rsstego
from rsstego import channel, cli, container, galois, harness, rng, rs, stego

MODULES = (rsstego, galois, rng, rs, stego, channel, harness, container, cli)

# Layer boundaries that get a span, as (module, public function).  rng and
# GF2m.mul are too fine-grained for spans; the count pass covers them.
SPANNED = (
    (harness, "run_experiment"),
    (harness, "run_trial"),
    (rs, "build_cauchy"),
    (rs, "encode"),
    (rs, "syndromes"),
    (rs, "decode"),
    (stego, "derive_positions"),
    (stego, "embed"),
    (stego, "extract"),
    (channel, "apply_noise"),
    (container, "bytes_to_symbols"),
    (container, "symbols_to_bytes"),
    (container, "pack_symbols"),
    (container, "unpack_symbols"),
    (container, "pack_container"),
    (container, "unpack_container"),
    (cli, "main"),
    (cli, "cmd_embed"),
    (cli, "cmd_extract"),
)


def layer_name(module, name: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


LAYERS = tuple(layer_name(module, name) for module, name in SPANNED)


class Patch:
    """Swap functions in the rsstego modules and restore them on ``undo``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, original, replacement) -> None:
        """Rebind every module-level name that holds ``original``."""
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)

    def attribute(self, owner, name: str, replacement) -> None:
        self._set(owner, name, replacement)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """In-memory spans for the functions in SPANNED."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._wrappers = []
        for module, name in SPANNED:
            original = getattr(module, name)
            self._wrappers.append((original, self._wrap(layer_name(module, name), original)))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> Patch:
        patch = Patch()
        for original, wrapper in self._wrappers:
            patch.function(original, wrapper)
        return patch

    def stats(self) -> dict[str, dict]:
        """Per layer: calls, self seconds and sorted inclusive durations."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0, "durations": []} for name in self.names}
        for i in range(n):
            s = out[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            s["durations"].append(dur[i])
        for s in out.values():
            s["durations"].sort()
        return out


class Counter:
    """Exact operation counts, installed for one fixed amount of work."""

    def __init__(self):
        self.mul_calls = 0
        self.draws = 0
        self.position_draws = 0
        self.positions = 0
        self.symbols_packed = 0
        self.decodes = 0
        self.decode_failures = 0
        self.symbols_corrected = 0

    def install(self) -> Patch:
        patch = Patch()
        mul = galois.GF2m.mul
        next_u64 = rng.SplitMix64.next_u64
        derive_positions = stego.derive_positions
        decode = rs.decode
        pack_symbols = container.pack_symbols

        def counted_mul(field, a, b):
            self.mul_calls += 1
            return mul(field, a, b)

        def counted_next_u64(stream):
            self.draws += 1
            return next_u64(stream)

        def counted_derive_positions(*args, **kwargs):
            before = self.draws
            key = derive_positions(*args, **kwargs)
            self.position_draws += self.draws - before
            self.positions += len(key.positions)
            return key

        def counted_decode(*args, **kwargs):
            result = decode(*args, **kwargs)
            self.decodes += 1
            self.decode_failures += result.failure
            self.symbols_corrected += len(result.error_positions)
            return result

        def counted_pack_symbols(symbols, m):
            symbols = list(symbols)
            self.symbols_packed += len(symbols)
            return pack_symbols(symbols, m)

        patch.attribute(galois.GF2m, "mul", counted_mul)
        patch.attribute(rng.SplitMix64, "next_u64", counted_next_u64)
        patch.function(derive_positions, counted_derive_positions)
        patch.function(decode, counted_decode)
        patch.function(pack_symbols, counted_pack_symbols)
        return patch
