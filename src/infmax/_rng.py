"""Deterministic random-number plumbing.

All randomness in the package flows through counter-based Philox generators
keyed by 64-bit mixes of (master seed, domain tag, ...identifiers).  The same
key always yields the same stream, independent of process, thread, or call
order, which is what makes common-random-number oracles and parallel bench
runs reproducible bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1

# Domain tags keep independent uses of the same master seed decorrelated.
DOMAIN_GNM = 0x01
DOMAIN_HIER = 0x02
DOMAIN_TREE_RANDOM_PAIR = 0x03
DOMAIN_TREE_RANDOM_EDGE = 0x04
DOMAIN_TREE_BISECTION = 0x05
DOMAIN_CRN = 0x06
DOMAIN_INDEPENDENT = 0x07
DOMAIN_BENCH_ROW = 0x08
DOMAIN_BENCH_TREE = 0x09


def splitmix64(x: int) -> int:
    """One round of the splitmix64 avalanche; a stable 64-bit scrambler."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(*values: int) -> int:
    """Fold integers into a single 64-bit key, order-sensitively."""
    acc = 0x6A09E667F3BCC908
    for v in values:
        acc = splitmix64(acc ^ (v & _MASK64))
    return acc


def seeds_digest(seeds) -> int:
    """Stable 64-bit digest of a vertex set (order-insensitive)."""
    ordered = sorted(int(v) for v in seeds)
    return mix64(len(ordered), *ordered)


def generator(*key_parts: int) -> np.random.Generator:
    """Philox generator keyed by a mix of the given integers (each checked by _integer)."""
    return np.random.Generator(np.random.Philox(key=mix64(*map(_integer, key_parts))))


def _integer(v, what: str = "seed") -> int:
    """v as an int through operator.index: 1.5 or "1" raise ValueError instead
    of being truncated or parsed, and a bool is refused rather than read as 0
    or 1.  The one integer check for seeds, ids and counts; what names v."""
    if v.__class__ is not bool:  # numpy's bool has no __index__
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"{what} {v!r} is not an integer")
