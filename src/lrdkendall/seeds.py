"""Deterministic per-task random generators.

Every stochastic routine in the package derives its generator from a
string key built out of the task's identifying parameters. Hashing the
key with blake2b and feeding the digest to Philox gives independent,
reproducible streams without any global state or seed bookkeeping:
the same (seed, parameters) always yields the same stream, and distinct
parameter tuples yield streams that are independent for all practical
purposes.

Seeding contract: replicates are drawn in fixed-size :func:`chunks`,
each from its own generator, so a sampled result is a pure function of
its inputs regardless of scheduling, threading, or what ran first. The
chunk sizes and the task keys, ``("perm",)``, ``("regional", label)``
and ``("sim", *cell key)``, are part of the contract.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InputError, integral

MAX_REPLICATES = 10**7  # per sampled task; the null array of scores is then 80 MB


def check_replicates(total) -> int:
    """A replicate count as an int, refused outside 1..MAX_REPLICATES before any draw."""
    total = integral(total, "replicates")
    if not 1 <= total <= MAX_REPLICATES:
        raise InputError(f"replicates must be between 1 and {MAX_REPLICATES}, got {total}")
    return total


def generator_for(*parts) -> np.random.Generator:
    """A Philox generator keyed by the given parameters.

    Floats render via str(), so 0.5 and 0.50 collide only if they are
    the same float. Callers should pass primitives, not containers.
    """
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunks(seed: int, key: tuple, total: int, size: int):
    """Yield (generator_for(seed, *key, c), rows) for each chunk c of
    ``total`` replicates; every chunk but the last holds ``size`` rows."""
    for c, done in enumerate(range(0, total, size)):
        yield generator_for(seed, *key, c), min(size, total - done)
