"""Deterministic random-number handling.

Every stochastic component in the library (synthetic fields, random camera
paths, vicinal sampling) takes a ``seed`` or ``rng`` argument and resolves it
through :func:`resolve_rng`, so whole experiments replay bit-identically.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = ["resolve_rng", "spawn_rngs", "derive_seed", "SeedLike"]


def derive_seed(base: int, *indices: int) -> int:
    """A decorrelated child seed for position ``indices`` under ``base``.

    ``SeedSequence``-mixes ``(base, *indices)`` into one 63-bit integer, so
    suites that fan out over cells/repeats give every position statistically
    independent draws while staying reproducible from a single base seed.
    ``derive_seed(fault_seed, cell.index)`` is the per-cell fault seed of
    the matrix runners.
    """
    ss = np.random.SeedSequence([base & (2**63 - 1), *indices])
    return int(ss.generate_state(1, np.uint64)[0] & (2**63 - 1))


def resolve_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    ``None`` gives a fresh nondeterministic generator; an ``int`` or
    ``SeedSequence`` gives a deterministic one; a ``Generator`` passes
    through unchanged (so callers can share a stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> list:
    """``n`` independent child generators derived from ``seed``.

    Used when a sweep runs many configurations that must not share a random
    stream (e.g. one RNG per camera path in a parameter sweep).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    elif isinstance(seed, np.random.Generator):
        # Derive children from the generator's bit stream.
        ss = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]
