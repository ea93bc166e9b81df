"""Per-node available channel sets and their prime / non-prime partitions.

Channel ids are global (1..C) and a channel's primality is decided on that
global id, so channel 1 is non-prime and {1..10} splits into {2, 3, 5, 7}
and {1, 4, 6, 8, 9, 10}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@functools.lru_cache(maxsize=8192)  # channel ids stop at engine.MAX_CHANNELS, clock moduli just past it
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def partition_prime(channels) -> tuple[list[int], list[int]]:
    """Split channel ids into (prime, non-prime) lists, each ascending."""
    chans = sorted(set(channels))
    if chans and chans[0] < 1:
        raise InvalidParameterError("channel ids must be positive integers")
    nonprime, prime = lists = [], []
    for c in chans:
        lists[is_prime(c)].append(c)
    return prime, nonprime


@dataclass(frozen=True)
class SpectrumMap:
    """Each node's available subset of the channel pool."""

    available: tuple[tuple[int, ...], ...]  # sorted channel ids per node


def assign_channels(
    node_count: int,
    pool_size: int,
    mode: str,
    rng: np.random.Generator,
    m: int | None = None,
    per_node_size: int | None = None,
) -> SpectrumMap:
    """Build per-node channel sets.

    Symmetric mode gives every node the full pool. Asymmetric mode draws a
    common core of m channels shared by all nodes and fills each node up to
    per_node_size (default: the pool size) with channels from the remainder;
    any non-core channel that ended up in every node is then dropped from one
    node so the set common to all nodes has size exactly m.
    """
    if node_count < 1:
        raise InvalidParameterError(f"node_count must be >= 1, got {node_count}")
    if pool_size < 1:
        raise InvalidParameterError(f"pool_size must be >= 1, got {pool_size}")

    if mode == "sym":
        if per_node_size is not None and per_node_size != pool_size:
            raise InvalidParameterError("symmetric mode requires per_node_size == pool_size")
        full = tuple(range(1, pool_size + 1))
        return SpectrumMap(tuple(full for _ in range(node_count)))

    if mode != "asym":
        raise InvalidParameterError(f"mode must be 'sym' or 'asym', got {mode!r}")
    if m is None:
        raise InvalidParameterError("asymmetric mode requires a similarity ratio m")
    k = pool_size if per_node_size is None else per_node_size
    if not (1 <= m <= k <= pool_size):
        raise InvalidParameterError(
            f"need 1 <= m <= per_node_size <= pool_size, got m={m}, "
            f"per_node_size={k}, pool_size={pool_size}"
        )

    pool = np.arange(1, pool_size + 1)
    sets: list[set[int]] = []
    universal: set[int] = set()
    # Independent fills can hand a non-core channel to every node, inflating
    # the common set; verify post hoc and resample. When per_node_size equals
    # the pool (or a corner like a single node) no resample can succeed, so
    # fall back to evicting each offending channel from one random node,
    # leaving that node short of k but never below m.
    for _ in range(1000):
        core = set(rng.choice(pool, size=m, replace=False).tolist())
        rest = np.array(sorted(set(pool.tolist()) - core))
        sets = []
        for _ in range(node_count):
            fill = rng.choice(rest, size=k - m, replace=False).tolist() if k > m else []
            sets.append(core | set(fill))
        universal = set.intersection(*sets) - core
        if not universal:
            break
        if k == pool_size:
            break  # every node necessarily holds every channel; must evict
    for ch in sorted(universal):
        sets[int(rng.integers(node_count))].discard(ch)

    return SpectrumMap(tuple(tuple(sorted(s)) for s in sets))
