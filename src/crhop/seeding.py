"""Deterministic hierarchical random streams.

Every source of randomness in a run is drawn from a labeled substream of the
run's root seed. Labels are stable strings ("topology", "pr/3", ...), so two
runs that share a root seed see identical draws for identically labeled
streams regardless of which protocol or handshake is being simulated. This is
what makes paired comparisons share their topology and primary-radio traces.

Run seeds themselves are derived from (base seed, environment key, run index)
with SHA-256, where the environment key deliberately excludes the protocol and
handshake axes.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


# Labels ("topology", "pr/<ch>", "strategy/<i>", ...) repeat across every run.
@functools.lru_cache(maxsize=4096)
def _label_words(label: str) -> tuple[int, ...]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def root_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def substream(parent: np.random.SeedSequence, label: str) -> np.random.SeedSequence:
    """Child seed sequence identified by a stable label."""
    return np.random.SeedSequence(
        entropy=parent.entropy, spawn_key=tuple(parent.spawn_key) + _label_words(label)
    )


def labeled_rng(parent: np.random.SeedSequence, label: str) -> np.random.Generator:
    return np.random.default_rng(substream(parent, label))


def uniform_index(rng: np.random.Generator):
    """draw(k), which returns what rng.integers(k) would, for 1 <= k < 2**32.

    On PCG64 (labeled_rng's), numpy's bounded draw is Lemire's method on 32-bit
    halves of raw words, low half first: half h is kept iff (h * k) % 2**32 >=
    2**32 % k and gives (h * k) >> 32; k == 1 reads nothing. Words are read
    256 at a time, ahead of the draws, so rng must serve draw alone.
    """
    raw, halves = rng.bit_generator.random_raw, []  # unread halves, the next one last

    def draw(k: int) -> int:
        threshold = (1 << 32) % k
        while k > 1:
            if not halves:
                block = raw(256)
                halves.extend(np.column_stack((block & 0xFFFFFFFF, block >> 32)).ravel()[::-1].tolist())
            scaled = halves.pop() * k
            if scaled & 0xFFFFFFFF >= threshold:
                return scaled >> 32
        return 0

    return draw


def derive_run_seed(base_seed: int, environment_key: str, run_index: int) -> int:
    """64-bit run seed, a pure function of its arguments.

    Protocol and handshake must not appear in `environment_key`: cells that
    differ only in those axes are meant to share run seeds (paired seeds).
    """
    material = f"{base_seed}|{environment_key}|{run_index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "little")
