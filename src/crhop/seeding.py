"""Deterministic hierarchical random streams.

Every source of randomness in a run is drawn from a labeled substream of the
run's root seed. Labels are stable strings ("topology", "pr/3", ...), so two
runs that share a root seed see identical draws for identically labeled
streams regardless of which protocol or handshake is being simulated. This is
what makes paired comparisons share their topology and primary-radio traces.

`labeled_seeds` derives every label's stream seed in one array pass, pinned bit
for bit to numpy's SeedSequence by tests/test_seeding.py.

Run seeds themselves are derived from (base seed, environment key, run index)
with SHA-256, where the environment key deliberately excludes the protocol and
handshake axes.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np

MASK32 = 0xFFFFFFFF  # below it, SeedSequence's hash constants (after O'Neill's PCG seed_seq)
INIT_A, MULT_A, INIT_B, MULT_B, MIX_L, MIX_R = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715


@functools.lru_cache(maxsize=256)  # an environment's labels repeat for every seed
def _label_words(labels: tuple[str, ...]) -> np.ndarray:
    digests = b"".join(hashlib.sha256(label.encode("utf-8")).digest()[:16] for label in labels)
    return np.frombuffer(digests, "<u4").astype(np.uint64).reshape(-1, 4)


def _words(x) -> list[int]:
    """SeedSequence's uint32 words of an entropy or spawn key: an int's, low word first, or each entry's."""
    if not isinstance(x, (int, np.integer)):
        return [w for v in x for w in _words(v)]
    return [int(x) >> s & MASK32 for s in range(0, max(int(x).bit_length(), 1), 32)]


def _constants(value: int, mult: int):  # value, value * mult, value * mult**2, ... mod 2**32
    return itertools.accumulate(itertools.repeat(mult), lambda v, m: v * m & MASK32, initial=value)


def _hash(value, xor, mult):  # on ints, or on uint64 arrays of uint32 words
    value = (value ^ xor) * mult & MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (MIX_L * x - MIX_R * y) & MASK32
    return value ^ value >> 16


def labeled_seeds(seed: int | np.random.SeedSequence, labels: tuple[str, ...]) -> np.ndarray:
    """(len(labels), 4) uint64: row i is the PCG64 seed of SeedSequence(root.entropy, spawn_key=
    root.spawn_key + labels[i]'s 4 words) for the root `seed`. The root's words (entropy padded to 4,
    then spawn key) mix into the pool once, in Python; then every label's words mix in at once, as
    SeedSequence's hash constants do not depend on the data."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    entropy = _words(root.entropy)
    words = entropy + [0] * (4 - len(entropy)) + _words(root.spawn_key)
    a = itertools.pairwise(_constants(INIT_A, MULT_A))  # each hash's (xor, mult), in turn
    pool = [_hash(w, *next(a)) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], *next(a)))
    for w in words[4:]:
        pool = [_mix(p, _hash(w, *next(a))) for p in pool]
    steps = np.array(list(itertools.islice(a, 16)), np.uint64).reshape(4, 4, 2)  # [word, pool word]
    hashed = _hash(_label_words(tuple(labels))[:, :, None], steps[..., 0], steps[..., 1])
    pool = functools.reduce(_mix, hashed.transpose(1, 0, 2), np.array(pool, np.uint64))  # word by word
    b = np.array(list(itertools.islice(_constants(INIT_B, MULT_B), 9)), np.uint64)
    state = _hash(np.tile(pool, 2), b[:-1], b[1:])  # generate_state's 8 uint32 words
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


class _Seed(np.random.bit_generator.ISeedSequence):
    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row  # PCG64 asks once, for 4 uint64 words


def seeded_rng(row: np.ndarray) -> np.random.Generator:
    """A fresh Generator on one labeled_seeds row."""
    return np.random.Generator(np.random.PCG64(_Seed(row)))


def uniform_index(rng: np.random.Generator):
    """draw(k), which returns what rng.integers(k) would, for 1 <= k < 2**32.

    On PCG64 (seeded_rng's), numpy's bounded draw is Lemire's method on 32-bit
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
