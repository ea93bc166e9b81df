"""Golden digests: the byte-identity gate for every block the benchmark runs.

golden.json holds, for the default seed and one held-out seed of each
workload, one digest per block for the first blocks of the workload: a
SHA-256 over the digest of every operation of the block (a run, or a grid
cell) and of the grid's data.csv and summary.json files. A block of one of
those seeds is checked against it, and when it differs every operation of
the block counts as failed. On any other seed, or past the recorded blocks,
the golden check reports `unchecked`; the invariants of every record and,
in the traced pass, the traced-to-untraced comparison still apply.

Re-record after a change that is meant to alter results:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Blocks recorded per seed: more than a run of --seconds 40 gets through on
# a fast host (a grid block takes about 6 s there, the others about 1 s).
RECORDED_BLOCKS = {"grid": 10, "setup-bound": 64, "loop-bound": 64}


def load(path: Path = GOLDEN_PATH) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text("utf-8"))


def block_digest(p) -> str:
    """Digest of a pass over one block: every operation's digest and every file's."""
    h = hashlib.sha256()
    for kind, table in (("op", p.digests), ("file", p.files)):
        for key in sorted(table):
            h.update(f"{kind}|{key}|{table[key]}\n".encode("utf-8"))
    return h.hexdigest()[:16]


def mismatched_ops(reference, p) -> set[str]:
    """Operations of pass `p` that raised or whose digest differs from pass `reference`.

    A file that differs fails every operation of its sub-sweep.
    """
    bad = {k for k, d in p.digests.items() if d is None or reference.digests.get(k) != d}
    for fname, digest in reference.files.items():
        if p.files.get(fname) != digest:
            sweep = fname.split("/", 1)[0] + "/"
            bad |= {k for k in p.digests if k.startswith(sweep)}
    return bad


def check(golden: dict, workload: str, seed: int, size: int, block: int, p) -> tuple[str, set[str]]:
    """("checked" | "unchecked", failed operations) of a pass over `block`."""
    entry = golden.get(workload, {}).get(str(seed))
    if entry is None or entry["size"] != size or block >= len(entry["blocks"]):
        return "unchecked", set()
    if entry["blocks"][block] == block_digest(p):
        return "checked", set()
    return "checked", set(p.digests)


def record() -> dict:
    """Run the recorded blocks of every workload on the default and held-out seeds."""
    import workloads

    workloads.import_crhop()
    workloads.serial_environment()
    golden = {}
    for name, build in workloads.WORKLOADS.items():
        size = workloads.SIZES[name]
        golden[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            wl = build(seed, size)
            blocks = []
            for block in range(RECORDED_BLOCKS[name]):
                p = wl.run_pass(block)
                if p.problems:
                    raise RuntimeError(f"{name} seed {seed} block {block}: {p.problems[:3]}")
                blocks.append(block_digest(p))
            golden[name][str(seed)] = {"size": size, "blocks": blocks}
            print(f"{name} seed {seed}: {len(blocks)} blocks recorded", file=sys.stderr)
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", "utf-8")
