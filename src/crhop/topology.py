"""Static node placement on a plane with unit-disk connectivity."""

from __future__ import annotations

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError, read_input

DEFAULT_ATTEMPT_BUDGET = 10_000
FIRST_BATCH, MAX_BATCH, MAX_CELLS = 32, 128, 1 << 13  # batch sizes: see generate_topology


def unit_disk_adjacency(points: np.ndarray, radio_range: float) -> np.ndarray:
    """Adjacency of (..., n, 2) points: distinct pairs with dx*dx + dy*dy <= range*range."""
    x, y = np.moveaxis(points, -1, 0).copy()
    dx, dy = x[..., :, None] - x[..., None, :], y[..., :, None] - y[..., None, :]
    squared = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
    return (squared <= radio_range * radio_range) & ~np.eye(points.shape[-2], dtype=bool)


def connected(adjacency: np.ndarray) -> np.ndarray:
    """Whether each (..., n, n) adjacency is connected: reach from node 0, one hop per matmul."""
    links = (adjacency | np.eye(adjacency.shape[-1], dtype=bool)).astype(np.float32)
    reached = links[..., :1, :]
    while not np.array_equal(grown := (reached @ links > 0).astype(np.float32), reached):
        reached = grown
    return reached.all(axis=(-2, -1))


class Topology:
    """Node positions plus the symmetric unit-disk adjacency they induce.

    Two distinct nodes are neighbors iff their Euclidean distance is at most
    `radio_range`. Instances are only built through `generate_topology` or
    `from_positions`, both of which enforce connectivity. Runs read neighbours
    as `neighbor_masks[i]`, node i's as an id mask (bit j is node j), and as
    `peers[r]`, each node's r-th neighbour by id, or n past its degree.
    """

    def __init__(self, positions: list[tuple[float, float]], radio_range: float):
        points = np.array(positions, dtype=float).reshape(len(positions), 2)
        self._index(points, unit_disk_adjacency(points, float(radio_range)))

    def _index(self, points: np.ndarray, adjacency: np.ndarray) -> Topology:
        """Fill in the topology of `points` from their unit-disk `adjacency`."""
        self.positions = tuple(map(tuple, points.tolist()))
        self.adjacency = adjacency
        rows = np.packbits(self.adjacency, axis=1, bitorder="little")
        self.neighbor_masks = tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
        ranked = np.sort(np.where(self.adjacency, np.arange(len(points)), len(points)), axis=1)
        self.peers = ranked[:, :self.adjacency.sum(axis=1).max(initial=0)].T.copy()
        self.peers.setflags(write=False)  # every run on the topology reads it
        return self

    @property
    def node_count(self) -> int:
        return len(self.positions)


def generate_topology(
    node_count: int,
    area: tuple[float, float],
    radio_range: float,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_ATTEMPT_BUDGET,
) -> Topology:
    """Uniform placement over the area, resampled wholesale until connected.

    Returns the first connected of at most max_attempts attempts, drawn k at a
    time as random((k, n, 2)) * area, the values of k uniform(size=(n, 2))
    draws (so rng ends past it). k doubles from FIRST_BATCH to MAX_BATCH within
    MAX_CELLS adjacency cells (k >= 1): a batch's work past its first hit is
    wasted. Only attempts where no node is isolated are tested for connectivity.
    GenerationFailureError flags an infeasible scenario.
    """
    if node_count < 1:
        raise InvalidParameterError(f"node_count must be >= 1, got {node_count}")
    if not radio_range > 0:
        raise InvalidParameterError(f"radio_range must be positive, got {radio_range}")
    width, height = area
    if not (0 < width < np.inf and 0 < height < np.inf):
        raise InvalidParameterError(f"area sides must be finite and positive, got {area}")
    drawn = 0
    while drawn < max_attempts:
        size = min(max(drawn, FIRST_BATCH), MAX_BATCH, max(MAX_CELLS // node_count**2, 1), max_attempts - drawn)
        points = rng.random((size, node_count, 2)) * (width, height)
        adjacency = unit_disk_adjacency(points, radio_range)
        candidates = np.flatnonzero(adjacency.any(-1).all(-1) | (node_count == 1))
        hits = candidates[connected(adjacency[candidates])]
        if hits.size:
            return Topology.__new__(Topology)._index(points[hits[0]], adjacency[hits[0]])  # not computed again
        drawn += size
    raise GenerationFailureError(
        f"no connected placement of {node_count} nodes in {width}x{height} "
        f"at range {radio_range} within {max_attempts} attempts"
    )


def from_positions(positions: list[tuple[float, float]], radio_range: float) -> Topology:
    """Topology from explicit positions; rejects disconnected placements."""
    topo = Topology(positions, radio_range)
    if not connected(topo.adjacency):
        raise InvalidParameterError("imported positions do not form a connected graph")
    return topo


def load_positions(path: str) -> list[tuple[float, float]]:
    """Read "id x y" lines (meters); returns positions ordered by node id."""
    rows = []
    for lineno, line in enumerate(read_input(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            node, x, y = line.split()
            rows.append((int(node), float(x), float(y)))
        except ValueError:
            raise InvalidParameterError(f"{path}:{lineno}: expected 'id x y', got {line!r}") from None
        if not np.isfinite(rows[-1][1:]).all():
            raise InvalidParameterError(f"{path}:{lineno}: coordinates must be finite, got {line!r}")
    rows.sort()
    ids = [r[0] for r in rows]
    if ids != list(range(len(ids))):
        raise InvalidParameterError(f"{path}: node ids must be 0..N-1 without gaps")
    return [(x, y) for _, x, y in rows]
