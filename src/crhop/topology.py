"""Static node placement on a plane with unit-disk connectivity."""

from __future__ import annotations

import functools

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError, read_input

DEFAULT_ATTEMPT_BUDGET = 10_000
FIRST_BATCH, MAX_BATCH, MAX_CELLS = 64, 256, 1 << 12  # batch sizes: see generate_topology


@functools.lru_cache(maxsize=4)
def pair_tables(n: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of the P = n(n-1)/2 pairs i<j of n nodes: their i and j, each
    (n, n) cell's pair (P on the diagonal) and an (n-1, n) table of each node's pairs."""
    first, second = np.triu_indices(n, 1)
    cells = np.full((n, n), len(first))
    cells[first, second] = cells[second, first] = np.arange(len(first))
    for table in (tables := (first, second, cells, np.sort(cells, axis=0)[:-1])):  # P sorts last
        table.setflags(write=False)
    return tables


def unit_disk_links(points: np.ndarray, radio_range: float) -> np.ndarray:
    """(P + 1, k) links of k attempts' (k, n, 2) points: dx*dx + dy*dy <= range*range, then no link."""
    first, second = pair_tables(points.shape[1])[:2]
    d = np.square(np.take(points.T, first, axis=1) - np.take(points.T, second, axis=1))
    return np.concatenate((d[0] + d[1] <= radio_range * radio_range, np.zeros((1, len(points)), bool)))


def connected(adjacency: np.ndarray) -> np.ndarray:
    """Whether each (..., n, n) adjacency is connected: reach from node 0, one hop per matmul."""
    links = (adjacency | np.eye(adjacency.shape[-1], dtype=bool)).astype(np.float32)
    reached, count = links[..., :1, :], 0
    while count != (count := np.count_nonzero(reached)):  # reach only grows
        reached = np.sign(reached @ links)
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
        self._index(points, np.take(unit_disk_links(points[None], float(radio_range)), pair_tables(len(points))[2]))

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
    MAX_CELLS links, n(n-1)/2 + 1 per attempt (k >= 1): a batch's work past its
    first hit is wasted. Only attempts where no node is isolated get an n x n
    adjacency and a connectivity test. GenerationFailureError flags an infeasible scenario.
    """
    for name, count in (("node_count", node_count), ("max_attempts", max_attempts)):
        if count < 1:
            raise InvalidParameterError(f"{name} must be >= 1, got {count}")
    if not radio_range > 0:
        raise InvalidParameterError(f"radio_range must be positive, got {radio_range}")
    width, height = area
    if not (width > 0 and height > 0 and width * width + height * height < np.inf):
        raise InvalidParameterError(f"area sides must be positive with a finite diagonal, got {area}")
    first, _, cells, others = pair_tables(node_count)
    drawn = 0
    while drawn < max_attempts:
        size = min(max(drawn, FIRST_BATCH), MAX_BATCH, max(MAX_CELLS // (len(first) + 1), 1), max_attempts - drawn)
        points = rng.random((size, node_count, 2)) * (width, height)
        links = unit_disk_links(points, radio_range)
        candidates = np.flatnonzero(np.take(links, others, axis=0).any(0).all(0) | (node_count == 1))
        adjacency = np.take(np.take(links, candidates, axis=1).T, cells, axis=1)
        if (hits := np.flatnonzero(connected(adjacency))).size:
            return Topology.__new__(Topology)._index(points[candidates[hits[0]]], adjacency[hits[0]])
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
