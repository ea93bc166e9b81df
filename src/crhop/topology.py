"""Static node placement on a plane with unit-disk connectivity."""

from __future__ import annotations

import math

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError, read_input

DEFAULT_ATTEMPT_BUDGET = 10_000


class Topology:
    """Node positions plus the symmetric unit-disk adjacency they induce.

    Two distinct nodes are neighbors iff their Euclidean distance is at most
    `radio_range`. Instances are only built through `generate_topology` or
    `from_positions`, both of which enforce connectivity.
    """

    def __init__(self, positions: list[tuple[float, float]], radio_range: float):
        self.positions = tuple((float(x), float(y)) for x, y in positions)
        self.radio_range = float(radio_range)
        n = len(self.positions)
        neighbors = [set() for _ in range(n)]
        for i in range(n):
            xi, yi = self.positions[i]
            for j in range(i + 1, n):
                xj, yj = self.positions[j]
                if math.dist((xi, yi), (xj, yj)) <= self.radio_range:
                    neighbors[i].add(j)
                    neighbors[j].add(i)
        self.neighbors = tuple(frozenset(s) for s in neighbors)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]

    def is_connected(self) -> bool:
        n = self.node_count
        if n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for j in self.neighbors[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n


def generate_topology(
    node_count: int,
    area: tuple[float, float],
    radio_range: float,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_ATTEMPT_BUDGET,
) -> Topology:
    """Uniform placement over the area, resampled wholesale until connected.

    Raises GenerationFailureError when the attempt budget runs out, which
    flags the (node_count, area, radio_range) combination as infeasible for
    rejection sampling.
    """
    if node_count < 1:
        raise InvalidParameterError(f"node_count must be >= 1, got {node_count}")
    if radio_range <= 0:
        raise InvalidParameterError(f"radio_range must be positive, got {radio_range}")
    width, height = area
    if width <= 0 or height <= 0:
        raise InvalidParameterError(f"area sides must be positive, got {area}")
    for _ in range(max_attempts):
        pts = rng.uniform((0.0, 0.0), (width, height), size=(node_count, 2))
        topo = Topology([tuple(p) for p in pts], radio_range)
        if topo.is_connected():
            return topo
    raise GenerationFailureError(
        f"no connected placement of {node_count} nodes in {width}x{height} "
        f"at range {radio_range} within {max_attempts} attempts"
    )


def from_positions(positions: list[tuple[float, float]], radio_range: float) -> Topology:
    """Topology from explicit positions; rejects disconnected placements."""
    topo = Topology(positions, radio_range)
    if not topo.is_connected():
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
    rows.sort()
    ids = [r[0] for r in rows]
    if ids != list(range(len(ids))):
        raise InvalidParameterError(f"{path}: node ids must be 0..N-1 without gaps")
    return [(x, y) for _, x, y in rows]
