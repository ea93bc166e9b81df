"""Shared test helpers."""

from fractions import Fraction
from unittest import mock

from crhop import engine


class ScriptedElection:
    """Election stream that follows a predetermined list of draws.

    Stands in for a run's draw(k), which the engine calls only for k >= 2
    candidates, taking the draw-th of them, ascending. Records every choice
    point as (k, picked index) so a caller can enumerate the engine's decision
    tree; once the script runs out, index 0 is taken. `probability` is the
    likelihood of the followed path under uniform elections.
    """

    def __init__(self, script=()):
        self.script = list(script)
        self.log = []
        self.probability = Fraction(1)

    def __call__(self, k):
        assert k >= 2, "one candidate draws nothing"
        index = self.script.pop(0) if self.script else 0
        self.log.append((k, index))
        self.probability *= Fraction(1, k)
        return index

    def run(self, scenario, seed, trace=False):
        """engine.run with this script as its election stream. The run builds its
        own environment: a shared one's memo could serve an unscripted record."""
        with mock.patch.object(engine, "uniform_index", lambda rng: self):
            return engine.run(scenario, seed, trace=trace)


CHAIN_POSITIONS = ((0.0, 0.0), (90.0, 0.0), (180.0, 0.0))  # 0-1 and 1-2 in range only
PAIR_POSITIONS = ((0.0, 0.0), (50.0, 0.0))
