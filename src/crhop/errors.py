"""Exception types raised across the simulator, and the reading and writing of files."""

from contextlib import contextmanager


class CrhopError(Exception):
    """Base class for all simulator errors."""


class InvalidParameterError(CrhopError, ValueError):
    """A value violates an operation's precondition."""


class GenerationFailureError(CrhopError, RuntimeError):
    """Topology generation exhausted its attempt budget; the scenario is infeasible."""


class NoChannelError(CrhopError, RuntimeError):
    """A channel-selection strategy was asked to hop with an empty available set."""


class UndefinedPprError(CrhopError, RuntimeError):
    """PPR is undefined because no run recorded a successful rendezvous."""


class InvalidComparisonError(CrhopError, ValueError):
    """Paired comparison attempted between results with mismatched seed sets."""


def read_input(path: str) -> str:
    """Text of an input file; one that cannot be read is an InvalidParameterError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


@contextmanager
def writing(path: str):
    """Raise an OSError of the block, which writes `path`, as an InvalidParameterError naming it."""
    try:
        yield
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror or exc}") from None
