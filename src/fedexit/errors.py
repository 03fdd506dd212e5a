"""Exception types raised across the package, and the readers of typed fields."""

from __future__ import annotations

import numbers


class FedexitError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(FedexitError, ValueError):
    """An argument is out of range or of the wrong shape; also a ``ValueError``."""


def integer(what: str, value, least: int | None = None) -> int:
    """``value`` as an int >= ``least``, refusing the bool, string or fraction ``int()`` takes."""
    # The builtin type comes first in each tuple: an ABC's isinstance costs several times more.
    # A huge whole Fraction overflows float(), so a rational's denominator is read instead.
    if isinstance(value, bool) or not (isinstance(value, (int, numbers.Integral)) or (
            isinstance(value, numbers.Rational) and value.denominator == 1) or (
            isinstance(value, (float, numbers.Real)) and float(value).is_integer())):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidArgumentError(f"{what} must be >= {least}, got {int(value)}")
    return int(value)


def number(what: str, value) -> float:
    """``value`` as a float; refuse a bool or a string, which ``float()`` would take, and a
    number too large for a float, where it raises a bare ``OverflowError``."""
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise InvalidArgumentError(f"{what} must be within a float's range") from None
    raise InvalidArgumentError(f"{what} must be a number, got {value!r}")


def string(what: str, value) -> str:
    """``value`` if it is a string; ``str()`` would turn a list or a number into a name."""
    if isinstance(value, str):
        return value
    raise InvalidArgumentError(f"{what} must be a string, got {value!r}")


def read_fields(obj, what: str, **readers) -> None:
    """Store each field of ``obj`` named in ``readers`` as read; ``what`` prefixes its name."""
    for name, read in readers.items():
        object.__setattr__(obj, name, read(what + name, getattr(obj, name)))


class InvalidTopologyError(FedexitError):
    """The node set does not describe a usable inference tree."""


class CycleError(InvalidTopologyError):
    """The parent relation contains a cycle (or no root exists)."""


class MultipleRootsError(InvalidTopologyError):
    """More than one node has no parent."""


class ExitOrderError(InvalidTopologyError):
    """A child's exit index is not strictly smaller than its parent's."""


class MissingExitError(InvalidTopologyError):
    """Some exit index has no node assigned to it."""


class NonConvergenceError(FedexitError):
    """The fixed-point flow iteration failed to settle."""


class InfeasibleSplitError(FedexitError):
    """The requested per-exit serving split cannot be realized by any budgets."""


class ZeroTrafficError(FedexitError):
    """An operation needing positive total serving rate received none."""


class AllZeroWeightsError(FedexitError):
    """Every candidate exit weight is zero, so normalization is undefined."""


class InvalidKError(FedexitError):
    """The off-exit training probability is out of range for some client."""


class EmptyPoolError(FedexitError):
    """No client contributes training data to some exit."""


class EmptyClientDatasetError(FedexitError):
    """A client with no samples was asked to run a local update."""


class EmptyDatasetError(FedexitError):
    """A metric was requested on an empty dataset."""


class ZeroProbabilityError(FedexitError):
    """An update arrived from a (client, exit) pair with zero sampling probability."""


class DivergenceError(FedexitError):
    """A training iterate stopped being finite."""


class SingularSystemError(FedexitError):
    """The weighted normal equations could not be solved."""


class BoundOverflowError(FedexitError):
    """A bound, or a constant it is built from, does not fit in a float."""


class NotNormalizedError(FedexitError):
    """A weight vector expected to lie on the probability simplex does not."""


class ConfigParseError(FedexitError):
    """An experiment configuration file is missing or malformed."""


class OutputExistsError(FedexitError):
    """An experiment's output directory already holds files."""


class MissingRowsError(FedexitError):
    """A results table lacks the rows needed for the requested comparison."""


class MixedKError(FedexitError):
    """A strategy's rows in a results table were trained at more than one k."""
