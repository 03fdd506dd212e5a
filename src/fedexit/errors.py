"""Exception types raised across the package."""

from __future__ import annotations


class FedexitError(Exception):
    """Base class for all package-specific errors."""


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


class NotNormalizedError(FedexitError):
    """A weight vector expected to lie on the probability simplex does not."""


class ConfigParseError(FedexitError):
    """An experiment configuration file is missing or malformed."""


class MissingRowsError(FedexitError):
    """A results table lacks the rows needed for the requested comparison."""
