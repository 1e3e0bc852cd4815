"""Exception taxonomy shared across the library and mapped to CLI exit codes."""


class FlipdistError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class ValidationError(FlipdistError):
    """An object violates a structural invariant."""

    exit_code = 2


class DomainMismatchError(FlipdistError):
    exit_code = 2


class IllegalScriptError(FlipdistError):
    """A flip script fails to replay: `index` is its first illegal move,
    -1 when it does not start at the triangulation it is replayed from, or
    its length when `audit_script` finds that it does not end at t2."""

    exit_code = 2

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class EmptyRegionError(FlipdistError):
    exit_code = 3


class InfeasibleSagError(FlipdistError):
    exit_code = 3


class SharpVertexError(FlipdistError):
    exit_code = 3


class EmptyFeasibleRegionError(FlipdistError):
    """A gadget point has no admissible placement."""

    exit_code = 3


class NotPlanarError(FlipdistError):
    exit_code = 2


class Not3ConnectedError(FlipdistError):
    exit_code = 2


class InvalidOuterFaceError(FlipdistError):
    exit_code = 2


class NotACoverError(FlipdistError):
    """A graph edge is left uncovered."""

    exit_code = 2


class CapExceededError(FlipdistError):
    exit_code = 4
