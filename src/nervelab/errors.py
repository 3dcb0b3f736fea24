"""Exception types shared across the library."""


class NerveLabError(Exception):
    """Base class for all library errors."""


class BoundError(NerveLabError):
    """A requested dimension exceeds the truncation bound."""


class DomainError(NerveLabError):
    """An argument refers to an object/cell that is not present."""


class ContractError(NerveLabError):
    """A structural precondition (commuting triangle, commuting square,
    well-formed table) does not hold."""


class SchemaError(NerveLabError):
    """A JSON document does not match its schema.

    The message always names the offending key or entry.
    """


class BudgetError(NerveLabError):
    """A bounded procedure was invoked with a negative budget."""
