"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the range where the operation is defined."""


class SchemaError(ValueError):
    """A document does not match the published JSON schema."""


class ConditionError(RuntimeError):
    """A witness polynomial fails its sign conditions.

    Carries the full ``ConditionReport`` so callers can render the
    violations instead of an unsound bound.
    """

    def __init__(self, report):
        super().__init__("witness conditions failed; bound not computed")
        self.report = report


class HorizonError(RuntimeError):
    """No threshold can be proved: the witness fails at every large length."""
