"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the range where the operation is defined."""


class SchemaError(ValueError):
    """A document does not match the published JSON schema."""


class ConditionError(RuntimeError):
    """A witness polynomial fails its sign conditions.

    ``violations`` is the pair ``check_conditions`` returns: the indices
    violating condition 1 and those violating condition 2, so callers
    can render them instead of an unsound bound.
    """

    def __init__(self, violations):
        super().__init__("witness conditions failed; bound not computed")
        self.violations = violations


class HorizonError(RuntimeError):
    """No threshold can be proved: the witness fails at every large length."""
