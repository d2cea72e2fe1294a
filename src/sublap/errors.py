"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid space parameters, dimension mismatch, or bad run configuration."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ArithmeticDomainError(DomainError):
    """A jet arithmetic operation was applied outside its domain."""

    def __init__(self, op: str, detail: str):
        self.op = op
        super().__init__(f"jet op '{op}': {detail}")


class SingularPointError(DomainError):
    """Evaluation requested at the gauge singularity (the base point)."""


class DegeneratePointError(DomainError):
    """Frame data is undefined at this point (Sigma == 0 with small k)."""

