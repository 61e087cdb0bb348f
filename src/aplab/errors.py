"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A configured resource budget (cells, nodes, samples, translates) ran out.

    Distinct from a negative mathematical answer: callers that exhaust a budget
    learn nothing about existence.
    """


class SelfCheckError(RuntimeError):
    """A computation failed its own consistency check (Parseval for a
    spectrum, the cell areas of a torus decomposition, a congruence
    certificate), so its result cannot be trusted."""


class FormatError(ValueError):
    """A data file does not match its documented format."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
