"""Shared exception types, the budget table and the data-file line readers."""

from typing import NamedTuple


class Budget(NamedTuple):
    cap: int
    unit: str
    bounds: str


# Every constant resource cap of the package, each keeping an exponential step
# at desk scale.  ``check_budget`` reads a row when it runs, so a lowered row
# takes effect at once.
BUDGETS = {
    "tensor_cells": Budget(10**6, "cells", "N^ell, the length of a tensor power"),
    "exhaustive_n": Budget(64, "points", "N of an exhaustive coloring search"),
    "greedy_table": Budget(20_000_000, "entries", "r^(k-1) and 2^k m, greedy counts and tables"),
    "verify_half": Budget(20_000_000, "sums", "t^ceil(k/2), one half of the solution count"),
    "interlace_cells": Budget(100_000, "cells", "D, the cells of an interlaced circle coloring"),
    "exact_work": Budget(
        2_500_000_000, "pairs",
        "D^2 times the cells of a flat scan, or the states times digit pairs of a carry automaton",
    ),
    "u3_n": Budget(4096, "points", "N of an order-3 box norm"),
    "pairing_k": Budget(16, "positions", "k of a pairing enumeration, (k-1)!! candidates"),
    "subset_k": Budget(20, "positions", "k of a zero-sum subset enumeration, 2^k subsets"),
}


class BudgetExceededError(RuntimeError):
    """``needed`` exceeds the ``cap`` of budget ``name``, a row of ``BUDGETS``.

    Distinct from a negative mathematical answer: callers that exhaust a budget
    learn nothing about existence.
    """

    def __init__(self, name: str, needed: int, cap: int):
        self.name, self.needed, self.cap = name, needed, cap
        super().__init__(f"budget {name} exceeded: needs {needed}, cap {cap}")


def check_budget(name: str, needed: int) -> None:
    """Raise when ``needed`` exceeds the cap of row ``name``."""
    cap = BUDGETS[name].cap
    if needed > cap:
        raise BudgetExceededError(name, needed, cap)


class SelfCheckError(RuntimeError):
    """A computation failed its own consistency check, so its result cannot
    be trusted: digit levels that do not reproduce the cell colors
    (``colorings``), the cell areas of a torus decomposition (``torus``),
    Parseval for a spectrum, a primitive root of the Rader transform or an
    extraction that fails its re-check (``uniformity``), or a set-check
    witness that is trivial or missing (``sets``)."""


class FormatError(ValueError):
    """A data file does not match its documented format."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def data_lines(text: str) -> list[tuple[int, str]]:
    """(physical line number, stripped text) of each non-blank line."""
    return [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def parse_ints(rows) -> list[int]:
    """The whitespace-separated integers of ``rows`` ((line number, text)
    pairs), or a FormatError at the line of the first token that is not one."""
    out = []
    for no, ln in rows:
        for tok in ln.split():
            try:
                out.append(int(tok))
            except ValueError:
                raise FormatError(f"expected an integer, got {tok!r}", no) from None
    return out
