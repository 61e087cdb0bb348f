import pytest

from aplab.errors import BUDGETS


@pytest.fixture()
def lower_budget(monkeypatch):
    """Set the cap of one row of the budget table for the length of a test."""

    def lower(name, cap):
        monkeypatch.setitem(BUDGETS, name, BUDGETS[name]._replace(cap=cap))

    return lower
