"""The budget table: each row, lowered, stops its check with an error that
names the row, the amount needed and the cap, and every row the CLI can
reach exits 2 naming the row on stderr."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from aplab.cli import main
from aplab.colorings import CYCLIC, Z22_COLORING, Coloring, search_coloring, tensor_power
from aplab.errors import BUDGETS, BudgetExceededError
from aplab.patterns import PatternSpec, a_binomial_system, enumerate_pairings, zero_sum_subsets
from aplab.pipelines import run_thm2_6
from aplab.sets import ResidueSet, greedy_solution_free_set, verify_solution_free
from aplab.torus import (
    TorusColoring,
    interlace_k,
    pattern_cells,
    pattern_probability_exact,
    torus_coloring_to_text,
)
from aplab.uniformity import GridFunction, gowers_norm, grid_to_text

Z22 = Coloring(CYCLIC, tuple(int(ch) for ch in Z22_COLORING))
AP4 = PatternSpec.ap(4)
AP4_SYSTEM = a_binomial_system(AP4)
TORUS10 = TorusColoring((1, 2) * 5)

# (row, lowered cap, call, amount the call needs)
CASES = [
    ("tensor_cells", 100, lambda: tensor_power(Z22, 2), 22**2),
    ("exhaustive_n", 10, lambda: search_coloring(12, 4, 3), 12),
    ("greedy_table", 26, lambda: greedy_solution_free_set(AP4_SYSTEM, 100, 3), 3**3),
    ("greedy_table", 1599, lambda: greedy_solution_free_set(AP4_SYSTEM, 100, 3), 1600),
    (
        "verify_half", 99,
        lambda: verify_solution_free(ResidueSet(1000, tuple(range(10))), AP4_SYSTEM),
        10**2,
    ),
    ("interlace_cells", 100, lambda: interlace_k(Z22, 4), 16 * 22),
    (
        "exact_work", 99,
        lambda: pattern_probability_exact(TORUS10, AP4), 10**2 * len(pattern_cells(AP4)),
    ),
    ("u3_n", 64, lambda: gowers_norm(GridFunction(exact=(Fraction(1, 2),) * 65), 3), 65),
    ("pairing_k", 4, lambda: enumerate_pairings(PatternSpec.ap(6)), 6),
    ("subset_k", 4, lambda: zero_sum_subsets(a_binomial_system(PatternSpec.ap(5))), 5),
]


def test_every_row_has_a_case():
    assert {case[0] for case in CASES} == set(BUDGETS)


@pytest.mark.parametrize("name,cap,call,needed", CASES, ids=[c[0] for c in CASES])
def test_lowered_row_stops_its_check(lower_budget, name, cap, call, needed):
    lower_budget(name, cap)
    with pytest.raises(BudgetExceededError) as info:
        call()
    err = info.value
    assert (err.name, err.needed, err.cap) == (name, needed, cap)
    assert str(err) == f"budget {name} exceeded: needs {needed}, cap {cap}"


def test_structured_path_checks_its_transitions(lower_budget):
    # the carry automaton of thm2_6 at ell = 2 makes 8*16 + 2*484 + 2*484 +
    # 2*16 = 2096 transitions, so the row stops it before its last level
    lower_budget("exact_work", 2095)
    with pytest.raises(BudgetExceededError) as info:
        pattern_probability_exact(interlace_k(tensor_power(Z22, 2), 4), AP4)
    assert (info.value.name, info.value.needed, info.value.cap) == ("exact_work", 2096, 2095)


def test_structured_path_runs_below_the_flat_count(lower_budget):
    # the flat scan of thm2_6 at ell = 2 would need 7744^2 x 8 pairs
    lower_budget("exact_work", 7744**2 * len(pattern_cells(AP4)) - 1)
    assert run_thm2_6(ell=2, samples=10).epsilon == Fraction(1, 23232)


@pytest.fixture()
def files(tmp_path):
    z22 = tmp_path / "z22.txt"
    z22.write_text(f"cyclic\n22 3\n{Z22_COLORING}\n")
    torus = tmp_path / "torus.txt"
    torus.write_text(torus_coloring_to_text(TORUS10))
    grid = tmp_path / "grid.txt"
    grid.write_text(grid_to_text(GridFunction(exact=(Fraction(1, 2),) * 65)))
    return {"Z22": str(z22), "TORUS": str(torus), "GRID": str(grid), "OUT": str(tmp_path / "out")}


CLI_CASES = [
    ("tensor_cells", 100, ["pipeline", "--name", "thm2_6", "--ell", "2"]),
    ("exhaustive_n", 10, ["search", "--N", "12", "--k", "4", "--r", "3"]),
    (
        "greedy_table", 26,
        ["build-set", "--kind", "greedy", "--m", "100", "--r", "3", "--out", "OUT"],
    ),
    # below 3^4 = 81 column tuples, so the digit proof stops short of base 9
    ("verify_half", 80, ["pipeline", "--name", "thm2_6", "--samples", "10"]),
    ("interlace_cells", 100, ["interlace", "--input", "Z22", "--k", "4", "--out", "OUT"]),
    ("exact_work", 99, ["density", "--pattern-exact", "--torus-coloring", "TORUS"]),
    ("u3_n", 64, ["gowers", "--input", "GRID", "--s", "3"]),
    ("pairing_k", 2, ["density", "--pattern-exact", "--torus-coloring", "TORUS"]),
    ("subset_k", 2, ["density", "--pattern-exact", "--torus-coloring", "TORUS"]),
]


def test_every_row_is_reached_by_the_cli():
    assert {case[0] for case in CLI_CASES} == set(BUDGETS)


@pytest.mark.parametrize("name,cap,argv", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_exits_2_naming_the_row(capsys, lower_budget, files, name, cap, argv):
    lower_budget(name, cap)
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        rf"error: (stage '[a-z-]+': )?budget {name} exceeded: needs \d+, cap {cap}\n", captured.err
    )
    assert not Path(files["OUT"]).exists()


def test_readme_table_matches_the_budgets():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| ([\d_]+) \| ([^|]+) \| ([^|]+) \|$", readme, re.M)
    table = {name: (int(cap), unit.strip(), bounds.strip()) for name, cap, unit, bounds in rows}
    assert table == {name: tuple(row) for name, row in BUDGETS.items()}
