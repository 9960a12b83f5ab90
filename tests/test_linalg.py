from fractions import Fraction

import pytest

from flagkin.errors import SolveFailure
from flagkin.linalg import SparseEchelon, solve_unique

F = Fraction


def test_incremental_add():
    ech = SparseEchelon()
    assert ech.add({0: F(1)})
    assert not ech.add({0: F(5)})
    assert ech.add({1: F(1), 0: F(3)})
    assert ech.rank == 2


def test_solve_unique():
    cols = [{0: F(1), 1: F(1)}, {1: F(2)}]
    rhs = {0: F(3), 1: F(7)}
    assert solve_unique(cols, rhs) == [F(3), F(2)]


def test_solve_inconsistent():
    cols = [{0: F(1)}]
    with pytest.raises(SolveFailure):
        solve_unique(cols, {1: F(1)})


def test_solve_underdetermined():
    cols = [{0: F(1)}, {0: F(2)}]
    with pytest.raises(SolveFailure):
        solve_unique(cols, {0: F(1)})
