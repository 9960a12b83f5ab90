from fractions import Fraction

import pytest

from flagkin.errors import SolveFailure
from flagkin.linalg import PRIME, SparseEchelon, column_rank, full_column_rank_mod_p, solve_unique

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


def test_mod_p_certifies_independent_columns():
    cols = [{0: F(1, 2), 1: F(1, 3)}, {1: F(1, 4)}, {0: F(2), 2: F(-7, 6)}]
    assert full_column_rank_mod_p(cols)
    assert column_rank(cols) == 3


def test_mod_p_dependent_columns_fall_back_to_echelon():
    cols = [{0: F(1), 1: F(2)}, {0: F(1, 2), 1: F(1)}]
    assert not full_column_rank_mod_p(cols)
    assert column_rank(cols) == 1
    assert not full_column_rank_mod_p([{}])
    assert column_rank([{}]) == 0


def test_dependent_only_mod_p_gets_the_rank_over_q():
    # (1, 1) and (1, 1 + p) are independent over Q but equal modulo p
    cols = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(1 + PRIME)}]
    assert not full_column_rank_mod_p(cols)
    assert column_rank(cols) == 2
    # the same after scaling: denominators cleared before reducing mod p
    cols = [{0: F(1, 3), 1: F(1, 3)}, {0: F(1, 5), 1: F(1 + PRIME, 5)}]
    assert not full_column_rank_mod_p(cols)
    assert column_rank(cols) == 2
