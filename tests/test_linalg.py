from fractions import Fraction

import pytest

from flagkin.errors import SolveFailure
from flagkin.linalg import (
    PRIME,
    SparseEchelon,
    certified_rank,
    column_rank,
    full_column_rank_mod_p,
    solve_unique,
)

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


def test_echelon_and_solve_stay_exact_on_int_rows():
    ech = SparseEchelon()
    assert ech.add({0: 2, 1: 3})
    assert ech.pivots == {0: {0: F(1), 1: F(3, 2)}}
    assert all(type(v) is Fraction for v in ech.pivots[0].values())
    sol = solve_unique([{0: 3}, {1: 1}], {0: 1, 1: 2})
    assert sol == [F(1, 3), F(2)]
    assert all(type(v) is Fraction for v in sol)


def test_certificate_reads_a_stream_like_a_list():
    cases = [
        [{0: 1, 1: 1}, {0: 1, 2: 1}],  # colliding leads, independent
        [{0: 1, 1: 1}, {0: 2, 1: 2}],  # colliding leads, dependent
        [{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: -1}],  # dependent after two steps
        [{0: -1, 3: 1}, {0: 1}, {3: 7}],  # negative leads
        [{}],
        [],
    ]
    for cols in cases:
        want = _echelon_rank(cols) == len(cols)
        assert full_column_rank_mod_p(cols) == want, cols
        assert full_column_rank_mod_p(iter(cols)) == want, cols
        assert full_column_rank_mod_p(dict(c) for c in cols) == want, cols
        assert certified_rank(iter(cols)) == (len(cols) if want else None), cols


def test_certificate_leaves_its_columns_unchanged():
    cols = [{0: 1, 1: 1}, {0: 1, 2: 1}, {0: 2, 1: 2}]
    before = [dict(c) for c in cols]
    assert not full_column_rank_mod_p(cols)
    assert cols == before


def test_certificate_takes_fractions_with_denominator_one():
    # pow(Fraction(2), -1, p) raises: such entries become ints first
    cols = [{0: F(2), 1: F(3)}, {1: F(5)}, {0: 1, 2: F(1, 2)}]
    assert full_column_rank_mod_p(cols)
    assert full_column_rank_mod_p(iter(cols))
    assert not full_column_rank_mod_p([{0: F(2), 1: F(3)}, {0: F(4), 1: F(6)}])


def test_certificate_skips_a_leading_entry_divisible_by_p():
    # PRIME * e_0 + e_1 reduces to e_1 modulo p
    assert full_column_rank_mod_p([{0: PRIME, 1: 1}, {0: 1}])
    assert not full_column_rank_mod_p([{0: PRIME, 1: 1}, {1: 1}])
    assert column_rank([{0: PRIME, 1: 1}, {1: 1}]) == 2


def test_column_rank_falls_back_to_the_exact_columns():
    # (1, 1) and (1, 1 + p) stream in as one pass; exact() gives them again
    cols = [{0: 1, 1: 1}, {0: 1, 1: 1 + PRIME}]
    assert column_rank(iter(cols), lambda: cols) == 2
    assert column_rank(iter(cols[:1]), lambda: cols[:1]) == 1


def _echelon_rank(columns):
    ech = SparseEchelon()
    for col in columns:
        ech.add(col)
    return ech.rank
