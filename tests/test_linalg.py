from fractions import Fraction

from flagkin.linalg import PRIME, SparseEchelon, certified_rank

F = Fraction


def test_incremental_add():
    ech = SparseEchelon()
    assert ech.add({0: F(1)})
    assert not ech.add({0: F(5)})
    assert ech.add({1: F(1), 0: F(3)})
    assert ech.rank == 2


def test_mod_p_certifies_independent_columns():
    rows = [{0: 3, 1: 2}, {1: 4}, {0: 12, 2: -7}]
    assert certified_rank(rows) == 3


def test_mod_p_dependent_columns_are_not_certified():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}]
    assert certified_rank(rows) is None
    assert _echelon_rank(rows) == 1
    assert certified_rank([{}]) is None
    assert _echelon_rank([{}]) == 0


def test_dependent_only_mod_p_gets_the_rank_over_q():
    # (1, 1) and (1, 1 + p) are independent over Q but equal modulo p
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + PRIME}]
    assert certified_rank(rows) is None
    assert _echelon_rank(rows) == 2


def test_echelon_and_solve_stay_exact_on_int_rows():
    ech = SparseEchelon()
    assert ech.add({0: 2, 1: 3})
    assert ech.pivots == {0: {0: F(1), 1: F(3, 2)}}
    assert all(type(v) is Fraction for v in ech.pivots[0].values())
    rest = ech.reduce({0: 3, 1: 1})
    assert rest == {1: F(-7, 2)}
    assert all(type(v) is Fraction for v in rest.values())


def test_reduce_clears_fill_in_after_its_own_columns():
    # no back-elimination: the pivot row at 0 keeps its entry in pivot column 1,
    # so reducing e_0 fills in column 1, which must be cleared too
    ech = SparseEchelon()
    assert ech.add({0: 1, 1: 1}) and ech.add({1: 1})
    assert ech.pivots == {0: {0: F(1), 1: F(1)}, 1: {1: F(1)}}
    assert ech.reduce({0: 1}) == {}
    assert ech.reduce({0: 2, 2: 5}) == {2: F(5)}
    assert not ech.add({0: 4, 1: -3})


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
        want = len(cols) if _echelon_rank(cols) == len(cols) else None
        assert certified_rank(cols) == want, cols
        assert certified_rank(iter(cols)) == want, cols
        assert certified_rank(dict(c) for c in cols) == want, cols


def test_certificate_leaves_its_columns_unchanged():
    cols = [{0: 1, 1: 1}, {0: 1, 2: 1}, {0: 2, 1: 2}]
    before = [dict(c) for c in cols]
    assert certified_rank(cols) is None
    assert cols == before


def test_certificate_skips_a_leading_entry_divisible_by_p():
    # PRIME * e_0 + e_1 reduces to e_1 modulo p
    assert certified_rank([{0: PRIME, 1: 1}, {0: 1}]) == 2
    assert certified_rank([{0: PRIME, 1: 1}, {1: 1}]) is None
    assert _echelon_rank([{0: PRIME, 1: 1}, {1: 1}]) == 2


def _echelon_rank(columns):
    ech = SparseEchelon()
    for col in columns:
        ech.add(col)
    return ech.rank
