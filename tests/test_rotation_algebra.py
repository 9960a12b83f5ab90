import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from flagkin import linalg
from flagkin.errors import BadIndexSet, DimensionMismatch, FlagkinError, IndexOutOfRange
from flagkin.exterior import Multivector, omega1, sigma, wedge
from flagkin.grassmann_oracle import dalpha, generator, rotation_measure_rep
from flagkin.invariant_algebras import FlagContext
from flagkin.linalg import SparseEchelon, certified_rank
from flagkin import rotation_algebra
from flagkin.rotation_algebra import (
    _chord_columns,
    _chord_index_sets,
    _chord_lead,
    _chord_row,
    _dalpha_image_columns,
    _dalpha_rows,
    _dalpha_wedge,
    _relation_sum,
    chord_basis,
    chord_count,
    chord_text,
    graded_dimension,
    narayana,
    rotation_relation_check,
    rotation_space_dimension,
)
from flagkin.verify import _suite_ideal

from oracle_reference import determinant, elementary_symmetric, monomial


def _chord_rows(n, k):
    """_chord_row of each chord monomial of degree k, in chord_basis order, built on demand."""
    return (_chord_row(diag, matching) for diag, matching in _chord_index_sets(n, k))


def test_generator_diagonal():
    assert generator(4, 2, 2).body == wedge(sigma(2), omega1(2))


def test_generator_symmetry():
    assert generator(4, 2, 3) == generator(4, 3, 2)


def test_generator_bounds():
    with pytest.raises(IndexOutOfRange):
        generator(3, 2, 4)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        generator(4, 2, 3) * generator(5, 2, 3)


def test_square_straightens_to_diagonal():
    x23 = generator(4, 2, 3)
    assert x23 * x23 == (generator(4, 2, 2) * generator(4, 3, 3)).smul(Fraction(-1, 2))


def test_plucker_relation():
    g = lambda i, j: generator(5, i, j)
    total = g(2, 3) * g(4, 5) + g(2, 4) * g(3, 5) + g(2, 5) * g(3, 4)
    assert total.is_zero()


def test_repeated_index_vanishing():
    assert (generator(4, 2, 2) * generator(4, 2, 3)).is_zero()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_triple_index_vanishing(n):
    for a in range(2, n + 1):
        for b1, b2, b3 in itertools.product(range(2, n + 1), repeat=3):
            m = monomial(n, [(a, b1), (a, b2), (a, b3)])
            assert m.is_zero(), (a, b1, b2, b3)


def test_ideal_exhaustive_small():
    for n in (3, 4, 5):
        for i, j, k, l in itertools.product(range(2, n + 1), repeat=4):
            total = (
                generator(n, i, j) * generator(n, k, l)
                + generator(n, i, k) * generator(n, j, l)
                + generator(n, i, l) * generator(n, j, k)
            )
            assert total.is_zero(), (n, i, j, k, l)


def test_ideal_exhaustive_large():
    for n in (7, 8, 9, 10):
        assert _suite_ideal(FlagContext(n, 0)) is None, n


def test_chord_basis_n3_k1():
    basis = chord_basis(3, 1)
    assert basis == (((2,), ()), ((3,), ()), ((), ((2, 3),)))
    assert [chord_text(*m) for m in basis] == ["D{2}M{}", "D{3}M{}", "D{}M{(2,3)}"]


def test_chord_basis_top_degree():
    assert chord_basis(4, 3) == (((2, 3, 4), ()),)


def test_chord_basis_count_n5_k2():
    assert len(chord_basis(5, 2)) == 20 == narayana(5, 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_chord_count_matches_narayana(n):
    for k in range(n):
        assert len(chord_basis(n, k)) == chord_count(n, k) == narayana(n, k)


def test_chord_monomial_validation():
    # every basis monomial has ascending diagonals, ascending chords (a, b)
    # with a < b, no shared endpoint inside 2..n and no crossing
    for n in range(2, 9):
        for k in range(n):
            for diagonals, matching in chord_basis(n, k):
                assert list(diagonals) == sorted(diagonals)
                assert list(matching) == sorted(matching)
                assert all(a < b for a, b in matching)
                support = list(diagonals) + [v for chord in matching for v in chord]
                assert len(set(support)) == len(support) == k + len(matching)
                assert set(support) <= set(range(2, n + 1))
                for (a, b), (c, d) in itertools.combinations(matching, 2):
                    assert not (a < c < b < d or c < a < d < b), (n, matching)
    assert chord_text((2, 5), ((3, 4), (6, 7))) == "D{2,5}M{(3,4)(6,7)}"


def test_coordinates_of_square():
    sq = generator(4, 2, 3) ** 2
    assert sq == monomial(4, [(2, 2), (3, 3)]).smul(Fraction(-1, 2))


def test_coordinates_of_basis_element():
    assert ((), ((2, 3),)) in chord_basis(5, 1)
    assert generator(5, 2, 3) == monomial(5, [(2, 3)])


def test_coordinates_straightening():
    # x24 x35 = -x23 x45 - x25 x34 by the crossing relation
    e = generator(5, 2, 4) * generator(5, 3, 5)
    a, b = ((2, 3), (4, 5)), ((2, 5), (3, 4))
    assert ((), a) in chord_basis(5, 2) and ((), b) in chord_basis(5, 2)
    assert e == -(monomial(5, a) + monomial(5, b))


@pytest.mark.parametrize("n", range(2, 11))
def test_graded_dimension(n):
    # The leads certificate against the rank certificate of the streamed rows.
    for k in range(n):
        assert graded_dimension(n, k) == certified_rank(_chord_rows(n, k)) == narayana(n, k), (n, k)


def test_graded_dimension_examples():
    assert graded_dimension(4, 1) == 6
    assert graded_dimension(4, 0) == 1
    assert narayana(7, 3) == 175 == graded_dimension(7, 3)


@pytest.mark.parametrize("n", range(2, 11))
def test_chord_lead_is_the_row_minimum(n):
    for k in range(n):
        for diag, matching in _chord_index_sets(n, k):
            row = _chord_row(diag, matching)
            lead = _chord_lead(diag, matching)
            assert lead == min(row) and abs(row[lead]) == 1, (n, chord_text(diag, matching))


def test_graded_dimension_calls_no_rank_routine(monkeypatch):
    def refuse(*args):
        raise AssertionError("rank routine called")

    monkeypatch.setattr(linalg, "certified_rank", refuse)
    monkeypatch.setattr(rotation_algebra, "_chord_row", refuse)
    assert [graded_dimension(9, k) for k in range(9)] == [narayana(9, k) for k in range(9)]


def test_colliding_leads_raise_naming_n_and_k(monkeypatch):
    monkeypatch.setattr(rotation_algebra, "_chord_lead", lambda diag, matching: 0)
    assert graded_dimension(3, 0) == 1
    with pytest.raises(FlagkinError, match=r"n=3, k=1"):
        graded_dimension(3, 1)


@pytest.mark.parametrize("n", range(2, 11))
def test_rotation_space_dimension(n):
    # Wedge-by-dalpha is injective: the certificate decides, and proves every row independent.
    for k in range(n):
        rank = certified_rank(_dalpha_rows(n, k))
        assert rank is not None, (n, k)
        want = narayana(n, k)
        assert comb(n - 1, k) ** 2 - rank == want == rotation_space_dimension(n, k), (n, k)


def test_rotation_space_dimension_examples():
    assert rotation_space_dimension(3, 1) == 3
    assert rotation_space_dimension(4, 2) == 6
    assert rotation_space_dimension(2, 0) == 1


def test_rotation_relation_symmetry_case():
    # k=1, I'=(), J'=(2,3): encodes S_{2,3} = S_{3,2}
    assert rotation_relation_check(3, (), (2, 3))
    assert rotation_relation_check(4, (2,), (2, 3, 4))


@pytest.mark.parametrize("n", range(3, 7))
def test_rotation_relations_exhaustive(n):
    # Every ordering of I' and J': an unsorted one multiplies the alternating
    # sum by the sign of its permutation, which the +-witness comparison absorbs.
    idx = range(2, n + 1)
    for k in range(1, n - 1):
        for ip in itertools.permutations(idx, k - 1):
            for jp in itertools.permutations(idx, k + 1):
                assert rotation_relation_check(n, ip, jp), (n, ip, jp)


@pytest.mark.parametrize("n", range(2, 9))
def test_chord_columns_match_evaluate(n):
    for k in range(n):
        for (diag, matching), col in zip(chord_basis(n, k), _chord_columns(n, k), strict=True):
            pairs = [(d, d) for d in diag] + list(matching)
            assert col == dict(monomial(n, pairs).body.terms()), (n, chord_text(diag, matching))


@pytest.mark.parametrize("n", range(2, 11))
def test_chord_row_is_the_monomial_form(n):
    # The convolution suite reads each chord monomial's form off its row.
    for k in range(n):
        for diag, matching in _chord_index_sets(n, k):
            body = monomial(n, [(d, d) for d in diag] + list(matching)).body
            want = (_chord_row(diag, matching), 1 << len(matching))
            assert (body.row, body.den) == want, (n, chord_text(diag, matching))


@pytest.mark.parametrize("n", range(2, 9))
def test_dalpha_image_columns_match_wedge(n):
    idx = range(2, n + 1)
    for k in range(1, n - 1):
        want = []
        for sig in itertools.combinations(idx, k - 1):
            for om in itertools.combinations(idx, n - 2 - k):
                blade = sum(1 << i for i in sig) << 32 | sum(1 << j for j in om)
                img = dalpha(n).wedge(Multivector({blade: 1}))
                if img:
                    want.append(img.row)
        assert list(_dalpha_image_columns(n, k)) == want, (n, k)


def _echelon_rank(columns):
    ech = SparseEchelon()
    for col in columns:
        ech.add(col)
    return ech.rank


@pytest.mark.parametrize("n", range(2, 9))
def test_mod_p_certificate_matches_echelon(n):
    for k in range(n):
        for rows in (list(_chord_rows(n, k)), list(_dalpha_rows(n, k))):
            assert certified_rank(rows) == len(rows) == _echelon_rank(rows), (n, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_streamed_rows_match_the_cached_columns(n):
    for k in range(n):
        rows = list(_chord_rows(n, k))
        scales = [1 << len(matching) for _, matching in chord_basis(n, k)]
        cols = zip(_chord_columns(n, k), scales, strict=True)
        want = [{key: v * s for key, v in col.items()} for col, s in cols]
        assert rows == want, (n, k)
        assert {type(v) for row in rows for v in row.values()} == {int}
        assert {abs(v) for row in rows for v in row.values()} == {1}
        dalpha_rows = list(_dalpha_rows(n, k))
        assert dalpha_rows == list(_dalpha_image_columns(n, k)), (n, k)
        assert all(type(v) is int and abs(v) == 1 for row in dalpha_rows for v in row.values())
        for stream in (_chord_rows, _dalpha_rows):
            certified = certified_rank(stream(n, k))
            assert certified == certified_rank(list(stream(n, k))) == len(list(stream(n, k)))


def test_dimensions_build_no_basis_records_or_columns(monkeypatch):
    def refuse(*args):
        raise AssertionError("chord basis built")

    monkeypatch.setattr(rotation_algebra, "chord_basis", refuse)
    cached = (_chord_columns, _dalpha_image_columns)
    for fn in cached:
        fn.cache_clear()
    for k in range(8):
        assert graded_dimension(8, k) == narayana(8, k) == rotation_space_dimension(8, k)
    assert [fn.cache_info().currsize for fn in cached] == [0, 0]


def test_undecided_dalpha_certificate_is_a_one_line_failure(monkeypatch, capsys):
    from flagkin.cli import main

    monkeypatch.setattr(linalg, "certified_rank", lambda rows: None)
    with pytest.raises(FlagkinError, match=r"^dalpha rank certificate undecided at n=5, k=2$"):
        rotation_space_dimension(5, 2)
    assert main(["verify", "--n", "4", "--p", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == "" and "  [FAIL] dimensions" in out.splitlines()
    assert out.endswith(
        "first counterexample: dimensions: dalpha rank certificate undecided at n=4, k=0\n"
    )


def _rep_sum(n, ip, jp):
    """The alternating sum of representatives, added up as multivectors."""
    total = Multivector.zero()
    for l in range(1, len(jp) + 1):
        rep = rotation_measure_rep(n, ip + (jp[l - 1],), jp[: l - 1] + jp[l:])
        total = total + (rep if l % 2 == 0 else -rep)
    return total


@pytest.mark.parametrize("n", range(3, 8))
def test_relation_witness_matches_echelon(n):
    idx = range(2, n + 1)
    for k in range(1, n - 1):
        ech = SparseEchelon()
        for row in _dalpha_rows(n, k):
            ech.add(row)
        for ip in itertools.combinations(idx, k - 1):
            for jp in itertools.combinations(idx, k + 1):
                imask, jmask = sum(1 << i for i in ip), sum(1 << j for j in jp)
                total = _relation_sum(n, imask, jmask)
                assert total == _rep_sum(n, ip, jp).row, (ip, jp)
                witness = _dalpha_wedge(n, imask, sum(1 << v for v in idx if v not in jp))
                negated = {key: -c for key, c in witness.items()}
                by_witness = total in (witness, negated)
                by_echelon = not ech.reduce(total)
                assert by_witness and by_echelon, (n, ip, jp)


def test_rotation_rep_antisymmetry():
    assert rotation_measure_rep(4, (3, 2), (2, 3)) == -rotation_measure_rep(4, (2, 3), (2, 3))
    # antisymmetry in J through the completion sign
    assert rotation_measure_rep(4, (2, 3), (3, 2)) == -rotation_measure_rep(4, (2, 3), (2, 3))


def _wedge_built_rep(n, I, J):
    """sigma_I ^ omega_{J^c,1} wedged factor by factor, times the J sign."""
    if len(set(J)) != len(J):
        return Multivector.zero()
    comp = tuple(v for v in range(2, n + 1) if v not in J)
    seq = J + comp
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])
    factors = [sigma(i) for i in I] + [omega1(j) for j in comp]
    return wedge(*factors).smul(Fraction((-1) ** inversions))


@pytest.mark.parametrize("n", range(2, 7))
def test_rotation_rep_matches_wedge_built(n):
    idx = range(2, n + 1)
    for k in range(n):
        # every ordering of I; every ordering of J up to n = 5, both
        # monotone orderings at n = 6; and a repeated index on either side
        repeated = [(2,) * k] * (k >= 2)
        I_seqs = list(itertools.permutations(idx, k)) + repeated
        if n <= 5:
            J_seqs = list(itertools.permutations(idx, k)) + repeated
        else:
            J_seqs = [o for c in itertools.combinations(idx, k) for o in (c, c[::-1])] + repeated
        for I in I_seqs:
            for J in J_seqs:
                want = _wedge_built_rep(n, I, J)
                assert rotation_measure_rep(n, I, J) == want, (n, I, J)


def test_rotation_bad_index_sets():
    with pytest.raises(BadIndexSet):
        rotation_relation_check(4, (2, 3), (2, 3))  # |I'| != |J'|-1
    with pytest.raises(BadIndexSet):
        rotation_relation_check(4, (), (2, 7))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_determinant_identity(n):
    entries = [[generator(n, i, j) for j in range(2, n + 1)] for i in range(2, n + 1)]
    diag = monomial(n, [(d, d) for d in range(2, n + 1)])
    assert determinant(entries) == diag.smul(Fraction(factorial(n), 2 ** (n - 1)))


@pytest.mark.parametrize("n", range(2, 9))
def test_elementary_symmetric_identity(n):
    E = lambda i: elementary_symmetric(n, range(2, n + 1), i)
    for i in range(n):
        for j in range(n - i):
            assert E(i) * E(j) == E(i + j).smul(Fraction(comb(i + j, i))), (n, i, j)


def test_multiply_commutative_associative():
    n = 5
    gens = [generator(n, i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
    chords = [monomial(n, [(d, d) for d in diag] + list(m)) for diag, m in chord_basis(n, 2)]
    assert (len(gens), len(chords)) == (10, 20)
    for a, b in itertools.product(gens, repeat=2):
        assert a * b == b * a
        for c in chords:
            assert (a * b) * c == a * (b * c)
