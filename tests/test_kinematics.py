import argparse
import contextlib
import io
import json
import math
import re
from fractions import Fraction

import pytest

from flagkin import kinematics
from flagkin.cli import (
    _render_tables,
    csv_rows,
    json_coefficient,
    latex_coefficient,
    main,
    table_to_csv,
    table_to_json,
    table_to_latex,
    table_to_text,
    text_coefficient,
)
from flagkin.errors import ExceptionalUnavailable, IndexOutOfRange
from flagkin.invariant_algebras import FlagContext
from flagkin.kinematics import (
    KinematicTable,
    closed_form_S,
    closed_form_phi,
    coproduct,
    coproduct_tables,
    hug_weil_coproduct,
)
from flagkin.measures import (
    PHI_EX,
    MeasureLabel,
    base_change,
    binom,
    phi_label,
    presented_dual,
    s_label,
    validate_label,
)
from flagkin.verify import (
    _suite_closed_forms,
    check_phi_closed_form,
    check_s_closed_form,
    verify_structure,
)


def test_coproduct_degree_one():
    ctx = FlagContext(5, 2)
    table = coproduct(ctx, phi_label(1, 0))
    assert table.unit == 5
    assert table.coefficient(phi_label(0, 0), phi_label(1, 0)) == (1, 1)
    assert table.coefficient(phi_label(1, 0), phi_label(0, 0)) == (1, 1)
    assert table.coefficient(phi_label(1, 0), phi_label(1, 0)) == (0, 1)
    assert len(table.terms) == 2


def test_coproduct_counit():
    ctx = FlagContext(5, 2)
    table = coproduct(ctx, s_label(0, 0), "S")
    assert table.terms == ((s_label(0, 0), s_label(0, 0), (1, 1)),)
    assert table.unit == 5


def test_coproduct_phi_ex():
    ctx = FlagContext(5, 2)
    table = coproduct(ctx, PHI_EX)
    assert table.coefficient(PHI_EX, phi_label(0, 0)) == (1, 1)
    assert table.coefficient(phi_label(0, 0), PHI_EX) == (1, 1)
    assert len(table.terms) == 2


@pytest.mark.parametrize(
    "label,family,named",
    [
        (s_label(2, 0), "Phi", "Phi"),
        (phi_label(2, 1), "S", "S"),
        (MeasureLabel("Sp", 1), None, "Phi"),
    ],
)
def test_coproduct_refuses_a_label_outside_the_family(label, family, named):
    # an Sp label defaults to the Phi family, where it is no basis label
    with pytest.raises(ValueError, match=re.escape(f"{label} is not a label of family '{named}'")):
        coproduct(FlagContext(5, 2), label, family)


def test_closed_form_phi_examples():
    ctx = FlagContext(5, 2)
    assert closed_form_phi(ctx, 1, 0)[phi_label(0, 0), phi_label(1, 0)] == (1, 1)
    assert closed_form_phi(ctx, 1, 0)[phi_label(1, 0), phi_label(0, 0)] == (1, 1)
    for k in range(5):
        for a in range(max(0, k - ctx.q), min(k, ctx.p) + 1):
            assert closed_form_phi(ctx, k, a)[phi_label(k, a), phi_label(0, 0)] == (1, 1)
    with pytest.raises(IndexOutOfRange):
        closed_form_phi(ctx, 2, 3)


def test_closed_form_S_counit():
    ctx = FlagContext(5, 2)
    assert closed_form_S(ctx, 0, 0) == {(s_label(0, 0), s_label(0, 0)): (1, 1)}
    for k in range(5):
        for i in range(ctx.m(k) + 1):
            terms = closed_form_S(ctx, k, i)
            assert terms[s_label(k, i), s_label(0, 0)] == (1, 1)
            assert terms[s_label(0, 0), s_label(k, i)] == (1, 1)
    with pytest.raises(IndexOutOfRange):
        closed_form_S(ctx, 2, 3)


@pytest.mark.parametrize("n,p", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 0), (6, 3)])
def test_tables_match_closed_forms(n, p):
    ctx = FlagContext(n, p)
    assert check_phi_closed_form(ctx) is None
    assert check_s_closed_form(ctx) is None


@pytest.mark.parametrize(
    "n,p",
    [(3, 1), (5, 2), (7, 3)],
)
def test_exceptional_corrections(n, p):
    ctx = FlagContext(n, p)
    top = coproduct(ctx, phi_label(n - 1, p), "Phi")
    ex = coproduct(ctx, PHI_EX, "Phi")
    corr = Fraction(*top.coefficient(PHI_EX, PHI_EX))
    assert corr == Fraction((-1) ** p * (p + 1), 2 ** (2 * p))
    assert corr == Fraction((-1) ** ((n - 1) // 2) * (n + 1), 2**n)
    assert ex.coefficient(PHI_EX, phi_label(0, 0)) == (1, 1)


def test_exceptional_unavailable():
    with pytest.raises(ExceptionalUnavailable):
        coproduct(FlagContext(4, 1), PHI_EX)


def test_n3_S_table_exceptional_value():
    # coefficient of the exceptional square in A(S[2,0]) for n=3 is -1/(2 omega_3)
    ctx = FlagContext(3, 1)
    table = coproduct(ctx, s_label(2, 0), "S")
    assert table.coefficient(PHI_EX, PHI_EX) == (-1, 2)
    assert table.unit == 3


@pytest.mark.parametrize("n,p", [(3, 1), (5, 2)])
def test_S_top_table_equals_phi_top_table(n, p):
    # S[n-1,0] = Phi[n-1,p], so the two tables agree after base change
    ctx = FlagContext(n, p)
    phi_table = coproduct(ctx, phi_label(n - 1, p), "Phi")
    s_table = coproduct(ctx, s_label(n - 1, 0), "S")

    def in_phi(label):
        # an S label expands by its row of the base change; PhiEx is in both bases
        if label.kind != "S":
            return [(label, 1)]
        B, _, c = base_change(ctx, label.k)
        row = [Fraction(*c[label.idx]) * e for e in B[label.idx]]
        return [(phi_label(label.k, a), c) for a, c in zip(ctx.phi_indices(label.k), row)]

    converted: dict = {}
    for left, right, c in s_table.terms:
        for ll, fl in in_phi(left):
            for rl, fr in in_phi(right):
                key = (ll, rl)
                converted[key] = converted.get(key, 0) + Fraction(*c) * fl * fr
    converted = {k: v for k, v in converted.items() if v}
    want = {(l, r): Fraction(*c) for l, r, c in phi_table.terms}
    assert converted == want


@pytest.mark.parametrize("n,p", [(2, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 3)])
def test_structure_report(n, p):
    assert verify_structure(FlagContext(n, p)) is None


def test_cocommutativity_reports_the_first_asymmetric_term(monkeypatch):
    # S[1,1] (x) S[1,0] of A(S[2,0]) altered from 2 to 3: the mirror term
    # S[1,0] (x) S[1,1] comes first in print order and is reported
    ctx = FlagContext(4, 1)
    tables = coproduct_tables(ctx, "S")
    table = tables[s_label(2, 0)]
    altered = tuple(
        (l, r, (3, 1) if (l, r) == (s_label(1, 1), s_label(1, 0)) else c)
        for l, r, c in table.terms
    )
    assert altered != table.terms
    monkeypatch.setitem(tables, table.input, KinematicTable(ctx, table.input, "S", altered))
    assert verify_structure(ctx) == "cocommutativity[S]: A(S[2,0]) at S[1,0] (x) S[1,1]"


@pytest.mark.parametrize("n,p", [(8, 3), (7, 3)])
def test_a_sweep_builds_each_dual_once(monkeypatch, n, p):
    # (7, 3) is exceptional: PhiEx joins both families in the middle degree
    built = []

    def recorder(ctx, label):
        built.append(label)
        return presented_dual(ctx, label)

    monkeypatch.setattr(kinematics, "presented_dual", recorder)
    ctx = FlagContext(n, p)
    for family in ("Phi", "S"):
        built.clear()
        coproduct_tables.cache_clear()
        try:
            tables = coproduct_tables(ctx, family)
        finally:
            coproduct_tables.cache_clear()
        assert built == list(tables), (family, len(built), len(tables))


@pytest.mark.parametrize("n,p", [(8, 3), (7, 3)])
def test_closed_form_agreement_builds_each_closed_form_table_once(monkeypatch, n, p):
    # (7, 3) is exceptional: PhiEx is an input of both families, with no closed form
    validated, built = [], []

    def validator(ctx, label):
        validated.append(label)
        return validate_label(ctx, label)

    def recorder(name):
        closed_form = getattr(kinematics, name)

        def record(ctx, k, idx):
            built.append((name, k, idx))
            return closed_form(ctx, k, idx)

        return record

    monkeypatch.setattr(kinematics, "validate_label", validator)
    for name in ("closed_form_phi", "closed_form_S"):
        monkeypatch.setattr(kinematics, name, recorder(name))
    ctx = FlagContext(n, p)
    assert _suite_closed_forms(ctx) is None
    inputs = {
        name: [label for label in coproduct_tables(ctx, family) if label.kind == family]
        for name, family in (("closed_form_phi", "Phi"), ("closed_form_S", "S"))
    }
    assert built == [(name, l.k, l.idx) for name, labels in inputs.items() for l in labels]
    # and the Sp check validates the input Phi[k,0] of each Sp[k] table it derives
    sp_bases = [phi_label(k, 0) for k in range(n - p)]
    assert validated == inputs["closed_form_phi"] + inputs["closed_form_S"] + sp_bases


@pytest.mark.parametrize("n", range(2, 12))
def test_phi_tables_are_invariant_under_complement_duality(n):
    # (v, E) -> (v, v + E^perp) takes the (n, p) flag manifold to the
    # (n, n-1-p) one and swaps x and y, so it maps Phi[k,a] to Phi[k,k-a]
    # and fixes PhiEx: the Phi tables of p and n-1-p agree under that map
    def mirror(label):
        return label if label == PHI_EX else phi_label(label.k, label.k - label.idx)

    def terms(tables, rename):
        return {
            rename(label): {(rename(l), rename(r)): c for l, r, c in table.terms}
            for label, table in tables.items()
        }

    for p in range(n):
        dual = coproduct_tables(FlagContext(n, n - 1 - p), "Phi")
        want = terms(dual, lambda label: label)
        assert terms(coproduct_tables(FlagContext(n, p), "Phi"), mirror) == want, (n, p)


def test_globalized_area_formula_middle_coefficient():
    ctx = FlagContext(4, 1)
    table = coproduct(ctx, s_label(2, 0), "S")
    # S labels push forward with factor 1: the S[1,*] (x) S[1,*] terms sum to C(2, 1)
    middle = sum(Fraction(*c) for l, r, c in table.terms if l.k == r.k == 1)
    assert middle == 2


def test_hug_weil_tables():
    ctx = FlagContext(4, 1)
    hw = lambda k: MeasureLabel("Sp", k)
    t0 = hug_weil_coproduct(ctx, 0)
    assert t0.terms == ((hw(0), hw(0), (1, 1)),)
    assert t0.unit == 3
    t1 = hug_weil_coproduct(ctx, 1)
    assert t1.coefficient(hw(0), hw(1)) == (1, 1)
    assert t1.coefficient(hw(1), hw(0)) == (1, 1)
    t2 = hug_weil_coproduct(ctx, 2)
    assert t2.coefficient(hw(1), hw(1)) == (2, 1)


@pytest.mark.parametrize("n,p", [(4, 0), (4, 1), (5, 1), (5, 2), (6, 2)])
def test_hug_weil_binomial_everywhere(n, p):
    ctx = FlagContext(n, p)
    for k in range(n - p):
        table = hug_weil_coproduct(ctx, k)
        for j in range(k + 1):
            got = table.coefficient(MeasureLabel("Sp", j), MeasureLabel("Sp", k - j))
            assert got == (binom(k, j), 1), (n, p, k, j)


def _is_nonzero_ratio(c):
    """Is c a (num, den) pair of ints in lowest terms, with num != 0 and den > 0?"""
    num, den = c
    return type(num) is int and type(den) is int and num != 0 and den > 0 and math.gcd(num, den) == 1


def _print_key(ctx, label):
    """The print order of labels: by degree, PhiEx after the others of its degree, then by index."""
    return (label.degree(ctx), label.kind == "PhiEx", label.idx)


@pytest.mark.parametrize("n", range(2, 11))
def test_terms_are_built_in_print_order_without_zeros(n):
    for p in range(n):
        ctx = FlagContext(n, p)
        tables = [*coproduct_tables(ctx, "Phi").values(), *coproduct_tables(ctx, "S").values()]
        tables += [hug_weil_coproduct(ctx, k) for k in range(n - p)]
        for table in tables:
            keys = [(_print_key(ctx, l), _print_key(ctx, r)) for l, r, _ in table.terms]
            assert all(a < b for a, b in zip(keys, keys[1:])), (n, p, table.input)
            assert all(_is_nonzero_ratio(c) for _, _, c in table.terms), (n, p, table.input)


def _reference_coefficient(m, c):
    return {"num": c[0], "den": c[1], "units": [{"sym": f"omega({m})", "exp": -1}]}


def _reference_json(table):
    """The table as a dict, for json.dumps to print: what the template must reproduce."""
    m = table.unit
    terms = [
        {"left": l.to_text(), "right": r.to_text(), "coeff": _reference_coefficient(m, c)}
        for l, r, c in table.terms
    ]
    return {
        "schema": "flagkin/table/v1",
        "n": table.ctx.n,
        "p": table.ctx.p,
        "input": table.input.to_text(),
        "terms": terms,
    }


def test_table_renderings_deterministic():
    ctx = FlagContext(4, 1)
    table = coproduct(ctx, s_label(1, 0), "S")
    blob = table_to_json(table)
    assert table_to_json(table) == blob == json.dumps(_reference_json(table), indent=2)
    data = json.loads(blob)
    assert data["schema"] == "flagkin/table/v1"
    assert data["input"] == "S[1,0]"
    csv = table_to_csv(table)
    assert csv.splitlines()[0] == "left,right,num,den,units"
    assert "S[0,0],S[1,0],1,1,omega(4)^-1" in csv
    tex = table_to_latex(table)
    assert "\\omega_{4}^{-1}" in tex and "\\begin{tabular}" in tex


def _json_requests(n):
    """Every table of n in both families and --hug-weil: (argv, tables) per p and kind."""
    for p in range(n):
        ctx = FlagContext(n, p)
        head = ["table", "--n", str(n), "--p", str(p), "--format", "json"]
        for basis in ("Phi", "S"):
            yield [*head, "--basis", basis], list(coproduct_tables(ctx, basis).values())
        yield [*head, "--hug-weil"], [hug_weil_coproduct(ctx, k) for k in range(n - p)]


@pytest.mark.parametrize("n", range(2, 9))
def test_json_template_matches_the_encoder(n):
    # the template prints what json.dumps(indent=2) prints for the
    # reference dicts, as a single table (coproduct) and as a sweep (table)
    for argv, tables in _json_requests(n):
        for table in tables:
            single = "".join(_render_tables(argparse.Namespace(format="json"), [table], False))
            assert single == json.dumps(_reference_json(table), indent=2) + "\n", argv
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        sweep = {
            "schema": "flagkin/tables/v1",
            "n": n,
            "p": tables[0].ctx.p,
            "tables": [_reference_json(t) for t in tables],
        }
        assert out.getvalue() == json.dumps(sweep, indent=2) + "\n", argv


@pytest.mark.parametrize(
    "table,left,right,text,latex,csv,num,den,m",
    [
        # an S table, in omega_n^-1: a negative non-integer coefficient
        (
            coproduct(FlagContext(4, 2), s_label(2, 0), "S"),
            s_label(1, 1), s_label(1, 1),
            "-1/2 * omega(4)^-1", "-\\frac{1}{2}\\omega_{4}^{-1}", "S[1,1],S[1,1],-1,2,omega(4)^-1",
            -1, 2, 4,
        ),
        # an Sp table at (5, 1), in omega_{n-p}^-1: an integer coefficient
        (
            hug_weil_coproduct(FlagContext(5, 1), 2),
            MeasureLabel("Sp", 1), MeasureLabel("Sp", 1),
            "2/1 * omega(4)^-1", "2\\omega_{4}^{-1}", "Sp[1],Sp[1],2,1,omega(4)^-1",
            2, 1, 4,
        ),
    ],
    ids=["S-negative-fraction", "Sp-integer"],
)
def test_coefficient_formatters(table, left, right, text, latex, csv, num, den, m):
    c = table.coefficient(left, right)
    assert c == (num, den) and table.unit == m
    units = [{"sym": f"omega({m})", "exp": -1}]
    assert text_coefficient(m)(c) == text
    reference = {"num": num, "den": den, "units": units}
    assert json_coefficient(m, "")(c) == json.dumps(reference, indent=2)
    assert latex_coefficient(m)(c) == latex
    # each rendering of the table prints the coefficient in its format
    assert f"  {left} (x) {right}  :  {text}" in table_to_text(table).splitlines()
    term = {"left": str(left), "right": str(right), "coeff": reference}
    assert term in json.loads(table_to_json(table))["terms"]
    assert any(line.endswith(f" & {latex} \\\\") for line in table_to_latex(table).splitlines())
    assert csv in csv_rows(table)


def test_every_coefficient_carries_inverse_omega():
    # Phi and S tables share omega_n^-1; the rescaled Sp tables carry
    # omega_{n-p}^-1, which is the same unit at p = 0
    for n, p in ((n, p) for n in range(2, 7) for p in range(n)):
        ctx = FlagContext(n, p)
        phi_and_s = [t for family in ("Phi", "S") for t in coproduct_tables(ctx, family).values()]
        rescaled = [hug_weil_coproduct(ctx, k) for k in range(n - p)]
        for tables, m in ((phi_and_s, n), (rescaled, n - p)):
            for table in tables:
                assert table.unit == m, (n, p, table.input)
                assert all(_is_nonzero_ratio(c) for _, _, c in table.terms)
                for row in csv_rows(table):
                    assert row.endswith(f",omega({m})^-1"), (n, p, row)
