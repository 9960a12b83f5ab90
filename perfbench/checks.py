"""Output checks for flagkin requests that use no flagkin code.

Every expected value is computed here from the paper's formulas with
``fractions`` and ``math.comb``:

* Phi-basis coefficients from the closed form
  c^{k,a}_{j,b} = C(q-k+j+a-b, j-b) C(p-a+b, b) / (C(q, j-b) C(p, b)),
  times omega(n)^-1.
* S-basis coefficients by the base change S_{k,i} = sum_a M_k[i][a] Phi_{k,a}
  with M_k[i][a] = c_{n,k,p,i} C(m'_k - a, i); the duals transform by the
  inverse transpose.  S tables are also checked for cocommutativity, the
  counit and globalization.
* Terms with the exceptional measure (odd n, p = q) from the flag algebra
  relations u x = u y = 0 and u^2 = (-1)^p (p+1) / 4^p x^p y^p, with
  PhiEx* = (-1)^p u / (omega(n) p!) and x^p y^p = omega(n) p!^2 Phi*_{n-1,p}.
* ``dim --n N`` rows against the Narayana numbers C(N,k) C(N,k+1) / N.
* ``verify`` against an ``[ok]`` line for each of the nine suites.

A label is a tuple: ``("Phi", k, a)``, ``("S", k, i)`` or ``("PhiEx",)``.
Coefficients are compared in units of omega(n)^-1.  Each
``check_*`` function returns a list of error strings, empty when the output
is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import comb

PHI_EX = ("PhiEx",)

VERIFY_SUITE_NAMES = (
    "dimensions",
    "ideal identities",
    "base changes",
    "flag algebra relations",
    "rotation relations",
    "closed-form agreement",
    "structural laws",
    "convolution cross-check",
    "oracle pairings",
)


def C(m: int, r: int) -> int:
    """Binomial coefficient, zero outside 0 <= r <= m."""
    if m < 0 or r < 0 or r > m:
        return 0
    return comb(m, r)


def narayana(n: int, k: int) -> int:
    return C(n, k) * C(n, k + 1) // n


# -- labels ------------------------------------------------------------------


def _m(n: int, p: int, k: int) -> int:
    return min(p, n - 1 - p, k, n - 1 - k)


def phi_range(n: int, p: int, k: int) -> range:
    return range(max(0, k - (n - 1 - p)), min(k, p) + 1)


def exceptional(n: int, p: int) -> bool:
    return n % 2 == 1 and p == n - 1 - p


def degree(n: int, label) -> int:
    return (n - 1) // 2 if label == PHI_EX else label[1]


def labels(n: int, p: int, family: str, k: int) -> list:
    """Basis labels of degree k; PhiEx joins both families in the middle degree."""
    if family == "Phi":
        out = [("Phi", k, a) for a in phi_range(n, p, k)]
    else:
        out = [("S", k, i) for i in range(_m(n, p, k) + 1)]
    if exceptional(n, p) and k == (n - 1) // 2:
        out.append(PHI_EX)
    return out


def all_labels(n: int, p: int, family: str) -> list:
    return [label for k in range(n) for label in labels(n, p, family, k)]


_TEXT_LABEL = re.compile(r"^(Phi|S)\[(\d+),(\d+)\]$")


def parse_label(text: str):
    if text == "PhiEx":
        return PHI_EX
    m = _TEXT_LABEL.match(text)
    if not m:
        raise ValueError(f"bad label {text!r}")
    return (m.group(1), int(m.group(2)), int(m.group(3)))


def label_text(label) -> str:
    return "PhiEx" if label == PHI_EX else f"{label[0]}[{label[1]},{label[2]}]"


# -- expected coefficients (units of omega(n)^-1) ------------------------------


def closed_form_phi(n: int, p: int, k: int, a: int, j: int, b: int) -> Fraction:
    q = n - 1 - p
    return Fraction(C(q - k + j + a - b, j - b) * C(p - a + b, b), C(q, j - b) * C(p, b))


def _c(n: int, p: int, k: int, i: int) -> Fraction:
    m = _m(n, p, k)
    q = n - 1 - p
    return Fraction(C(n - 1, i), C(n - 1, k) * C(m, i) * C(abs(k - q) + m, i))


@lru_cache(maxsize=None)
def s_in_phi(n: int, p: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """M_k: row i holds the Phi_{k,a} coefficients of S_{k,i}, a over phi_range."""
    mp, m = min(p, k), _m(n, p, k)
    return tuple(
        tuple(
            _c(n, p, k, i) * C(mp - a, i) if mp - m <= a <= mp - i else Fraction(0)
            for a in phi_range(n, p, k)
        )
        for i in range(m + 1)
    )


def _inverse(mat) -> list[list[Fraction]]:
    size = len(mat)
    aug = [list(row) + [Fraction(int(r == c)) for c in range(size)] for r, row in enumerate(mat)]
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


@lru_cache(maxsize=None)
def s_dual_in_phi_duals(n: int, p: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """N_k = (M_k^T)^-1: row i holds the Phi*_{k,a} coefficients of S*_{k,i}."""
    m = s_in_phi(n, p, k)
    transpose = [list(col) for col in zip(*m)]
    return tuple(tuple(row) for row in _inverse(transpose))


def _as_phi_duals(n: int, p: int, label) -> dict[int, Fraction]:
    """A dual basis element as {a: coefficient of Phi*_{k,a}}."""
    kind, k, idx = label
    a_vals = list(phi_range(n, p, k))
    if kind == "Phi":
        return {idx: Fraction(1)}
    row = s_dual_in_phi_duals(n, p, k)[idx]
    return {a: v for a, v in zip(a_vals, row) if v}


def _phi_ex_product(n: int, p: int, family: str, other) -> dict:
    if other == PHI_EX:
        value = Fraction((-1) ** p * (p + 1), 4**p)
        if family == "Phi":
            return {("Phi", n - 1, p): value}
        col = list(phi_range(n, p, n - 1)).index(p)
        return {("S", n - 1, i): value * row[col] for i, row in enumerate(s_in_phi(n, p, n - 1))}
    return {PHI_EX: Fraction(1)} if other[1] == 0 else {}


@lru_cache(maxsize=None)
def dual_product(n: int, p: int, family: str, left, right) -> dict:
    """left* . right* over the family's dual basis, as {label: coefficient}."""
    if PHI_EX in (left, right):
        return _phi_ex_product(n, p, family, right if left == PHI_EX else left)
    j, l = left[1], right[1]
    k = j + l
    phi: dict[int, Fraction] = {}
    for b, x in _as_phi_duals(n, p, left).items():
        for c, y in _as_phi_duals(n, p, right).items():
            a = b + c
            if a in phi_range(n, p, k):
                phi[a] = phi.get(a, Fraction(0)) + x * y * closed_form_phi(n, p, k, a, j, b)
    if family == "Phi":
        return {("Phi", k, a): v for a, v in phi.items() if v}
    a_vals = list(phi_range(n, p, k))
    out = {}
    for i, row in enumerate(s_in_phi(n, p, k)):
        v = sum((row[t] * phi.get(a, 0) for t, a in enumerate(a_vals)), Fraction(0))
        if v:
            out[("S", k, i)] = v
    return out


# -- parsing -------------------------------------------------------------------


# What a malformed output can raise while it is parsed.
PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError)


def _add_term(terms: dict, key, value) -> None:
    if key in terms:
        raise ValueError(f"repeated term {key}")
    terms[key] = value


def _omega_units(units, n: int) -> bool:
    return list(units) == [(f"omega({n})", -1)]


def _scalar_text(text: str):
    parts = [s.strip() for s in text.split("*")]
    num, den = parts[0].split("/")
    units = [(s.rsplit("^", 1)[0], int(s.rsplit("^", 1)[1])) for s in parts[1:]]
    return Fraction(int(num), int(den)), units


def _scalar_json(data: dict):
    return Fraction(data["num"], data["den"]), [(u["sym"], u["exp"]) for u in data["units"]]


_LATEX_COEFF = re.compile(
    r"^(-?)(?:(\d+)|\\frac\{(\d+)\}\{(\d+)\})((?:\\omega_\{\d+\}(?:\^\{-?\d+\})?)*)$"
)
_LATEX_UNIT = re.compile(r"\\omega_\{(\d+)\}(?:\^\{(-?\d+)\})?")
_LATEX_LABEL = (
    (re.compile(r"^\\Phi_\{(\d+),(\d+)\}$"), "Phi"),
    (re.compile(r"^S_\{(\d+)\}\^\{\((\d+)\)\}$"), "S"),
)


def _scalar_latex(text: str):
    m = _LATEX_COEFF.match(text)
    if not m:
        raise ValueError(f"bad latex coefficient {text!r}")
    sign, whole, num, den, units = m.groups()
    value = Fraction(int(whole)) if whole else Fraction(int(num), int(den))
    if sign:
        value = -value
    parsed = [(f"omega({u})", int(e) if e else 1) for u, e in _LATEX_UNIT.findall(units)]
    return value, parsed


def _label_latex(text: str):
    if text == "\\Phi_{ex}":
        return PHI_EX
    for pattern, kind in _LATEX_LABEL:
        m = pattern.match(text)
        if m:
            return (kind, int(m.group(1)), int(m.group(2)))
    raise ValueError(f"bad latex label {text!r}")


def parse_tables(fmt: str, text: str) -> list:
    """A table or sweep as [(input, n, p, {(left, right): (value, units)})]."""
    out = []
    if fmt == "json":
        data = json.loads(text)
        tables = data["tables"] if data["schema"] == "flagkin/tables/v1" else [data]
        for t in tables:
            terms = {}
            for term in t["terms"]:
                key = (parse_label(term["left"]), parse_label(term["right"]))
                _add_term(terms, key, _scalar_json(term["coeff"]))
            out.append((parse_label(t["input"]), t["n"], t["p"], terms))
    elif fmt == "text":
        for block in text.strip("\n").split("\n\n"):
            head, *rows = block.split("\n")
            m = re.match(r"^A\((.+)\)  \[n=(\d+), p=(\d+)\]$", head)
            if not m:
                raise ValueError(f"bad table head {head!r}")
            terms = {}
            for row in rows:
                r = re.match(r"^  (\S+) \(x\) (\S+)  :  (.+)$", row)
                if not r:
                    raise ValueError(f"bad table row {row!r}")
                key = (parse_label(r.group(1)), parse_label(r.group(2)))
                _add_term(terms, key, _scalar_text(r.group(3)))
            out.append((parse_label(m.group(1)), int(m.group(2)), int(m.group(3)), terms))
    elif fmt == "latex":
        for block in text.strip("\n").split("\\end{tabular}"):
            if not block.strip():
                continue
            head, begin, *rows = block.strip("\n").split("\n")
            m = re.match(r"^% A\((.+)\), n=(\d+), p=(\d+)$", head)
            if not m or begin != "\\begin{tabular}{ll}":
                raise ValueError(f"bad latex table head {head!r}")
            terms = {}
            for row in rows:
                r = re.match(r"^(.+) \\otimes (.+) & (.+) \\\\$", row)
                if not r:
                    raise ValueError(f"bad latex row {row!r}")
                key = (_label_latex(r.group(1)), _label_latex(r.group(2)))
                _add_term(terms, key, _scalar_latex(r.group(3)))
            out.append((parse_label(m.group(1)), int(m.group(2)), int(m.group(3)), terms))
    else:
        raise ValueError(f"no parser for format {fmt!r}")
    return out


def parse_product(fmt: str, text: str):
    """(left, right, n, p, {label: (value, units)}) of a product expansion."""
    terms = {}
    if fmt == "json":
        data = json.loads(text)
        for term in data["terms"]:
            _add_term(terms, parse_label(term["label"]), _scalar_json(term["coeff"]))
        return parse_label(data["left"]), parse_label(data["right"]), data["n"], data["p"], terms
    head, *rows = text.strip("\n").split("\n")
    m = re.match(r"^(\S+)\* \. (\S+)\*  \[n=(\d+), p=(\d+)\]$", head)
    if not m:
        raise ValueError(f"bad product head {head!r}")
    for row in rows:
        r = re.match(r"^  (\S+)\* : (.+)$", row)
        if not r:
            raise ValueError(f"bad product row {row!r}")
        _add_term(terms, parse_label(r.group(1)), _scalar_text(r.group(2)))
    return parse_label(m.group(1)), parse_label(m.group(2)), int(m.group(3)), int(m.group(4)), terms


# -- checks --------------------------------------------------------------------


def _values(n: int, terms: dict, where: str, errors: list) -> dict:
    """Strip the omega(n)^-1 unit, recording any term that lacks it or is zero."""
    out = {}
    for key, (value, units) in terms.items():
        if not _omega_units(units, n):
            errors.append(f"{where}: term {key} has units {units}, want omega({n})^-1")
        elif value == 0:
            errors.append(f"{where}: zero term {key} printed")
        out[key] = value
    return out


def check_table(n: int, p: int, family: str, input_label, terms: dict) -> list[str]:
    """Errors in one kinematic table {(left, right): (value, units)}."""
    where = f"A({label_text(input_label)}) n={n} p={p}"
    errors: list[str] = []
    valid = set(all_labels(n, p, family))
    if input_label not in valid:
        return [f"{where}: input is not a {family} label"]
    values = _values(n, terms, where, errors)
    for left, right in values:
        if left not in valid or right not in valid:
            errors.append(f"{where}: invalid label in term {left} (x) {right}")
        elif degree(n, left) + degree(n, right) != degree(n, input_label):
            errors.append(f"{where}: term {left} (x) {right} has the wrong degree")
    if errors:
        return errors
    unit = labels(n, p, family, 0)[0]
    for key in ((unit, input_label), (input_label, unit)):
        if values.get(key) != 1:
            errors.append(f"{where}: counit term {key} is {values.get(key)}, want 1")
    for (left, right), v in values.items():
        if values.get((right, left)) != v:
            errors.append(f"{where}: not cocommutative at {label_text(left)} (x) {label_text(right)}")
    k = degree(n, input_label)
    for j in range(k + 1):
        for left in labels(n, p, family, j):
            for right in labels(n, p, family, k - j):
                want = dual_product(n, p, family, left, right).get(input_label, Fraction(0))
                got = values.get((left, right), Fraction(0))
                if got != want:
                    errors.append(
                        f"{where}: {label_text(left)} (x) {label_text(right)} is {got}, want {want}"
                    )
    if family == "S" and input_label != PHI_EX:
        sums: dict[int, Fraction] = {}
        for (left, right), v in values.items():
            if PHI_EX not in (left, right):
                sums[left[1]] = sums.get(left[1], Fraction(0)) + v
        for j in range(k + 1):
            if sums.get(j, 0) != C(k, j):
                errors.append(f"{where}: globalization sum at ({j},{k - j}) is {sums.get(j, 0)}")
    return errors


def check_tables(fmt: str, text: str, n: int, p: int, family: str, inputs=None) -> list[str]:
    """Errors in a ``table`` sweep (inputs None) or a single ``coproduct`` output."""
    try:
        tables = parse_tables(fmt, text)
    except PARSE_ERRORS as exc:
        return [f"unparsable {fmt} table output: {exc}"]
    want = all_labels(n, p, family) if inputs is None else list(inputs)
    got = [t[0] for t in tables]
    if got != want:
        return [f"tables for {[label_text(l) for l in got]}, want {[label_text(l) for l in want]}"]
    errors = []
    for input_label, tn, tp, terms in tables:
        if (tn, tp) != (n, p):
            errors.append(f"table header n={tn} p={tp}, want n={n} p={p}")
        errors += check_table(n, p, family, input_label, terms)
    return errors


def check_product(fmt: str, text: str, n: int, p: int, family: str, left, right) -> list[str]:
    try:
        got_left, got_right, tn, tp, terms = parse_product(fmt, text)
    except PARSE_ERRORS as exc:
        return [f"unparsable {fmt} product output: {exc}"]
    where = f"{label_text(left)}* . {label_text(right)}* n={n} p={p}"
    if (got_left, got_right, tn, tp) != (left, right, n, p):
        return [f"{where}: header names {got_left}, {got_right}, n={tn}, p={tp}"]
    errors: list[str] = []
    values = _values(n, terms, where, errors)
    want = dual_product(n, p, family, left, right)
    if values != want:
        errors.append(
            f"{where}: got {sorted((label_text(l), str(v)) for l, v in values.items())}, "
            f"want {sorted((label_text(l), str(v)) for l, v in want.items())}"
        )
    return errors


def check_dim(fmt: str, text: str, n: int) -> list[str]:
    try:
        if fmt == "json":
            rows = [(r["k"], r["dimension"]) for r in json.loads(text)["rows"]]
        else:
            lines = text.strip("\n").split("\n")
            if lines[0] != f"rotation algebra graded dimensions, n={n}":
                return [f"bad dim title {lines[0]!r}"]
            rows = []
            for line in lines[1:]:
                m = re.match(r"^  k=(\d+): (\d+)$", line)
                if not m:
                    return [f"bad dim row {line!r}"]
                rows.append((int(m.group(1)), int(m.group(2))))
    except PARSE_ERRORS as exc:
        return [f"unparsable {fmt} dim output: {exc}"]
    want = [(k, narayana(n, k)) for k in range(n)]
    return [] if rows == want else [f"dim n={n}: rows {rows}, want Narayana {want}"]


def check_verify(text: str, n: int, p: int) -> list[str]:
    want = [f"verify n={n} p={p}"] + [f"  [ok] {name}" for name in VERIFY_SUITE_NAMES]
    got = text.rstrip("\n").split("\n")
    return [] if got == want else [f"verify n={n} p={p}: output {got}"]


def check_output(kind: str, spec: dict, stdout: str) -> list[str]:
    """Dispatch on the request kind recorded in the workload's request list."""
    if kind == "table":
        return check_tables(spec["format"], stdout, spec["n"], spec["p"], spec["basis"])
    if kind == "coproduct":
        return check_tables(
            spec["format"], stdout, spec["n"], spec["p"], spec["basis"], [spec["label"]]
        )
    if kind == "product":
        return check_product(
            spec["format"], stdout, spec["n"], spec["p"], spec["basis"], spec["left"], spec["right"]
        )
    if kind == "dim":
        return check_dim(spec["format"], stdout, spec["n"])
    if kind == "verify":
        return check_verify(stdout, spec["n"], spec["p"])
    raise ValueError(f"unknown request kind {kind!r}")
