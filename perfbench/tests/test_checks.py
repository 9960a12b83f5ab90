"""Each output check accepts real flagkin output and rejects it with one value altered.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
from run import Launcher  # noqa: E402
from workloads import _label_args  # noqa: E402


def cli(*argv: str) -> str:
    with Launcher() as launcher:
        done = launcher.run(list(argv))
    if done.code != 0:
        raise AssertionError(f"flagkin {' '.join(argv)} failed: {done.stderr}")
    return done.stdout


def bump_json_coefficients(text: str):
    """Every variant of a table, sweep or product JSON with one numerator plus one."""
    data = json.loads(text)
    tables = data.get("tables", [data])
    for t in range(len(tables)):
        for i in range(len(tables[t]["terms"])):
            variant = json.loads(text)
            term = variant.get("tables", [variant])[t]["terms"][i]
            term["coeff"]["num"] += 1
            yield json.dumps(variant, indent=2) + "\n"


def bump_numbers(text: str, pattern: str):
    """Every variant of text with one match of pattern's group 1 (an integer) plus one."""
    for m in re.finditer(pattern, text, flags=re.M):
        value = int(m.group(1)) + 1
        yield text[: m.start(1)] + str(value) + text[m.end(1):]


class TableChecks(unittest.TestCase):
    CASES = [(5, 2, "Phi"), (5, 2, "S"), (6, 2, "S"), (6, 3, "Phi")]

    def test_json_sweeps(self):
        for n, p, family in self.CASES:
            text = cli("table", "--n", str(n), "--p", str(p), "--basis", family, "--format", "json")
            self.assertEqual(checks.check_tables("json", text, n, p, family), [])
            variants = list(bump_json_coefficients(text))
            self.assertGreater(len(variants), 20)
            for bad in variants:
                self.assertNotEqual(checks.check_tables("json", bad, n, p, family), [])

    def test_text_and_latex_sweeps(self):
        for n, p, family in self.CASES:
            for fmt, pattern in (("text", r":  (-?\d+)/"), ("latex", r" & -?(?:\\frac\{)?(\d+)")):
                text = cli("table", "--n", str(n), "--p", str(p), "--basis", family, "--format", fmt)
                self.assertEqual(checks.check_tables(fmt, text, n, p, family), [])
                for bad in bump_numbers(text, pattern):
                    self.assertNotEqual(checks.check_tables(fmt, bad, n, p, family), [], fmt)

    def test_dropped_and_extra_terms(self):
        text = cli("table", "--n", "5", "--p", "2", "--basis", "S", "--format", "text")
        lines = text.split("\n")
        rows = [i for i, line in enumerate(lines) if " (x) " in line]
        dropped = "\n".join(lines[: rows[3]] + lines[rows[3] + 1:])
        self.assertNotEqual(checks.check_tables("text", dropped, 5, 2, "S"), [])
        extra = text.replace("A(S[1,0])  [n=5, p=2]\n",
                             "A(S[1,0])  [n=5, p=2]\n  S[1,1] (x) S[0,0]  :  1/1 * omega(5)^-1\n")
        self.assertNotEqual(checks.check_tables("text", extra, 5, 2, "S"), [])

    def test_single_label_coproducts(self):
        for n, p, family, label in ((5, 2, "Phi", ("Phi", 4, 2)), (5, 2, "S", checks.PHI_EX),
                                    (7, 3, "S", ("S", 3, 1))):
            argv = ["coproduct", "--n", str(n), "--p", str(p), "--basis", family,
                    *_label_args(label, family), "--format", "json"]
            text = cli(*argv)
            self.assertEqual(checks.check_tables("json", text, n, p, family, [label]), [])
            for bad in bump_json_coefficients(text):
                self.assertNotEqual(checks.check_tables("json", bad, n, p, family, [label]), [])


class ProductChecks(unittest.TestCase):
    def test_products(self):
        cases = [
            (5, 2, "Phi", ("Phi", 1, 1), ("Phi", 1, 0)),
            (5, 2, "S", ("S", 1, 1), ("S", 1, 0)),
            (5, 2, "S", checks.PHI_EX, checks.PHI_EX),
            (7, 3, "Phi", checks.PHI_EX, checks.PHI_EX),
            (6, 2, "S", ("S", 2, 1), ("S", 3, 1)),
        ]
        for n, p, family, left, right in cases:
            base = ["product", "--n", str(n), "--p", str(p), "--basis", family,
                    *_label_args(left, family), *_label_args(right, family, "2")]
            text = cli(*base, "--format", "json")
            self.assertEqual(checks.check_product("json", text, n, p, family, left, right), [])
            variants = list(bump_json_coefficients(text))
            self.assertTrue(variants)
            for bad in variants:
                self.assertNotEqual(
                    checks.check_product("json", bad, n, p, family, left, right), [])
            text = cli(*base)
            self.assertEqual(checks.check_product("text", text, n, p, family, left, right), [])
            for bad in bump_numbers(text, r": (-?\d+)/"):
                self.assertNotEqual(
                    checks.check_product("text", bad, n, p, family, left, right), [])


class DimAndVerifyChecks(unittest.TestCase):
    def test_dim(self):
        for fmt, pattern in (("text", r"^  k=\d+: (\d+)$"), ("json", r'"dimension": (\d+)')):
            text = cli("dim", "--n", "6", "--format", fmt)
            self.assertEqual(checks.check_dim(fmt, text, 6), [])
            variants = list(bump_numbers(text, pattern))
            self.assertEqual(len(variants), 6)
            for bad in variants:
                self.assertNotEqual(checks.check_dim(fmt, bad, 6), [])

    def test_verify(self):
        text = cli("verify", "--n", "3", "--p", "1")
        self.assertEqual(checks.check_verify(text, 3, 1), [])
        for name in checks.VERIFY_SUITE_NAMES:
            bad = text.replace(f"[ok] {name}\n", f"[FAIL] {name}\n")
            self.assertNotEqual(checks.check_verify(bad, 3, 1), [], name)


if __name__ == "__main__":
    unittest.main()
