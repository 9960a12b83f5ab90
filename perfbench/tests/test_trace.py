"""Traced runs: their counts repeat exactly, and tracing leaves the output unchanged.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from workloads import build  # noqa: E402


def small_requests():
    """The cheaper requests of each workload, so that the test takes seconds."""
    reqs = [r for r in build("rank", 1) if r[2]["n"] <= 6]
    reqs += [r for r in build("tables", 1) if r[2]["basis"] == "Phi"][:3]
    reqs += [r for r in build("certify", 1) if r[2]["n"] == 3][:1]
    reqs += [r for r in build("queries", 1) if r[2]["n"] <= 7][:4]
    return reqs


class TracedCounts(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        reqs = small_requests()
        with run.Launcher() as launcher:
            first = run.per_layer(run.run_rounds(launcher, reqs, 0, trace=True))
            second = run.per_layer(run.run_rounds(launcher, reqs, 0, trace=True))
        self.assertEqual(set(first), set(second))
        counts = [name for name, (_, unit) in first.items() if unit in ("count", "ratio")]
        for name in counts:
            self.assertEqual(first[name], second[name], name)
        self.assertEqual(first["cli.requests"][0], len(reqs))
        self.assertGreater(first["exterior.wedges"][0], 0)
        self.assertGreater(first["cli.suite_s.rotation_relations"][0], 0)

    def test_tracing_keeps_stdout_and_exit_code(self):
        path = run.OUT / "span-selftest.json"
        with run.Launcher() as launcher:
            for argv in (["dim", "--n", "5"], ["table", "--n", "4", "--p", "1", "--format", "latex"],
                         ["verify", "--n", "3", "--p", "1"], ["dim", "--n", "1"]):
                plain = launcher.run(argv)
                traced = launcher.run(argv, path)
                path.unlink()
                self.assertEqual((plain.code, plain.stdout), (traced.code, traced.stdout), argv)

    def test_peak_rss_is_the_request_own(self):
        """A request's peak RSS must not include the driving process's memory."""
        ballast = b"\x01" * (200 * 2**20)  # makes this process far larger than a request
        with run.Launcher() as launcher:
            done = launcher.run(["--version"])
        self.assertLess(done.rss_mb, 100)
        del ballast


if __name__ == "__main__":
    unittest.main()
