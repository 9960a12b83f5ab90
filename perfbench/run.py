"""End-to-end and per-layer benchmark of the flagkin command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Each request runs as its own ``python -m flagkin.cli ...`` process with
PYTHONPATH pointing at the tree's ``src``, so every request starts with cold
caches, as a user's process does.  ``launcher.py`` spawns and reaps them.  Requests run one at a time from this
single process: a closed loop with one client.  A run first times ``--version``
requests (``setup_s``), then repeats whole rounds of the workload's request
list until ``--seconds`` would be exceeded (at least one round).  Every output
is checked by ``checks.py``, which uses no flagkin code.

``--trace 0`` reports the end-to-end metrics.  Each request counts at its
median over the rounds: ``wall_s`` and ``cpu_s`` are the wall and CPU time of
the request list, and ``req_p50_s`` is the median request's wall time.
``peak_rss_mb`` is the highest peak RSS of any request.  ``--trace 1`` runs the same requests through
``tracer.py`` and reports the per-layer metrics of one round; counts are
identical in every round and every traced run, times are medians over
rounds.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; per-request records and
the traced spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import VERIFY_SUITE_NAMES, check_output
from workloads import WORKLOADS, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9


@dataclass
class Request:
    """One finished CLI process."""

    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    errors: list[str] = field(default_factory=list)
    trace: dict | None = None


class Launcher:
    """The small process that spawns and reaps every request; see launcher.py."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("FLAGKIN_MAX_N", None)
        OUT.mkdir(exist_ok=True)
        self.out = OUT / f"stdout-{os.getpid()}.txt"
        self.err = OUT / f"stderr-{os.getpid()}.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )

    def run(self, argv: list[str], trace_path: Path | None = None) -> Request:
        if trace_path is None:
            cmd = [sys.executable, "-m", "flagkin.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), *argv]
        self.proc.stdin.write(json.dumps([cmd, str(self.out), str(self.err)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended early")
        wall, cpu, maxrss_kb, code = json.loads(line)
        return Request(argv, wall, cpu, maxrss_kb / 1024, code,
                       self.out.read_text(), self.err.read_text())

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)


def run_request(launcher: Launcher, req, trace_path: Path | None = None) -> Request:
    kind, argv, spec = req
    done = launcher.run(argv, trace_path)
    if done.code != 0:
        done.errors = [f"exit code {done.code}: {done.stderr.strip()[-300:]}"]
    else:
        done.errors = check_output(kind, spec, done.stdout)
    return done


def measure_setup(launcher: Launcher) -> list[float]:
    """Wall times of --version requests: process start plus import of flagkin.cli."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "flagkin")],
                   check=True, stdout=subprocess.DEVNULL)
    walls = []
    for _ in range(SETUP_REPEATS):
        done = launcher.run(["--version"])
        if done.code != 0 or not done.stdout.startswith("flagkin "):
            raise RuntimeError(f"flagkin --version failed: {done.stderr.strip()}")
        walls.append(done.wall)
    return walls


def run_rounds(launcher: Launcher, reqs, seconds: float, trace: bool) -> list[list]:
    """Whole rounds of the request list; another starts only if it should end in time."""
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results = []
        for req in reqs:
            if trace:
                path = OUT / f"span-tmp-{os.getpid()}.json"
                done = run_request(launcher, req, path)
                if path.exists():
                    with open(path) as fh:
                        done.trace = json.load(fh)
                    path.unlink()
                else:
                    done.errors.append("the traced process wrote no trace")
            else:
                done = run_request(launcher, req)
            results.append(done)
        rounds.append(results)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return rounds


def end_to_end(rounds, setup: list[float]) -> dict:
    """Each request counts at its median over the rounds.

    A request slowed by a burst of load from outside moves only its own
    median, which makes the sums steadier than the median of round totals,
    and the median request steadier than the median of all samples.
    """
    walls = [statistics.median(r.wall for r in runs) for runs in zip(*rounds)]
    cpus = [statistics.median(r.cpu for r in runs) for runs in zip(*rounds)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(cpus), "s"),
        "req_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(r.rss_mb for results in rounds for r in results), "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(results) -> dict:
    """Per-layer metrics of one round of traced requests."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    caches: dict[str, list] = {}
    import_s = 0.0
    for r in results:
        t = r.trace
        if t is None:
            continue
        import_s += t["import_s"]
        for name, (c, tot, slf) in t["functions"].items():
            calls[name] = calls.get(name, 0) + c
            total[name] = total.get(name, 0.0) + tot
            self_s[name] = self_s.get(name, 0.0) + slf
        for name, v in t["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, (hits, misses) in t["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def layer_self(layer):
        return sum(v for name, v in self_s.items() if name.startswith(layer + "."))

    def hit_ratio(name):
        hits, misses = caches.get(name, (0, 0))
        return _ratio(hits, hits + misses)

    m = {
        "cli.requests": (n("cli.main"), "count"),
        "cli.import_s": (import_s, "s"),
        "cli.render_s": (self_s.get("cli._render_tables", 0.0) + self_s.get("cli._emit", 0.0), "s"),
    }
    for suite in VERIFY_SUITE_NAMES:
        slug = suite.replace(" ", "_").replace("-", "_")
        m[f"cli.suite_s.{slug}"] = (total.get(f"cli.suite.{suite}", 0.0), "s")
    m.update({
        "kinematics.coproduct_tables_built": (
            caches.get("kinematics.coproduct_tables", (0, 0))[1], "count"),
        "kinematics.coproduct_tables_s": (total.get("kinematics.coproduct_tables", 0.0), "s"),
        "kinematics.closed_form_calls": (
            n("kinematics.closed_form_phi", "kinematics.closed_form_S"), "count"),
        "measures.dual_elements": (n("measures.dual_element"), "count"),
        "measures.expansions": (n("measures.expand_in_duals"), "count"),
        "measures.expand_s": (total.get("measures.expand_in_duals", 0.0), "s"),
        "measures.c_constant_calls": (n("measures.c_constant"), "count"),
        "invariant_algebras.coordinate_solves": (
            n("invariant_algebras.invariant_coordinates"), "count"),
        "invariant_algebras.coordinate_solve_s": (
            total.get("invariant_algebras.invariant_coordinates", 0.0), "s"),
        "invariant_algebras.embed_hit_ratio": (
            hit_ratio("invariant_algebras.embed_monomial"), "ratio"),
        "rotation_algebra.algebra_products": (
            n("rotation_algebra.AlgebraElement.__mul__"), "count"),
        "rotation_algebra.generator_calls": (n("rotation_algebra.generator"), "count"),
        "rotation_algebra.dalpha_calls": (n("rotation_algebra.dalpha"), "count"),
        "rotation_algebra.relation_checks": (
            n("rotation_algebra.rotation_relation_check"), "count"),
        "rotation_algebra.dalpha_image_hit_ratio": (
            hit_ratio("rotation_algebra._dalpha_image_columns"), "ratio"),
        "rotation_algebra.chord_columns_hit_ratio": (
            hit_ratio("rotation_algebra._chord_columns"), "ratio"),
        "rotation_algebra.graded_dimension_s": (
            total.get("rotation_algebra.graded_dimension", 0.0), "s"),
        "exterior.wedges": (n("exterior.Multivector.wedge"), "count"),
        "exterior.blade_products": (n("exterior.wedge_blades"), "count"),
        "exterior.blade_nonzero_ratio": (
            _ratio(counters.get("exterior.blade_nonzero", 0), n("exterior.wedge_blades")), "ratio"),
        "exterior.star_calls": (
            n("exterior.star1", "exterior.star1_inv", "exterior.hodge_star_sigma"), "count"),
        "exterior.wedge_self_s": (self_s.get("exterior.Multivector.wedge", 0.0), "s"),
        "linalg.echelon_adds": (n("linalg.SparseEchelon.add"), "count"),
        "linalg.echelon_gain_ratio": (
            _ratio(counters.get("linalg.echelon_gains", 0), n("linalg.SparseEchelon.add")), "ratio"),
        "linalg.echelon_reduces": (n("linalg.SparseEchelon.reduce"), "count"),
        "linalg.solves": (n("linalg.solve_unique"), "count"),
        "linalg.in_span_calls": (n("linalg.in_span"), "count"),
        "linalg.self_s": (layer_self("linalg"), "s"),
        "scalars.constructions": (n("scalars.Scalar.__post_init__"), "count"),
        "scalars.muls": (n("scalars.Scalar.__mul__"), "count"),
        "scalars.adds": (n("scalars.Scalar.__add__"), "count"),
        "scalars.self_s": (layer_self("scalars"), "s"),
        "grassmann_oracle.pairings": (
            n("grassmann_oracle.pairing", "grassmann_oracle.rotation_pairing"), "count"),
        "grassmann_oracle.convolution_checks": (
            n("grassmann_oracle.convolution_cross_check"), "count"),
        "grassmann_oracle.self_s": (layer_self("grassmann_oracle"), "s"),
    })
    return m


def per_layer(rounds) -> dict:
    """Counts must agree across rounds; times are medians over rounds."""
    per_round = [layer_metrics(results) for results in rounds]
    out = {}
    for name, (value, unit) in per_round[0].items():
        values = [m[name][0] for m in per_round]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) > 1:
            raise RuntimeError(f"{name} differs between rounds: {values}")
        out[name] = (value, unit)
    return out


def write_records(workload: str, seed: int, trace: bool, rounds, setup) -> Path:
    """Per-request records of the run; a traced run also keeps round 1's spans."""
    kind = "trace" if trace else "result"
    path = OUT / f"{kind}-{workload}-seed{seed}.json"
    data = {
        "workload": workload,
        "seed": seed,
        "setup_walls_s": setup,
        "rounds": [
            [{"argv": r.argv, "wall_s": r.wall, "cpu_s": r.cpu, "peak_rss_mb": r.rss_mb,
              "exit_code": r.code, "errors": r.errors} for r in results]
            for results in rounds
        ],
    }
    if trace:
        data["round1_traces"] = [r.trace for r in rounds[0]]
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flagkin" / "cli.py").is_file():
        print(f"perfbench: no flagkin source tree at {SRC}", file=sys.stderr)
        return 2
    reqs = build(args.workload, args.seed)
    with Launcher() as launcher:
        try:
            setup = measure_setup(launcher)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        rounds = run_rounds(launcher, reqs, args.seconds, bool(args.trace))

    done = [r for results in rounds for r in results]
    failed = [r for r in done if r.errors]
    wrong = [r for r in failed if r.code == 0]
    for r in failed[:5]:
        print(f"perfbench: FAILED {' '.join(r.argv)}: {r.errors[:2]}", file=sys.stderr)
    try:
        metrics = per_layer(rounds) if args.trace else end_to_end(rounds, setup)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = write_records(args.workload, args.seed, bool(args.trace), rounds, setup)
    print(f"perfbench: {args.workload} seed={args.seed}: {len(rounds)} rounds of "
          f"{len(reqs)} requests, round walls "
          f"{[round(sum(r.wall for r in results), 3) for results in rounds]} s; "
          f"records in {path.relative_to(ROOT)}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
