import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagkin
from flagkin import cli
from flagkin.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_example(capsys):
    code, out, _ = run(capsys, "dim", "--n", "5")
    assert code == 0
    assert [int(line.split(":")[1]) for line in out.splitlines()[1:]] == [1, 10, 20, 10, 1]


def test_dim_with_p(capsys):
    code, out, _ = run(capsys, "dim", "--n", "5", "--p", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,dimension", "0,1", "1,2", "2,4", "3,2", "4,1"]


def test_basis_chord(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "--k", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["monomials"] == ["D{2}M{}", "D{3}M{}", "D{}M{(2,3)}"]


def test_coproduct_json(capsys):
    code, out, _ = run(
        capsys,
        "coproduct", "--n", "4", "--p", "1", "--basis", "S", "--k", "1", "--i", "0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "flagkin/table/v1"
    assert data["input"] == "S[1,0]"
    coeffs = {(t["left"], t["right"]): t["coeff"] for t in data["terms"]}
    assert coeffs[("S[0,0]", "S[1,0]")] == {
        "num": 1,
        "den": 1,
        "units": [{"sym": "omega(4)", "exp": -1}],
    }


def test_output_is_byte_identical(capsys):
    args = ("table", "--n", "4", "--p", "1", "--basis", "Phi", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_product(capsys):
    code, out, _ = run(
        capsys,
        "product", "--n", "4", "--p", "1", "--basis", "Phi",
        "--k", "1", "--a", "0", "--k2", "1", "--a2", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {
            "label": "Phi[2,1]",
            "coeff": {"num": 1, "den": 1, "units": [{"sym": "omega(4)", "exp": -1}]},
        }
    ]


PRODUCT = ("product", "--n", "4", "--p", "1", "--basis", "Phi")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--k", "1", "--a", "0"), "need --k2 (or --ex2)"),
        (("--k", "1", "--a", "0", "--k2", "1"), "need --a2 for basis Phi"),
        (("--k", "1", "--a", "0", "--k2", "7", "--a2", "0"), "k2=7 outside 0..3"),
        (("--k", "1", "--a", "0", "--ex2"), "--ex2 needs odd n with p == q, got n=4, p=1"),
        (("--k2", "1", "--a2", "0"), "need --k (or --ex)"),
        (("--k", "1", "--k2", "1", "--a2", "0"), "need --a for basis Phi"),
        (("--k", "7", "--a", "0", "--k2", "1", "--a2", "0"), "k=7 outside 0..3"),
        (("--ex", "--k2", "1", "--a2", "0"), "--ex needs odd n with p == q, got n=4, p=1"),
    ],
)
def test_product_names_the_flags_of_the_faulty_operand(capsys, flags, message):
    code, out, err = run(capsys, *PRODUCT, *flags)
    assert (code, out, err) == (1, "", f"flagkin: error: {message}\n")


def test_verify_success(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--p", "1")
    assert code == 0
    assert out.splitlines()[0] == "verify n=3 p=1"
    assert all("[ok]" in line for line in out.splitlines()[1:])


def test_validation_error_exit_code(capsys):
    code, _, err = run(capsys, "dim", "--n", "99")
    assert code == 1 and "max-n" in err
    code, _, err = run(capsys, "coproduct", "--n", "4", "--p", "1", "--k", "9", "--i", "0")
    assert code == 1
    code, _, err = run(capsys, "coproduct", "--n", "4", "--p", "1", "--basis", "S", "--k", "1")
    assert code == 1 and "--i" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim"])  # missing required --n
    assert exc.value.code == 1


def test_unrendered_format_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--p", "1", "--format", "json"])  # verify prints text only
    assert exc.value.code == 1
    assert "invalid choice: 'json'" in capsys.readouterr().err


def test_max_n_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FLAGKIN_MAX_N", "9")
    code, out, _ = run(capsys, "dim", "--n", "9")
    assert code == 0
    monkeypatch.setenv("FLAGKIN_MAX_N", "4")
    code, _, err = run(capsys, "dim", "--n", "5")
    assert code == 1


def _label_args(label, basis, suffix=""):
    if label.kind == "PhiEx":
        return [f"--ex{suffix}"]
    flag = "--a" if basis == "Phi" else "--i"
    return [f"--k{suffix}", str(label.k), f"{flag}{suffix}", str(label.idx)]


@pytest.mark.parametrize("n", range(2, 6))
def test_product_json_matches_the_encoder(capsys, n):
    # every product at n prints what json.dumps(indent=2) prints for its reference dict
    from flagkin.invariant_algebras import FlagContext
    from flagkin.measures import basis_labels, dual_product

    for p in range(n):
        ctx = FlagContext(n, p)
        for basis in ("Phi", "S"):
            units = [{"sym": f"omega({n})", "exp": -1}]
            labels = [l for k in range(n) for l in basis_labels(ctx, k, basis)]
            head = ["product", "--n", str(n), "--p", str(p), "--basis", basis, "--format", "json"]
            for left in labels:
                for right in labels:
                    if left.degree(ctx) + right.degree(ctx) > n - 1:
                        continue
                    terms = sorted(dual_product(ctx, left, right, basis).items())
                    reference = {
                        "schema": "flagkin/product/v1",
                        "n": n,
                        "p": p,
                        "basis": basis,
                        "left": left.to_text(),
                        "right": right.to_text(),
                        "terms": [
                            {
                                "label": l.to_text(),
                                "coeff": {"num": num, "den": den, "units": units},
                            }
                            for l, (num, den) in terms
                        ],
                    }
                    args = _label_args(left, basis) + _label_args(right, basis, "2")
                    code, out, _ = run(capsys, *head, *args)
                    assert (code, out) == (0, json.dumps(reference, indent=2) + "\n"), args


@pytest.mark.parametrize("n", range(2, 12))
def test_dim_json_matches_the_encoder(capsys, n):
    # dim prints, with and without --p, what json.dumps(indent=2) prints for its reference dict
    from flagkin.invariant_algebras import FlagContext, invariant_dimension
    from flagkin.rotation_algebra import graded_dimension

    forms = [([], f"rotation algebra graded dimensions, n={n}", lambda k: graded_dimension(n, k))]
    for p in range(n):
        ctx = FlagContext(n, p)
        title = f"flag invariant subalgebra dimensions, n={n}, p={p}"
        forms.append((["--p", str(p)], title, lambda k, ctx=ctx: invariant_dimension(ctx, k)))
    for form, title, dimension in forms:
        reference = {"title": title, "rows": [{"k": k, "dimension": dimension(k)} for k in range(n)]}
        code, out, _ = run(capsys, "dim", "--n", str(n), *form, "--format", "json", "--max-n", "11")
        assert (code, out) == (0, json.dumps(reference, indent=2) + "\n"), form


@pytest.mark.parametrize("n", range(2, 9))
def test_basis_json_matches_the_encoder(capsys, n):
    # the chord basis and the measure labels print what json.dumps(indent=2) prints
    from flagkin.invariant_algebras import FlagContext
    from flagkin.measures import basis_labels
    from flagkin.rotation_algebra import chord_basis, chord_text

    for k in range(n):
        mons = [chord_text(*m) for m in chord_basis(n, k)]
        reference = {"n": n, "k": k, "count": len(mons), "monomials": mons}
        code, out, _ = run(capsys, "basis", "--n", str(n), "--k", str(k), "--format", "json")
        assert (code, out) == (0, json.dumps(reference, indent=2) + "\n"), k
        for p in range(n):
            for basis in ("Phi", "S"):
                labels = [l.to_text() for l in basis_labels(FlagContext(n, p), k, basis)]
                reference = {"n": n, "p": p, "k": k, "basis": basis, "labels": labels}
                argv = ["--n", str(n), "--p", str(p), "--k", str(k), "--basis", basis]
                code, out, _ = run(capsys, "basis", *argv, "--format", "json")
                assert (code, out) == (0, json.dumps(reference, indent=2) + "\n"), argv


def test_failed_render_keeps_the_output_file(tmp_path, capsys, monkeypatch):
    # rendering raises after the first table has been written to the temporary file
    from flagkin.errors import FlagkinError

    render = cli.table_to_latex
    calls = []

    def fails_on_the_second_table(table):
        calls.append(table)
        if len(calls) > 1:
            raise FlagkinError("planted rendering failure")
        return render(table)

    monkeypatch.setattr(cli, "table_to_latex", fails_on_the_second_table)
    target = tmp_path / "tables.tex"
    target.write_bytes(b"old\n")
    target.chmod(0o640)
    argv = ["table", "--n", "4", "--p", "1", "--format", "latex", "--output", str(target)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "flagkin: error: planted rendering failure\n")
    assert len(calls) == 2
    assert target.read_bytes() == b"old\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["tables.tex"]  # no temporary file left


def _env(**extra) -> dict[str, str]:
    """The environment with this flagkin first on PYTHONPATH, and extra added."""
    src = str(Path(flagkin.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _python(*args, env=None, **kwargs):
    return subprocess.Popen([sys.executable, *args], env=_env(**(env or {})), **kwargs)


def _flagkin(*argv, **kwargs):
    return _python("-m", "flagkin.cli", *argv, **kwargs)


def test_closed_stdout_pipe_is_one_line():
    # the reader takes 100 bytes of a table of several MB and closes the pipe
    argv = ["table", "--n", "14", "--p", "6", "--max-n", "14", "--format", "json"]
    proc = _flagkin(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert head.startswith(b'{\n  "schema": "flagkin/tables/v1"')
    assert err.decode() == "flagkin: error: cannot write stdout: Broken pipe\n"


def test_full_stdout_device_is_one_line():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as full:
        proc = _flagkin("verify", "--n", "5", "--p", "2", stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err.decode() == "flagkin: error: cannot write stdout: No space left on device\n"


# PYTHONUNBUFFERED="1" makes every write reach the device at once; "" leaves
# stdout block-buffered, so that a write fails only when it is flushed.
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["--version"], ["--help"], ["dim", "--help"], ["--version", "dim"], ["dim", "--n", "4"]],
    ids=" ".join,
)
def test_every_output_to_a_full_device_is_one_line(argv, unbuffered):
    # argparse ignores a failed write of help or of the version line
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as full:
        env = {"PYTHONUNBUFFERED": unbuffered}
        proc = _flagkin(*argv, stdout=full, stderr=subprocess.PIPE, env=env)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err.decode() == "flagkin: error: cannot write stdout: No space left on device\n"


def _run_script(script, *argv, stdout=subprocess.PIPE):
    """Run script, which calls cli.run(), with argv and a buffered stdout.

    Returns its exit code, stdout and stderr.
    """
    proc = _python(
        "-c", script, *argv,
        stdout=stdout, stderr=subprocess.PIPE, env={"PYTHONUNBUFFERED": ""},
    )
    out, err = proc.communicate(timeout=120)
    return proc.returncode, (out or b"").decode(), err.decode()


def test_run_exits_with_the_code_and_report_of_a_failed_verify():
    script = (
        "from flagkin import cli\n"
        "cli.VERIFY_SUITES = (('kept', lambda ctx: None), ('planted', lambda ctx: 'no'))\n"
        "cli.run()\n"
    )
    assert _run_script(script, "verify", "--n", "3", "--p", "1") == (
        2,
        "verify n=3 p=1\n  [ok] kept\n  [FAIL] planted\nfirst counterexample: planted: no\n",
        "",
    )


def test_run_runs_the_atexit_callbacks_and_flushes_stderr():
    # the callback's line has no newline, so only a flush writes it
    script = (
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stderr.write('callback ran'))\n"
        "from flagkin import cli\n"
        "cli.run()\n"
    )
    assert _run_script(script, "--version") == (0, "flagkin 0.1.0\n", "callback ran")
    assert _run_script(script, "dim", "--n", "1") == (
        1, "", "flagkin: error: n must be at least 2\ncallback ran"
    )


LEAVES_STDOUT = "import sys\nsys.stdout.write('left')\nfrom flagkin import cli\ncli.run()\n"


def test_run_flushes_what_is_left_in_stdout():
    assert _run_script(LEAVES_STDOUT, "dim", "--n", "1") == (
        1, "left", "flagkin: error: n must be at least 2\n"
    )


def test_run_reports_a_failed_last_flush_in_one_line():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as full:
        result = _run_script(LEAVES_STDOUT, "dim", "--n", "4", "--output", os.devnull, stdout=full)
    assert result == (1, "", "flagkin: error: cannot write stdout: No space left on device\n")


def test_a_profiled_request_still_writes_the_profile():
    proc = _python(
        "-m", "cProfile", "-m", "flagkin.cli", "--version",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert out.startswith(b"flagkin 0.1.0\n")
    assert b" function calls " in out


def test_verify_under_cprofile_prints_what_a_plain_run_prints(tmp_path):
    # run as __main__ under cProfile, the module is not sys.modules["__main__"]
    argv = ["verify", "--n", "3", "--p", "1"]
    plain = _flagkin(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE).communicate(timeout=120)
    profile = tmp_path / "verify.prof"
    proc = _python(
        "-m", "cProfile", "-o", str(profile), "-m", "flagkin.cli", *argv,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (0, *plain)
    assert out.startswith(b"verify n=3 p=1\n") and profile.stat().st_size > 0


def test_a_large_table_through_a_pipe_matches_its_digest():
    # several MB each, all of which must reach the pipe before the process exits
    from test_golden_output import LARGEST_TABLE_DIGESTS, largest_table_requests

    h = hashlib.sha256()
    for argv in largest_table_requests("json"):
        proc = _flagkin(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=300)
        assert err == b""
        h.update(f"{' '.join(argv)}\n{proc.returncode}\n".encode())
        h.update(out)
    assert h.hexdigest() == LARGEST_TABLE_DIGESTS["json"]


def test_the_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["flagkin"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "dim", "--n", "4", "--format", "json", "--output", str(path)
    )
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert [r["dimension"] for r in data["rows"]] == [1, 6, 6, 1]


def test_coproduct_other_formats(capsys):
    code, out, _ = run(
        capsys, "coproduct", "--n", "4", "--p", "1", "--basis", "S",
        "--k", "1", "--i", "0", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "left,right,num,den,units"
    code, out, _ = run(
        capsys, "coproduct", "--n", "4", "--p", "1", "--basis", "S",
        "--k", "1", "--i", "0", "--format", "latex",
    )
    assert code == 0 and "\\begin{tabular}" in out and "\\omega_{4}^{-1}" in out
    code, out, _ = run(
        capsys, "table", "--n", "3", "--p", "1", "--basis", "Phi", "--format", "csv"
    )
    assert code == 0 and out.splitlines()[0] == "input,left,right,num,den,units"


@pytest.mark.parametrize("n", [2, 4, 5])
def test_table_with_one_table_prints_the_sweep_form(capsys, n):
    # table --hug-weil at p = n - 1 builds only Sp[0]; it is still a sweep
    head = ["table", "--n", str(n), "--p", str(n - 1), "--hug-weil", "--format"]
    code, out, _ = run(capsys, *head, "json")
    data = json.loads(out)
    assert code == 0 and data["schema"] == "flagkin/tables/v1"
    assert [t["input"] for t in data["tables"]] == ["Sp[0]"]
    code, out, _ = run(capsys, *head, "csv")
    assert code == 0 and out.splitlines()[0] == "input,left,right,num,den,units"
    assert out.splitlines()[1:] == ["Sp[0],Sp[0],Sp[0],1,1,omega(1)^-1"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    import flagkin.cli as cli

    broken = (("always fails", lambda ctx: "planted counterexample"),) + cli.VERIFY_SUITES
    monkeypatch.setattr(cli, "VERIFY_SUITES", broken)
    code, out, _ = run(capsys, "verify", "--n", "3", "--p", "1")
    assert code == 2
    assert "first counterexample: always fails: planted counterexample" in out


def test_verify_reports_a_suite_that_raises(capsys, monkeypatch):
    import flagkin.cli as cli
    from flagkin.errors import NotHomogeneous

    def raises(ctx):
        raise NotHomogeneous("element is not homogeneous of degree 3")

    suites = (("fails", lambda ctx: "planted counterexample"), ("raises", raises))
    monkeypatch.setattr(cli, "VERIFY_SUITES", suites)
    code, out, err = run(capsys, "verify", "--n", "3", "--p", "1")
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "verify n=3 p=1",
        "  [FAIL] fails",
        "  [FAIL] raises",
        "first counterexample: fails: planted counterexample",
    ]
    monkeypatch.setattr(cli, "VERIFY_SUITES", suites[::-1])
    code, out, _ = run(capsys, "verify", "--n", "3", "--p", "1")
    assert code == 2
    assert out.splitlines()[-1] == (
        "first counterexample: raises: element is not homogeneous of degree 3"
    )


def test_colliding_chord_leads_are_a_one_line_error(capsys, monkeypatch):
    from flagkin import rotation_algebra

    lead = rotation_algebra._chord_lead
    monkeypatch.setattr(rotation_algebra, "_chord_lead", lambda diag, matching: lead((), matching))
    code, out, err = run(capsys, "dim", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "flagkin: error: chord leads collide at n=3, k=1\n"
    code, out, _ = run(capsys, "verify", "--n", "3", "--p", "0")
    assert code == 2 and "  [FAIL] dimensions" in out.splitlines()
    assert out.endswith("first counterexample: dimensions: chord leads collide at n=3, k=1\n")


def test_exceptional_coproduct_cli(capsys):
    code, out, _ = run(capsys, "coproduct", "--n", "3", "--p", "1", "--basis", "Phi", "--ex")
    assert code == 0
    assert "PhiEx (x) Phi[0,0]" in out
    code, _, err = run(capsys, "coproduct", "--n", "4", "--p", "1", "--basis", "Phi", "--ex")
    assert code == 1


def test_output_error_is_one_line(tmp_path, capsys):
    code, out, err = run(capsys, "dim", "--n", "4", "--output", str(tmp_path / "missing" / "x"))
    assert code == 1 and out == ""
    assert err.startswith("flagkin: error: cannot write") and err.count("\n") == 1
    (tmp_path / "sub").mkdir()
    code, _, err = run(capsys, "dim", "--n", "4", "--output", str(tmp_path / "sub"))
    assert code == 1 and err.startswith("flagkin: error: cannot write")
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]  # no partial file left


def test_bad_max_n_env_is_one_line(capsys, monkeypatch):
    monkeypatch.setenv("FLAGKIN_MAX_N", "abc")
    code, out, err = run(capsys, "dim", "--n", "4")
    assert code == 1 and out == ""
    assert err == "flagkin: error: FLAGKIN_MAX_N='abc' is not an integer\n"


def test_output_to_fifo(tmp_path, capsys):
    # A non-regular target (FIFO, device, /dev/fd) is written, not replaced.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, err = run(capsys, "dim", "--n", "4", "--output", str(fifo))
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 1 << 16).decode().startswith("rotation algebra")
    finally:
        os.close(reader)


def test_output_to_dev_stdout_on_a_pipe():
    # /dev/stdout on a pipe resolves to pipe:[...], which names no file
    plain, _ = _flagkin("dim", "--n", "4", stdout=subprocess.PIPE).communicate(timeout=120)
    proc = _flagkin(
        "dim", "--n", "4", "--output", "/dev/stdout", stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert out == plain and out.startswith(b"rotation algebra")


def test_output_through_symlink(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    code, _, _ = run(capsys, "dim", "--n", "4", "--output", str(link))
    assert code == 0
    assert link.is_symlink()
    assert target.read_text().startswith("rotation algebra")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_output_keeps_existing_mode(tmp_path, capsys):
    target = tmp_path / "private.txt"
    target.write_text("old\n")
    target.chmod(0o600)
    code, _, _ = run(capsys, "dim", "--n", "4", "--output", str(target))
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert target.read_text().startswith("rotation algebra")


def test_presented_commands_have_their_own_guard(capsys, monkeypatch):
    monkeypatch.delenv("FLAGKIN_MAX_N", raising=False)
    code, out, _ = run(capsys, "table", "--n", "12", "--p", "5")
    assert code == 0 and out.startswith("A(S[0,0])  [n=12, p=5]")
    code, _, err = run(capsys, "table", "--n", "31", "--p", "10")
    assert code == 1 and "max-n=30" in err
    code, _, err = run(capsys, "verify", "--n", "9", "--p", "4")
    assert code == 1 and "max-n=8" in err
    code, _, _ = run(capsys, "coproduct", "--n", "12", "--p", "5", "--k", "3", "--i", "1", "--max-n", "11")
    assert code == 1


def test_basis_guard_depends_on_the_form(capsys, monkeypatch):
    monkeypatch.delenv("FLAGKIN_MAX_N", raising=False)
    code, out, _ = run(capsys, "basis", "--n", "12", "--p", "5", "--k", "5", "--basis", "S")
    assert code == 0 and out.splitlines()[0].startswith("S[")
    code, _, err = run(capsys, "basis", "--n", "31", "--p", "5", "--k", "5", "--basis", "S")
    assert code == 1 and "max-n=30" in err
    code, out, err = run(capsys, "basis", "--n", "12", "--k", "5")
    assert code == 1 and out == "" and "max-n=8" in err


def test_dim_guard_depends_on_the_form(capsys, monkeypatch):
    monkeypatch.delenv("FLAGKIN_MAX_N", raising=False)
    code, out, _ = run(capsys, "dim", "--n", "12", "--p", "5")
    assert code == 0 and out.startswith("flag invariant subalgebra dimensions, n=12, p=5")
    code, _, err = run(capsys, "dim", "--n", "31", "--p", "5")
    assert code == 1 and "max-n=30" in err
    code, out, err = run(capsys, "dim", "--n", "12")
    assert code == 1 and out == "" and "max-n=8" in err



@pytest.mark.parametrize("k", ["9", "4", "-1"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_basis_refuses_a_degree_out_of_range_in_both_forms(capsys, k, fmt):
    for form in ((), ("--p", "1")):
        code, out, err = run(capsys, "basis", "--n", "4", *form, "--k", k, "--format", fmt)
        assert (code, out) == (1, ""), form
        assert err == f"flagkin: error: k={k} outside 0..3\n", form

# Modules a presented request must not load: the dataclass machinery (with
# inspect behind it), which no module uses, rotation_algebra, which only
# dim without --p, verify and the chord basis need, linalg, which only
# verify needs, the exterior oracle, which only verify needs, and
# scalars, whose unit-carrying Scalar only the oracle pairings use.
ORACLE_MODULES = {
    "dataclasses",
    "inspect",
    "flagkin.exterior",
    "flagkin.rotation_algebra",
    "flagkin.linalg",
    "flagkin.verify",
    "flagkin.grassmann_oracle",
    "flagkin.scalars",
}

PRESENTED_REQUESTS = {
    "table": ["-m", "flagkin.cli", "table", "--n", "5", "--p", "2", "--format", "json"],
    "coproduct": ["-m", "flagkin.cli", "coproduct", "--n", "5", "--p", "2", "--k", "2", "--i", "1"],
    "product": [
        "-m", "flagkin.cli", "product", "--n", "5", "--p", "2", "--basis", "Phi",
        "--k", "1", "--a", "0", "--k2", "1", "--a2", "1",
    ],
    "basis --p": ["-m", "flagkin.cli", "basis", "--n", "5", "--p", "2", "--k", "2"],
    "dim --p": ["-m", "flagkin.cli", "dim", "--n", "5", "--p", "2"],
}

# The engine module a presented request is seen to load, when not measures.
PRESENTED_ENGINE = {"dim --p": "flagkin.invariant_algebras"}


def _import_run(*args, **env) -> tuple[set[str], int, str, str]:
    """Run args in a fresh interpreter under -X importtime, with env added to the environment.

    Returns every module it imports, its exit code, its stdout, and its
    stderr without the import time lines.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=_env(**env)
    )
    lines = proc.stderr.splitlines(keepends=True)
    timed = [l for l in lines if l.startswith("import time:")]
    assert timed, proc.stderr
    modules = {line.rsplit("|", 1)[1].strip() for line in timed[1:]}
    err = "".join(l for l in lines if not l.startswith("import time:"))
    return modules, proc.returncode, proc.stdout, err


def _loaded_modules(*args) -> set[str]:
    """Every module a fresh interpreter imports to run args, which must succeed."""
    modules, code, _, err = _import_run(*args)
    assert code == 0, err
    return modules


@functools.lru_cache(maxsize=None)
def _bare_interpreter_modules() -> frozenset[str]:
    return frozenset(_loaded_modules("-c", "pass"))


@pytest.mark.parametrize("request_name", sorted(PRESENTED_REQUESTS))
def test_presented_requests_load_no_oracle(request_name):
    loaded = _loaded_modules(*PRESENTED_REQUESTS[request_name]) - _bare_interpreter_modules()
    assert PRESENTED_ENGINE.get(request_name, "flagkin.measures") in loaded  # the engine is seen
    assert not loaded & ORACLE_MODULES, sorted(loaded & ORACLE_MODULES)


# Every request prints JSON by template, in cli.  So no request loads json.
# Each request names the engine module it is seen to load.
JSON_REQUESTS = {
    "table": (PRESENTED_REQUESTS["table"], "flagkin.kinematics"),
    "coproduct": ([*PRESENTED_REQUESTS["coproduct"], "--format", "json"], "flagkin.kinematics"),
    "product": ([*PRESENTED_REQUESTS["product"], "--format", "json"], "flagkin.measures"),
    "dim": (["-m", "flagkin.cli", "dim", "--n", "5", "--format", "json"], "flagkin.rotation_algebra"),
    "dim --p": ([*PRESENTED_REQUESTS["dim --p"], "--format", "json"], "flagkin.invariant_algebras"),
    "basis": (
        ["-m", "flagkin.cli", "basis", "--n", "5", "--k", "2", "--format", "json"],
        "flagkin.rotation_algebra",
    ),
    "basis --p": ([*PRESENTED_REQUESTS["basis --p"], "--format", "json"], "flagkin.measures"),
}


@pytest.mark.parametrize("request_name", sorted(JSON_REQUESTS))
def test_json_requests_load_no_json_encoder(request_name):
    args, engine = JSON_REQUESTS[request_name]
    loaded = _loaded_modules(*args) - _bare_interpreter_modules()
    assert engine in loaded
    encoder = {m for m in loaded if m == "json" or m.startswith("json.")}
    assert not encoder, sorted(encoder)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_product_loads_no_kinematics(fmt):
    # product prints with cli's formatters in the unit measures.family_unit gives
    loaded = _loaded_modules(*PRESENTED_REQUESTS["product"], "--format", fmt)
    assert "flagkin.measures" in loaded
    assert "flagkin.kinematics" not in loaded


CHORD_REQUESTS = {
    "dim": ["-m", "flagkin.cli", "dim", "--n", "8"],
    "basis": ["-m", "flagkin.cli", "basis", "--n", "8", "--k", "3"],
}


@pytest.mark.parametrize("request_name", sorted(CHORD_REQUESTS))
def test_chord_requests_build_no_form(request_name):
    loaded = _loaded_modules(*CHORD_REQUESTS[request_name]) - _bare_interpreter_modules()
    assert "flagkin.rotation_algebra" in loaded
    forms = loaded & {"flagkin.exterior", "flagkin.grassmann_oracle"}
    assert not forms, sorted(forms)


# Modules that only the presented engine and the oracle need: the chord
# requests count and list index sets, with no rational arithmetic.
PRESENTED_ONLY = {
    "fractions",
    "decimal",
    "flagkin.scalars",
    "flagkin.measures",
    "flagkin.kinematics",
    "flagkin.invariant_algebras",
    "flagkin.linalg",
}


@pytest.mark.parametrize("request_name", sorted(CHORD_REQUESTS))
def test_chord_requests_load_no_rationals(request_name):
    loaded = _loaded_modules(*CHORD_REQUESTS[request_name]) - _bare_interpreter_modules()
    assert "flagkin.rotation_algebra" in loaded
    assert not loaded & PRESENTED_ONLY, sorted(loaded & PRESENTED_ONLY)


# The rational number modules: fractions, and decimal and numbers behind it.
RATIONALS = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("request_name", sorted(PRESENTED_REQUESTS))
def test_presented_requests_load_no_rationals(request_name):
    # the presented engine computes in integers over one denominator
    loaded = _loaded_modules(*PRESENTED_REQUESTS[request_name]) - _bare_interpreter_modules()
    assert PRESENTED_ENGINE.get(request_name, "flagkin.measures") in loaded
    assert not loaded & RATIONALS, sorted(loaded & RATIONALS)


# Under -S no .pth file preloads typing, and re with it, so a run sees
# every module that flagkin itself imports.  No request needs typing or re.
UNNEEDED = {"typing", "re"}

VERIFY_REQUESTS = {
    "verify 5 2": ["-m", "flagkin.cli", "verify", "--n", "5", "--p", "2"],
    "verify 3 1": ["-m", "flagkin.cli", "verify", "--n", "3", "--p", "1"],
}


@pytest.mark.parametrize("request_name", sorted(PRESENTED_REQUESTS))
def test_presented_requests_load_no_typing(request_name):
    loaded = _loaded_modules("-S", *PRESENTED_REQUESTS[request_name])
    assert PRESENTED_ENGINE.get(request_name, "flagkin.measures") in loaded
    assert not loaded & UNNEEDED, sorted(loaded & UNNEEDED)


@pytest.mark.parametrize("request_name", sorted(VERIFY_REQUESTS))
def test_verify_requests_load_no_rationals(request_name):
    # the oracle's forms, the scalars and the table checks compute in integers,
    # and only SparseEchelon.reduce, which no request reaches, uses heapq
    loaded = _loaded_modules("-S", *VERIFY_REQUESTS[request_name])
    assert "flagkin.grassmann_oracle" in loaded  # the oracle ran
    forbidden = RATIONALS | UNNEEDED | {"heapq", "_heapq"}
    assert not loaded & forbidden, sorted(loaded & forbidden)


def test_version_loads_only_the_command_line():
    loaded = _loaded_modules("-m", "flagkin.cli", "--version") - _bare_interpreter_modules()
    flagkin_modules = {m for m in loaded if m.startswith("flagkin")}
    assert flagkin_modules <= {"flagkin", "flagkin.cli", "flagkin.errors"}, sorted(flagkin_modules)
    assert not loaded & ORACLE_MODULES, sorted(loaded & ORACLE_MODULES)


# What argparse brings (gettext and locale behind its messages, textwrap
# behind its help), and tempfile, which only a replaced --output file needs.
PARSER_MODULES = {"argparse", "gettext", "locale", "textwrap", "tempfile"}

WELL_FORMED_REQUESTS = {
    **PRESENTED_REQUESTS,
    **CHORD_REQUESTS,
    "--version": ["-m", "flagkin.cli", "--version"],
    "verify": ["-m", "flagkin.cli", "verify", "--n", "3", "--p", "1"],
}


@pytest.mark.parametrize("request_name", sorted(WELL_FORMED_REQUESTS))
def test_well_formed_requests_load_no_parser(request_name):
    # -S: a .pth file in site-packages may import tempfile and its kin first
    loaded = _loaded_modules("-S", *WELL_FORMED_REQUESTS[request_name])
    assert "flagkin.errors" in loaded  # the command line ran
    assert not loaded & PARSER_MODULES, sorted(loaded & PARSER_MODULES)


@pytest.mark.parametrize("name", ["table --help", "unrecognized argument"])
def test_help_and_usage_errors_load_argparse(name):
    from test_golden_output import USAGE_DIGESTS, USAGE_REQUESTS

    loaded, code, out, err = _import_run(
        "-S", "-m", "flagkin.cli", *USAGE_REQUESTS[name], COLUMNS="80"
    )
    assert "argparse" in loaded
    text = f"{code}\n{out}\0{err}"
    assert hashlib.sha256(text.encode()).hexdigest() == USAGE_DIGESTS[name], text


# Every form of every command, each of which the direct parse must take.
WELL_FORMED_ARGV = [
    ["dim", "--n", "5"],
    ["dim", "--n", "5", "--p", "2", "--format", "csv", "--max-n", "9"],
    ["basis", "--n", "5", "--k", "2", "--format", "json"],
    ["basis", "--n", "5", "--p", "2", "--k", "2", "--basis", "Phi"],
    ["product", "--n", "5", "--p", "2", "--basis", "Phi", "--k", "1", "--a", "0", "--k2", "1",
     "--a2", "1"],
    ["product", "--n", "5", "--p", "2", "--k", "1", "--i", "0", "--ex2", "--format", "json"],
    ["product", "--n", "5", "--p", "2", "--ex", "--k2", "1", "--i2", "1"],
    ["coproduct", "--n", "5", "--p", "2", "--k", "2", "--i", "1", "--format", "latex"],
    ["coproduct", "--n", "5", "--p", "2", "--ex", "--basis", "Phi"],
    ["table", "--n", "8", "--p", "3", "--format", "json", "--output", "tables.json"],
    ["table", "--n", "5", "--p", "2", "--hug-weil", "--format", "csv"],
    ["table", "--p", "1", "--n", "4", "--n", "6", "--basis", "Phi"],
    ["verify", "--n", "4", "--p", "1"],
]


def _argparse_vars(argv, command):
    """vars() of what the parser of command (or of every command) gives argv, or its refusal."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(cli.build_parser(command).parse_args(argv))
        except SystemExit as exc:
            return f"exit {exc.code}: {err.getvalue()}"


@pytest.mark.parametrize("argv", WELL_FORMED_ARGV, ids=" ".join)
def test_well_formed_requests_take_the_direct_parse(argv):
    args = cli._direct_parse(argv)
    assert args is not None
    assert vars(args) == _argparse_vars(argv, argv[0]) == _argparse_vars(argv, None)


# Tokens outside the direct grammar: help, the end of options, an option of
# the top-level parser, unknown and abbreviated options, and --opt=value.
ODD_TOKENS = [
    "-h", "--help", "--", "--version", "--bogus", "-n",
    "--max", "--hug", "--fo", "--ba", "--ex3", "--n=4", "--format=json", "--basis=Phi",
]
# Values argparse reads differently or refuses: negative, non-numeric, empty,
# padded and wrongly cased ones, and choices of no option.
ODD_VALUES = ["-1", "-0", "+3", " 3", "abc", "1.5", "", "Psi", "xml", "TEXT", "s", "--n"]


def _values(kind):
    """Values for an option of kind; a choice may be that of another option or none."""
    if kind is int:
        return st.integers(0, 12).map(str)
    if kind is str:
        return st.sampled_from(["out.txt", "a b", "x=1"])
    return st.sampled_from(sorted({*kind, *cli.ALL_FORMATS, "Phi", "S", "xml", "TEXT"}))


@st.composite
def _requests(draw):
    """An argv drawn from the grammar's vocabulary, mostly well formed."""
    command = draw(st.sampled_from([*cli.GRAMMAR, *cli.GRAMMAR, "frobnicate", "--n"]))
    options = cli._options(command if command in cli.GRAMMAR else "product")
    argv = [command]
    if draw(st.integers(0, 4)):
        argv += ["--n", draw(_values(int))]
    for _ in range(draw(st.integers(0, 6))):
        flag, kind, _, _ = draw(st.sampled_from(options))
        how = draw(st.integers(0, 9))
        if how < 7:
            argv.append(flag)
            if kind is not bool:
                argv.append(draw(_values(kind)))
        elif how < 9:
            argv += [flag, draw(st.sampled_from(ODD_VALUES))]
        else:
            argv.append(draw(st.sampled_from(ODD_TOKENS)))
    return argv


@given(_requests())
@settings(max_examples=400, deadline=None)
def test_direct_parse_is_argparse_on_what_it_accepts(argv):
    args = cli._direct_parse(argv)
    if args is not None:
        assert vars(args) == _argparse_vars(argv, argv[0]) == _argparse_vars(argv, None), argv
