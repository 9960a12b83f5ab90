"""flagkin command line: dimensions, bases, products, kinematic tables, verify.

Exit codes: 0 success, 1 bad usage or invalid arguments, 2 a verification
suite failed (the first counterexample is printed).  Output is
byte-identical across runs for identical requests.
"""

from __future__ import annotations

import atexit
import os
import stat
import sys
from types import SimpleNamespace

# The engines are imported inside the commands that use them: dim without
# --p and the chord basis load only rotation_algebra, the other commands
# the presented engine, and verify the exterior oracle.
from . import __version__
from .errors import FlagkinError, ValidationError

# Default size guards.  verify builds exterior forms, whose cost grows
# like 4^n.  dim checks one lead key per chord monomial, and the
# chord-diagram basis prints one line per monomial: Narayana(n, k) in
# degree k, Catalan(n) in all, which also grows like 4^n.  table,
# coproduct and product compute in the x, y, u presentation, in integers,
# where the slowest table at n = 30 takes one to two seconds, and basis --p
# and dim --p only list measure labels or count them.
DEFAULT_MAX_N = 8
PRESENTED_MAX_N = 30
ALL_FORMATS = ("text", "json", "csv", "latex")


def _max_n(args, default: int) -> int:
    if args.max_n is not None:
        return args.max_n
    raw = os.environ.get("FLAGKIN_MAX_N", str(default))
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"FLAGKIN_MAX_N={raw!r} is not an integer") from None


def _guard(args, default: int = DEFAULT_MAX_N) -> None:
    limit = _max_n(args, default)
    if args.n > limit:
        raise ValidationError(
            f"n={args.n} exceeds the budget guard max-n={limit} "
            "(raise with --max-n or FLAGKIN_MAX_N)"
        )
    if args.n < 2:
        raise ValidationError("n must be at least 2")


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write the chunks to stdout, looked up now, and flush it; a failure is one ValidationError."""
    out = sys.stdout
    try:
        out.writelines(chunks)
        out.flush()
    except OSError as exc:
        # run() flushes stdout again before the process exits, and the
        # interpreter does at exit when main is called in-process; point the
        # stream at /dev/null, so that flush adds no second message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        raise ValidationError(f"cannot write stdout: {exc.strerror or exc}") from None


def _emit(args, chunks: Iterable[str]) -> None:
    """Write the chunks, in order, to stdout or --output.

    stdout is looked up at write time and flushed here, so that a closed
    pipe or a full device is reported as a one-line error.  A regular or
    missing file is replaced whole through a temporary file in its
    directory, so a failed request leaves no partial file; symlinks are
    followed and an existing file keeps its mode.  Devices, FIFOs and
    /dev/fd paths are written directly, through the path as given.
    """
    if not args.output:
        _write_stdout(chunks)
        return
    try:
        try:
            mode = os.stat(args.output).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(args.output, "w") as fh:
                fh.writelines(chunks)
            return
        path = os.path.realpath(args.output)
        if mode is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        import tempfile  # only a replaced file needs it, and it loads re, shutil and random

        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.output}: {exc.strerror or exc}") from None


# -- renderings -------------------------------------------------------------------
#
# Every output is formatted here.  JSON is formatted by template, in the
# bytes json.dumps(..., indent=2) prints: labels, chord monomials and unit
# symbols hold no character that JSON escapes.  A coefficient is a reduced
# (num, den) in the unit omega_m^-1, which each formatter formats once.


def text_coefficient(m: int):
    """The formatter of a (num, den) coefficient in the unit omega_m^-1: num/den * omega(m)^-1."""
    unit = f" * omega({m})^-1"
    return lambda c: f"{c[0]}/{c[1]}{unit}"


def json_coefficient(m: int, pad: str):
    """The formatter of a (num, den) coefficient in the unit omega_m^-1, as JSON {num, den, units}.

    pad is the indentation of the line the object opens on.
    """
    key = pad + "  "
    units = (
        f'"units": [\n{key}  {{\n{key}    "sym": "omega({m})",\n{key}    "exp": -1\n'
        f"{key}  }}\n{key}]\n{pad}}}"
    )
    return lambda c: f'{{\n{key}"num": {c[0]},\n{key}"den": {c[1]},\n{key}{units}'


def json_array(items: list[str], pad: str) -> str:
    """The JSON text of an array of formatted items, closed at indentation pad."""
    return ("[\n" + ",\n".join(items) + f"\n{pad}]") if items else "[]"


def latex_coefficient(m: int):
    """The formatter of a (num, den) coefficient in omega_m^-1, as -\\frac{1}{2}\\omega_{m}^{-1}."""
    unit = f"\\omega_{{{m}}}^{{-1}}"

    def fmt(c: Ratio) -> str:
        num, den = c
        body = f"{abs(num)}" if den == 1 else f"\\frac{{{abs(num)}}}{{{den}}}"
        return f"{'-' if num < 0 else ''}{body}{unit}"

    return fmt


def table_to_text(table: KinematicTable) -> str:
    head = f"A({table.input.to_text()})  [n={table.ctx.n}, p={table.ctx.p}]"
    coeff = text_coefficient(table.unit)
    rows = [f"  {l.to_text()} (x) {r.to_text()}  :  {coeff(c)}" for l, r, c in table.terms]
    return "\n".join([head] + rows)


def table_to_json(table: KinematicTable, pad: str = "") -> str:
    """The table as json.dumps(..., indent=2) prints it at indentation pad, with no final newline."""
    item, key = pad + "    ", pad + "      "
    coeff = json_coefficient(table.unit, key)
    terms = [
        f'{item}{{\n{key}"left": "{l.to_text()}",\n{key}"right": "{r.to_text()}",\n'
        f'{key}"coeff": {coeff(c)}\n{item}}}'
        for l, r, c in table.terms
    ]
    return (
        f'{pad}{{\n{pad}  "schema": "flagkin/table/v1",\n{pad}  "n": {table.ctx.n},\n'
        f'{pad}  "p": {table.ctx.p},\n{pad}  "input": "{table.input.to_text()}",\n'
        f'{pad}  "terms": {json_array(terms, pad + "  ")}\n{pad}}}'
    )


def csv_rows(table: KinematicTable) -> list[str]:
    """One "left,right,num,den,units" line per term of the table."""
    units = f"omega({table.unit})^-1"
    return [
        f"{l.to_text()},{r.to_text()},{num},{den},{units}"
        for l, r, (num, den) in table.terms
    ]


def table_to_csv(table: KinematicTable) -> str:
    return "\n".join(["left,right,num,den,units", *csv_rows(table)]) + "\n"


def _label_to_latex(label: MeasureLabel) -> str:
    if label.kind == "Phi":
        return f"\\Phi_{{{label.k},{label.idx}}}"
    if label.kind == "S":
        return f"S_{{{label.k}}}^{{({label.idx})}}"
    if label.kind == "PhiEx":
        return "\\Phi_{ex}"
    return f"S_{{{label.k}}}^{{(p)}}"


def table_to_latex(table: KinematicTable) -> str:
    coeff = latex_coefficient(table.unit)
    rows = [
        f"{_label_to_latex(l)} \\otimes {_label_to_latex(r)} & {coeff(c)} \\\\"
        for l, r, c in table.terms
    ]
    return "\n".join(
        [
            f"% A({table.input.to_text()}), n={table.ctx.n}, p={table.ctx.p}",
            "\\begin{tabular}{ll}",
            *rows,
            "\\end{tabular}",
        ]
    )


def _ctx(args) -> FlagContext:
    from .invariant_algebras import FlagContext

    if args.p is None:
        raise ValidationError("this request needs --p")
    if not 0 <= args.p <= args.n - 1:
        raise ValidationError(f"p={args.p} outside 0..{args.n - 1}")
    return FlagContext(args.n, args.p)


def _input_label(ctx: FlagContext, args, suffix: str = "") -> MeasureLabel:
    """The label named by --ex, --k, --a and --i, or by the flags ending in suffix."""
    from .measures import PHI_EX, phi_label, s_label, validate_label

    if getattr(args, "ex" + suffix):
        if not ctx.exceptional:
            raise ValidationError(
                f"--ex{suffix} needs odd n with p == q, got n={ctx.n}, p={ctx.p}"
            )
        return PHI_EX
    k = getattr(args, "k" + suffix)
    if k is None:
        raise ValidationError(f"need --k{suffix} (or --ex{suffix})")
    if not 0 <= k <= ctx.n - 1:
        raise ValidationError(f"k{suffix}={k} outside 0..{ctx.n - 1}")
    name = ("a" if args.basis == "Phi" else "i") + suffix
    idx = getattr(args, name)
    if idx is None:
        raise ValidationError(f"need --{name} for basis {args.basis}")
    label = phi_label(k, idx) if args.basis == "Phi" else s_label(k, idx)
    try:
        validate_label(ctx, label)
    except FlagkinError as exc:
        raise ValidationError(str(exc)) from exc
    return label


# -- commands -------------------------------------------------------------------


def cmd_dim(args) -> int:
    # invariant dimensions (--p) are counted; rotation dimensions build a rank
    _guard(args, DEFAULT_MAX_N if args.p is None else PRESENTED_MAX_N)
    if args.p is None:
        from .rotation_algebra import graded_dimension

        dims = [graded_dimension(args.n, k) for k in range(args.n)]
        title = f"rotation algebra graded dimensions, n={args.n}"
    else:
        from .invariant_algebras import invariant_dimension

        ctx = _ctx(args)
        dims = [invariant_dimension(ctx, k) for k in range(args.n)]
        title = f"flag invariant subalgebra dimensions, n={args.n}, p={args.p}"
    if args.format == "json":
        rows = ",\n".join(
            f'    {{\n      "k": {k},\n      "dimension": {d}\n    }}' for k, d in enumerate(dims)
        )
        _emit(args, [f'{{\n  "title": "{title}",\n  "rows": [\n{rows}\n  ]\n}}\n'])
    elif args.format == "csv":
        lines = ["k,dimension"] + [f"{k},{d}" for k, d in enumerate(dims)]
        _emit(args, ["\n".join(lines) + "\n"])
    elif args.format == "latex":
        body = " & ".join(map(str, dims))
        text = f"% {title}\n\\begin{{tabular}}{{{'c' * args.n}}}\n{body} \\\\\n\\end{{tabular}}\n"
        _emit(args, [text])
    else:
        lines = [title] + [f"  k={k}: {d}" for k, d in enumerate(dims)]
        _emit(args, ["\n".join(lines) + "\n"])
    return 0


def cmd_basis(args) -> int:
    # measure labels (--p) are only listed; a chord basis has Narayana(n, k) lines
    _guard(args, DEFAULT_MAX_N if args.p is None else PRESENTED_MAX_N)
    if args.k is None:
        raise ValidationError("need --k")
    if not 0 <= args.k <= args.n - 1:
        raise ValidationError(f"k={args.k} outside 0..{args.n - 1}")
    if args.p is None:
        from .rotation_algebra import chord_basis, chord_text

        mons = [chord_text(*m) for m in chord_basis(args.n, args.k)]
        if args.format == "json":
            items = json_array([f'    "{m}"' for m in mons], "  ")
            text = (
                f'{{\n  "n": {args.n},\n  "k": {args.k},\n  "count": {len(mons)},\n'
                f'  "monomials": {items}\n}}\n'
            )
            _emit(args, [text])
        else:
            lines = [f"chord basis n={args.n} k={args.k} ({len(mons)} monomials)"]
            lines += [f"  {m}" for m in mons]
            _emit(args, ["\n".join(lines) + "\n"])
        return 0
    from .measures import basis_labels

    ctx = _ctx(args)
    labels = basis_labels(ctx, args.k, args.basis)
    if args.format == "json":
        items = json_array([f'    "{l.to_text()}"' for l in labels], "  ")
        text = (
            f'{{\n  "n": {ctx.n},\n  "p": {ctx.p},\n  "k": {args.k},\n  "basis": "{args.basis}",\n'
            f'  "labels": {items}\n}}\n'
        )
        _emit(args, [text])
    else:
        _emit(args, ["\n".join(l.to_text() for l in labels) + "\n"])
    return 0


def cmd_product(args) -> int:
    from .measures import dual_product, family_unit

    _guard(args, PRESENTED_MAX_N)
    ctx = _ctx(args)
    left = _input_label(ctx, args)
    right = _input_label(ctx, args, "2")
    deg = left.degree(ctx) + right.degree(ctx)
    if deg > ctx.n - 1:
        raise ValidationError(f"total degree {deg} exceeds n-1={ctx.n - 1}")
    terms = sorted(dual_product(ctx, left, right, args.basis).items())
    unit = family_unit(ctx, args.basis)
    if args.format == "json":
        coeff = json_coefficient(unit, "      ")
        items = [
            f'    {{\n      "label": "{l.to_text()}",\n      "coeff": {coeff(c)}\n    }}'
            for l, c in terms
        ]
        text = (
            f'{{\n  "schema": "flagkin/product/v1",\n  "n": {ctx.n},\n  "p": {ctx.p},\n'
            f'  "basis": "{args.basis}",\n  "left": "{left.to_text()}",\n'
            f'  "right": "{right.to_text()}",\n  "terms": {json_array(items, "  ")}\n}}\n'
        )
        _emit(args, [text])
    else:
        coeff = text_coefficient(unit)
        lines = [f"{left.to_text()}* . {right.to_text()}*  [n={ctx.n}, p={ctx.p}]"]
        lines += [f"  {l.to_text()}* : {coeff(c)}" for l, c in terms]
        _emit(args, ["\n".join(lines) + "\n"])
    return 0


def _joined(parts: Iterable[str], sep: str, head: str = "", tail: str = "\n") -> Iterator[str]:
    """head + sep.join(parts) + tail, one string per part (parts is not empty)."""
    lead = head
    for part in parts:
        yield lead + part
        lead = sep
    yield tail


def _render_tables(args, tables: list[KinematicTable], sweep: bool) -> Iterable[str]:
    """The tables in args.format, as a sweep (of one table or many) or as a coproduct's table.

    One string per table, each formatted only when it is taken, so the
    whole output is never held at once.
    """
    if args.format == "json":
        if not sweep:
            return [table_to_json(tables[0]) + "\n"]
        ctx = tables[0].ctx
        head = (
            f'{{\n  "schema": "flagkin/tables/v1",\n  "n": {ctx.n},\n  "p": {ctx.p},\n'
            '  "tables": [\n'
        )
        parts = (table_to_json(t, "    ") for t in tables)
        return _joined(parts, ",\n", head, "\n  ]\n}\n")
    if args.format == "csv":
        if not sweep:
            return [table_to_csv(tables[0])]
        parts = ("\n".join(f"{t.input.to_text()},{row}" for row in csv_rows(t)) for t in tables)
        return _joined(parts, "\n", "input,left,right,num,den,units\n")
    if args.format == "latex":
        return _joined(map(table_to_latex, tables), "\n")
    return _joined(map(table_to_text, tables), "\n\n")


def cmd_coproduct(args) -> int:
    from .kinematics import coproduct

    _guard(args, PRESENTED_MAX_N)
    ctx = _ctx(args)
    label = _input_label(ctx, args)
    table = coproduct(ctx, label, args.basis)
    _emit(args, _render_tables(args, [table], sweep=False))
    return 0


def cmd_table(args) -> int:
    from .kinematics import coproduct_tables, hug_weil_coproduct

    _guard(args, PRESENTED_MAX_N)
    ctx = _ctx(args)
    if args.hug_weil:
        tables = [hug_weil_coproduct(ctx, k) for k in range(ctx.n - ctx.p)]
    else:
        tables = list(coproduct_tables(ctx, args.basis).values())
    _emit(args, _render_tables(args, tables, sweep=True))
    return 0


# -- verify ----------------------------------------------------------------------


def __getattr__(name: str):
    # VERIFY_SUITES is imported from flagkin.verify on first use, because that
    # module loads the exterior oracle; a VERIFY_SUITES set on this module
    # (by a test or a tracer) takes precedence.
    if name == "VERIFY_SUITES":
        from .verify import VERIFY_SUITES

        return VERIFY_SUITES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_verify(args) -> int:
    _guard(args)
    ctx = _ctx(args)
    lines = [f"verify n={ctx.n} p={ctx.p}"]
    failure = None
    # A VERIFY_SUITES set on this module is in its globals, also where it
    # runs as __main__ under python -m cProfile, whose own module is then
    # sys.modules["__main__"].
    suites = globals().get("VERIFY_SUITES")
    for name, suite in __getattr__("VERIFY_SUITES") if suites is None else suites:
        try:
            detail = suite(ctx)
        except FlagkinError as exc:  # a suite that raises fails, and the report goes on
            detail = str(exc)
        ok = detail is None
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
        if not ok and failure is None:
            failure = f"{name}: {detail}"
    if failure:
        lines.append(f"first counterexample: {failure}")
    _emit(args, ["\n".join(lines) + "\n"])
    return 0 if failure is None else 2


# -- entry point -------------------------------------------------------------------


# The command-line grammar, stated once: per command its help, its --format
# choices and the options it adds to the common ones (_options).  An option
# is (flag, kind, default, help), where kind is int, str, a tuple of
# choices, or bool for a switch that is off by default.  --n is required.
_REQUIRED = "--n"


def _label_options(suffix: str = "") -> tuple:
    return (
        (f"--k{suffix}", int, None, None),
        (f"--a{suffix}", int, None, None),
        (f"--i{suffix}", int, None, None),
        (f"--ex{suffix}", bool, False, None),
    )


_BASIS = ("--basis", ("Phi", "S"), "S", None)
GRAMMAR = {
    "dim": ("graded dimensions", ALL_FORMATS, ()),
    "basis": (
        "chord basis or measure labels",
        ("text", "json"),
        (("--k", int, None, None), _BASIS),
    ),
    "product": (
        "dual basis product expansion",
        ("text", "json"),
        (_BASIS, *_label_options(), *_label_options("2")),
    ),
    "coproduct": ("kinematic table of one basis measure", ALL_FORMATS, (_BASIS, *_label_options())),
    "table": (
        "all kinematic tables for (n, p)",
        ALL_FORMATS,
        (_BASIS, ("--hug-weil", bool, False, "emit the rescaled S^(p) tables")),
    ),
    "verify": ("run all verification suites for (n, p)", ("text",), ()),
}


def _options(command: str) -> tuple:
    """The options of command in the order its help lists them: the common ones, then its own."""
    _, formats, own = GRAMMAR[command]
    return (
        ("--n", int, None, "ambient dimension"),
        ("--p", int, None, "plane dimension minus one"),
        ("--format", formats, "text", None),
        ("--output", str, None, "write to file instead of stdout"),
        ("--max-n", int, None, "override the size guard"),
        *own,
    )


def _command_function(command: str):
    # looked up when a request is parsed, so a wrapper set on this module
    # (by a tracer) is the one that runs
    return globals()[f"cmd_{command}"]


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The flagkin parser, with every subparser or with only that of command.

    main parses a well-formed request without it; argparse is loaded only
    here, for help and for the usage errors it words.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse ignores a failed write; help and --version, which go
            # to stdout, take the one error path of every other output
            if file is sys.stdout:
                _write_stdout([message])
            else:
                super()._print_message(message, file)

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = Parser(prog="flagkin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"flagkin {__version__}")
    # With one subparser the usage line must still name every command.
    metavar = None if command is None else "{" + ",".join(GRAMMAR) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in GRAMMAR if command is None else (command,):
        sp = sub.add_parser(name, help=GRAMMAR[name][0])
        for flag, kind, default, help in _options(name):
            if kind is bool:
                sp.add_argument(flag, action="store_true", help=help)
            else:
                sp.add_argument(
                    flag,
                    type=int if kind is int else None,
                    choices=kind if isinstance(kind, tuple) else None,
                    default=default,
                    required=flag == _REQUIRED,
                    help=help,
                )
        sp.set_defaults(func=_command_function(name))
    return parser


def _direct_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed request, or None to leave argv to argparse.

    A well-formed request is a command followed by exact long options of
    it, --n among them; a value option takes the next token, which must not
    start with "-" and must be an int or one of the choices where its kind
    asks.  A repeated option keeps its last value, as in argparse.  Every
    other input (help, --opt=value, an abbreviation, a negative number, an
    unknown token, a missing value or --n) goes to argparse, which accepts
    it or words the usage error.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    options = _options(argv[0])
    kinds = {flag: kind for flag, kind, _, _ in options}
    values = {flag: default for flag, _, default, _ in options}
    tokens = iter(argv[1:])
    for flag in tokens:
        kind = kinds.get(flag)
        if kind is None:
            return None
        if kind is bool:
            values[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        values[flag] = value
    if values[_REQUIRED] is None:
        return None
    dests = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], func=_command_function(argv[0]), **dests)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv == ["--version"]:
            _write_stdout([f"flagkin {__version__}\n"])
            return 0
        args = _direct_parse(argv)
        if args is None:
            # A request that names its command builds that command's subparser only.
            args = build_parser(argv[0] if argv and argv[0] in GRAMMAR else None).parse_args(argv)
        return args.func(args)
    except FlagkinError as exc:
        print(f"flagkin: error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry point: main, then stdout, the atexit callbacks and stderr, then exit.

    stdout is flushed through the one-line error path of every output, so a
    failed last write still exits 1.  The process then ends with os._exit,
    which skips the interpreter's finalization, the teardown of every module
    and the freeing of every object, most of a short request's exit time.
    Under a tracer or profiler (cProfile, coverage, pdb) it ends with
    sys.exit instead, so that the tool writes its report.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse exits with an int on help and usage errors
        code = exc.code
    try:
        _write_stdout(())
    except ValidationError as exc:
        print(f"flagkin: error: {exc}", file=sys.stderr)
        code = 1
    if sys.gettrace() is not None or sys.getprofile() is not None:
        sys.exit(code)
    atexit._run_exitfuncs()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
