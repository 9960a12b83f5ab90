"""Every table, product, coproduct and chord basis rendering is byte-identical to the recorded one.

For each n <= 8, the first test runs ``flagkin table`` in-process at every
p, in both bases and every output format, plus ``table --hug-weil``, and
hashes the argument lists, exit codes and stdout of all those requests in
order.  The second hashes, the same way, ``product`` (text and json) for
every ordered label pair of total degree at most n - 1 and ``coproduct``
(every format) for every label, at every p in both bases for n <= 4, and
``basis --k K`` (text and json) for every k at n <= 8.  The next two hash
``verify`` at every p for n <= 8, and ``dim`` (text and json) for
n <= 11.  Two more pin ``table --hug-weil`` in json, csv and latex at
every p for n <= 8, and every ``table`` rendering at (n, p) = (12, 5);
one digest per format pins ``table`` in both bases at (20, 9), and one
per format, in text and json, at (24, 11) with ``--max-n 24``.
A refactor of a renderer or of a verify suite must leave each digest
unchanged; a failure names the n whose output moved.  The usage
test pins, one request at a time, the exit code, stdout and stderr of
``--help``, of each command's ``--help`` and of the usage errors.
"""

import contextlib
import hashlib
import io

import pytest

from flagkin.cli import main
from flagkin.invariant_algebras import FlagContext
from flagkin.measures import basis_labels

FORMATS = ("text", "json", "csv", "latex")

# sha256 of the n-th request grid, recorded from the reference output.
DIGESTS = {
    2: "fecedb920e958ab06ff042543640ef451020050aae5946ef7eee8356ace84b39",
    3: "158e12a68dd0f6649a529481f0b92b0fc0b367c78d771427ebe1d012c9b45374",
    4: "3deb43914143dc0a2d86e9db30678416f252f5465797ecf3a7680ab26619bf6f",
    5: "017c52b66d0bdf638d2f4b0d3a94fe0d6ef5c157a04ec1ceb874ffe4aad5c27f",
    6: "5a8aab75727d3d235cfd893c76411945840ef4b998f4b15ea9631c983e00bbce",
    7: "eb7724c7123da1b9e1ee6fdaa70dddb175586270d3f8de4b24e28268b3231b39",
    8: "6a78446e9482d5186a97983b74c536639e2a3c4374996156bca0ac36f9f8f050",
}


def requests(n):
    for p in range(n):
        for basis in ("Phi", "S"):
            for fmt in FORMATS:
                yield ["table", "--n", str(n), "--p", str(p), "--basis", basis, "--format", fmt]
        yield ["table", "--n", str(n), "--p", str(p), "--hug-weil"]


def digest(n, grid=requests):
    h = hashlib.sha256()
    for argv in grid(n):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(f"{' '.join(argv)}\n{code}\n".encode())
        h.update(out.getvalue().encode())
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(DIGESTS))
def test_table_output_matches_recorded_digest(n):
    assert digest(n) == DIGESTS[n], f"table output at n={n} changed"


def _label_args(label, basis, suffix=""):
    if label.kind == "PhiEx":
        return [f"--ex{suffix}"]
    flag = "--a" if basis == "Phi" else "--i"
    return [f"--k{suffix}", str(label.k), f"{flag}{suffix}", str(label.idx)]


def renderer_requests(n):
    """product, coproduct (n <= 4) and the chord basis (every n) requests at n."""
    if n <= 4:
        for p in range(n):
            ctx = FlagContext(n, p)
            for basis in ("Phi", "S"):
                labels = [l for k in range(n) for l in basis_labels(ctx, k, basis)]
                head = ["--n", str(n), "--p", str(p), "--basis", basis]
                for left in labels:
                    for right in labels:
                        if left.degree(ctx) + right.degree(ctx) > n - 1:
                            continue
                        args = _label_args(left, basis) + _label_args(right, basis, "2")
                        for fmt in ("text", "json"):
                            yield ["product", *head, *args, "--format", fmt]
                for label in labels:
                    for fmt in FORMATS:
                        yield ["coproduct", *head, *_label_args(label, basis), "--format", fmt]
    for k in range(n):
        for fmt in ("text", "json"):
            yield ["basis", "--n", str(n), "--k", str(k), "--format", fmt]


# sha256 of renderer_requests(n), recorded from the reference output.
RENDERER_DIGESTS = {
    2: "6c1d46f18827853c57e62132f7005de682c0d9eaa45a43ffd61b89064f750639",
    3: "d61e85452f99aa5a0cb1e1c0c5c22fc3624e73acf421ec657a08b85679bd9d2a",
    4: "eb095c09324c0232399854ab3ccb604082e223347d559da2132928ac5b1f2c2f",
    5: "69980d9e9eb08915acf16cce303f2ef477de4c3dc269a5d5c395dde4cd539c89",
    6: "b264c04bf23fdaf1949ea4c5f0f6dcb60607b7c25c750334ff81d64ac3b8c5ca",
    7: "ee067c1ced6a80a504967fbcc5666212fe5bef9de4443a194e0cc08e02c97da0",
    8: "b2d5f961cd28b40fe4c08f1f95e5a5e109b6a15ed344721e08efc479318215c4",
}


@pytest.mark.parametrize("n", sorted(RENDERER_DIGESTS))
def test_other_renderers_match_recorded_digest(n):
    assert digest(n, renderer_requests) == RENDERER_DIGESTS[n], f"renderer output at n={n} changed"


def verify_requests(n):
    for p in range(n):
        yield ["verify", "--n", str(n), "--p", str(p)]


# sha256 of verify_requests(n), recorded from the reference output.
VERIFY_DIGESTS = {
    2: "acab3b64af52fc66e57d9109416ccfcc13729097d4217e78de3b4e0dacefa2eb",
    3: "95fc1348d2790036d8cf0f7a31b55c34f656075e78fb8c70e1c75a7520a392e4",
    4: "cd6a4561704f64d2fdba24bd6dc22eda1c26d4e0e53136fc64657a5817705a76",
    5: "9a4894b1a6cd6fcaabe00777a4aeaaa82d36d63f8b259a1cfc9f53bf7f5a1b70",
    6: "40c9ae3e41126871c2fc9fceb01bae1266f4922cc961994f8af5e7aa60bde8e9",
    7: "1b7def4e7a58ad79dae93ba45a78d9a24c93df179b900c00332abc81b9b11159",
    8: "a34c991150ff32871586fe630a94e65fe9fb0271bc8d18a5cdb6835102255289",
}


@pytest.mark.parametrize("n", sorted(VERIFY_DIGESTS))
def test_verify_output_matches_recorded_digest(n):
    assert digest(n, verify_requests) == VERIFY_DIGESTS[n], f"verify output at n={n} changed"


def dim_requests(n):
    for fmt in ("text", "json"):
        yield ["dim", "--n", str(n), "--format", fmt, "--max-n", str(max(n, 10))]


# sha256 of dim_requests(n), recorded from the reference output.
DIM_DIGESTS = {
    2: "882740c6e0dd4ac765534e143b0a2ff09d165aa4eb57cbe45c0c8dfbf6e7b4f6",
    3: "1365499c681d71e761ca20091decf2b2dafa534e75168588e2430f3aad00a814",
    4: "5df8ad145f64a5bd1309a0882ec4a815cd49effa3e4d57f326766937521a3743",
    5: "695db8ffd24154469ffa754d8d2ca970709c20a72a1d07dde0f0513dfce079d4",
    6: "00729c546aa3f4d93f0bb7466623c3807a53899d07d15dd3974d1a3aa6aed4e3",
    7: "b2e6a744ac7ea0254152af071616598d9f19109b9b3993b51978c60c92f60836",
    8: "e541997e1d048cd7243d9f803f4472cbd57e46385883d67cda49eaaf8a910a95",
    9: "3f819a58e0de51b10172246f7089cd26433a17cce5edb408ba7527f65b551d9f",
    10: "0f677d04853a68512eca8a487fd22bd45c5d8666bb71918c4d740fafe1fe6861",
    11: "8aaf8dbb0958a3447e8afb68b193d3490074808e6515e13547accac9e6bd8e7a",
}


@pytest.mark.parametrize("n", sorted(DIM_DIGESTS))
def test_dim_output_matches_recorded_digest(n):
    assert digest(n, dim_requests) == DIM_DIGESTS[n], f"dim output at n={n} changed"


# Help and usage errors, at a fixed terminal width.
USAGE_REQUESTS = {
    "--help": ["--help"],
    "--version": ["--version"],
    "dim --help": ["dim", "--help"],
    "basis --help": ["basis", "--help"],
    "product --help": ["product", "--help"],
    "coproduct --help": ["coproduct", "--help"],
    "table --help": ["table", "--help"],
    "verify --help": ["verify", "--help"],
    "no arguments": [],
    "unknown command": ["frobnicate", "--n", "3"],
    "unrecognized argument": ["table", "--n", "3", "--bogus"],
    "missing --n": ["dim"],
}

# sha256 of the exit code, stdout and stderr of each USAGE_REQUESTS entry.
USAGE_DIGESTS = {
    "--help": "3ec723b7c324279fc3a5d362f5d7b54b82e92522d2979dddf0fabc78bba7946c",
    "--version": "0663d3be360c6a44b24e59d0b1e5b4384abe0915ab1df6d9758e78e80a103964",
    "basis --help": "45ccf493139d80ea8ee9c312a90b4d87ac98d005592f396229ac82bc0458dd96",
    "coproduct --help": "b3ee76a1d4af284566f288cd3bea71ec98daa00ac5ca2f988ea393645695a9c2",
    "dim --help": "e33655024703cd345d89eeedab77825a513aeee252081da9c9c0d838e383e5d3",
    "missing --n": "44c499f76d3bb53d7e483213b9cd342f5792802b98ebae12d68a8adb0e8299dd",
    "no arguments": "ebe911648f64f06bcab541c70a9a022b48120283dd0e5904bb356de9b5f60c33",
    "product --help": "1a31f581057b7df14f46e49e65d470ded45dda3af27483d2a407ac86d8cafbe0",
    "table --help": "2daf8bfac4e3e4d69f3de828a403d9dc142bd8817fcce478e33b7aea07cdc397",
    "unknown command": "84faad32185e651c66559fbcd2e649e76247e6020376e721e3f046fa90b42ad8",
    "unrecognized argument": "bef25bc3b962e2fd860cb81be492f36a4dcf837beb2388dffe4a15b5279da28d",
    "verify --help": "8a49da78371d139a23346ec7f0461b423bd39cf5abcb877c7700ec3645079c8d",
}


@pytest.mark.parametrize("name", sorted(USAGE_REQUESTS))
def test_usage_output_matches_recorded_digest(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(USAGE_REQUESTS[name])
        except SystemExit as exc:
            code = exc.code
    text = f"{code}\n{out.getvalue()}\0{err.getvalue()}"
    assert hashlib.sha256(text.encode()).hexdigest() == USAGE_DIGESTS[name], f"{name}:\n{text}"


def hug_weil_requests(n):
    """table --hug-weil in every format but text, which requests(n) pins."""
    for p in range(n):
        for fmt in FORMATS[1:]:
            yield ["table", "--n", str(n), "--p", str(p), "--hug-weil", "--format", fmt]


# sha256 of hug_weil_requests(n), recorded from the reference output.  At
# p = n - 1 the sweep holds one table, and json and csv print it in the
# sweep form (flagkin/tables/v1, and an input column) like every other p.
HUG_WEIL_DIGESTS = {
    2: "ea3bb21fc5b41575378ee6d1087e63c624f2869c73569e59e6975f5d11899ce2",
    3: "71352334a310b8d1d4e5de79a94c7bc254198d147c6e6ffbb6fb0d6abfa389c9",
    4: "9b8631805003ffd8399fb7781ae2f57ef09065e17df20e541b479aeea00be14e",
    5: "57ea42279eee2e5d5d25f747c207d930af0d3f1b6909258a0d3961380ba2c27f",
    6: "5ee266d012a77f2731d62e237a937551df9a54fb89969c73254647d6ac05e841",
    7: "46ee445d9a17ae99eaeb02182ad8f0505336284ae01325de79a471faf9ed5c14",
    8: "da880b6479535cd62de580024467c94aadafa827d31c5c89fd7b64c1f72aff8d",
}


@pytest.mark.parametrize("n", sorted(HUG_WEIL_DIGESTS))
def test_hug_weil_renderings_match_recorded_digest(n):
    assert digest(n, hug_weil_requests) == HUG_WEIL_DIGESTS[n], f"hug-weil output at n={n} changed"


def large_table_requests(n, p=5):
    """Every table rendering at one large (n, p): both bases and --hug-weil, every format."""
    head = ["table", "--n", str(n), "--p", str(p)]
    for fmt in FORMATS:
        for basis in ("Phi", "S"):
            yield [*head, "--basis", basis, "--format", fmt]
        yield [*head, "--hug-weil", "--format", fmt]


# sha256 of large_table_requests(12), recorded from the reference output.
LARGE_TABLE_DIGEST = "c23ed01f821e7adbb24b9888aeac23c099500f48ce292e9361596a622987f402"


def test_large_table_renderings_match_recorded_digest():
    assert digest(12, large_table_requests) == LARGE_TABLE_DIGEST, "table output at (12, 5) changed"


def larger_table_requests(fmt, n=20, p=9):
    """table in one format at a larger (n, p), in both bases."""
    for basis in ("Phi", "S"):
        yield ["table", "--n", str(n), "--p", str(p), "--basis", basis, "--format", fmt]


# sha256 of larger_table_requests(fmt), recorded from the reference output.
LARGER_TABLE_DIGESTS = {
    "text": "b90a59847d80aa111d9329f7a16bd39bd0c93ab5e580c87c666120385a391ca3",
    "json": "750d93cff70dc6fd30b0891e6f4f6e4988dc94f7d34958d4f9b4413b0960d327",
    "csv": "3ee09c4f87228b2cf0826c17ddd429e3aa710483f2295fdd2fde84c986ba7539",
    "latex": "a71cea041513a2edff81226b6b5f8ae72fbf8957fbc29c43244dc26b592883e1",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_larger_table_renderings_match_recorded_digest(fmt):
    got = digest(fmt, larger_table_requests)
    assert got == LARGER_TABLE_DIGESTS[fmt], f"table output at (20, 9) in {fmt} changed"


def largest_table_requests(fmt):
    """table in one format at (24, 11), above the default guard of 20, in both bases."""
    for argv in larger_table_requests(fmt, 24, 11):
        yield [*argv, "--max-n", "24"]


# sha256 of largest_table_requests(fmt), recorded from the reference output.
LARGEST_TABLE_DIGESTS = {
    "text": "fe62819ddeedc9e82e374ef5349115b7a18f0030110a5b95e42715449ac8dc24",
    "json": "ae1b68b5742070ca1172715bce789f782fc6d4f1eb104512554c13fbbbd675a3",
}


@pytest.mark.parametrize("fmt", sorted(LARGEST_TABLE_DIGESTS))
def test_largest_table_renderings_match_recorded_digest(fmt):
    got = digest(fmt, largest_table_requests)
    assert got == LARGEST_TABLE_DIGESTS[fmt], f"table output at (24, 11) in {fmt} changed"
