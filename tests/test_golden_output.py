"""Every table rendering at n <= 8 is byte-identical to the recorded one.

For each n, the test runs ``flagkin table`` in-process at every p, in both
bases and every output format, plus ``table --hug-weil``, and hashes the
argument lists, exit codes and stdout of all those requests in order.  A
refactor of the table path must leave each digest unchanged; a failure
names the n whose output moved.
"""

import contextlib
import hashlib
import io

import pytest

from flagkin.cli import main

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


def digest(n):
    h = hashlib.sha256()
    for argv in requests(n):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(f"{' '.join(argv)}\n{code}\n".encode())
        h.update(out.getvalue().encode())
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(DIGESTS))
def test_table_output_matches_recorded_digest(n):
    assert digest(n) == DIGESTS[n], f"table output at n={n} changed"
