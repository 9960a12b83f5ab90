"""The request list of each workload, built from a seeded ``random.Random``.

A request is ``(kind, argv, spec)``: the ``flagkin`` subcommand, the
command-line arguments after ``python -m flagkin.cli``, and the parameters
the output checks need.  One round of a workload runs its list once; the
lists are sized so that several rounds fit in one run.

Only ``queries`` draws its inputs from the seed.  The other workloads are
fixed grids, and the seed only shuffles their order, so that their cost does
not depend on the seed.
"""

from __future__ import annotations

import random

from checks import PHI_EX, all_labels, labels

FORMATS = ("json", "text", "latex")

# (n, p, basis) of the single-label coproducts in ``queries``.  Fixed, because a
# coproduct builds the whole sweep and its cost depends strongly on (n, p, basis);
# the seed draws only the label and the format.  (9, 4, S) is the slow
# single-query path: it costs about ten product requests.
COPRODUCT_SLOTS = ((5, 2, "S"), (6, 3, "Phi"), (7, 3, "S"), (8, 4, "Phi"), (9, 4, "S"))
PRODUCT_NS = (6, 7, 8, 9) * 4


def _label_args(label, basis: str, suffix: str = "") -> list[str]:
    if label == PHI_EX:
        return [f"--ex{suffix}"]
    flag = "--a" if basis == "Phi" else "--i"
    return [f"--k{suffix}", str(label[1]), f"{flag}{suffix}", str(label[2])]


def tables(rng: random.Random) -> list:
    """Every p at n = 8 in both bases; the format cycles over (p, basis).

    Smaller n is left out: those requests are mostly process start-up, the
    noisiest time on a shared machine.
    """
    reqs = []
    n = 8
    for p in range(n):
        for b, basis in enumerate(("S", "Phi")):
            fmt = FORMATS[(p + b) % 3]
            argv = ["table", "--n", str(n), "--p", str(p), "--basis", basis,
                    "--format", fmt, "--max-n", "8"]
            reqs.append(("table", argv, {"n": n, "p": p, "basis": basis, "format": fmt}))
    rng.shuffle(reqs)
    return reqs


def certify(rng: random.Random) -> list:
    """verify for every p at n = 3, 4 and 5.

    The n = 3 requests put the median request inside the n = 4 group, where
    it does not jump between the n = 4 and n = 5 costs from run to run.
    """
    reqs = []
    for n in (3, 4, 5):
        for p in range(n):
            argv = ["verify", "--n", str(n), "--p", str(p), "--max-n", "8"]
            reqs.append(("verify", argv, {"n": n, "p": p}))
    rng.shuffle(reqs)
    return reqs


def rank(rng: random.Random) -> list:
    """dim --n N for N = 5..9, alternating text and json.

    Five requests of well-separated cost put the median request at N = 7.
    With an even count the median fell between two requests and took the
    slowest sample of the cheaper one, which outside load moves most.
    """
    reqs = []
    for n in range(5, 10):
        fmt = ("text", "json")[n % 2]
        argv = ["dim", "--n", str(n), "--format", fmt, "--max-n", "9"]
        reqs.append(("dim", argv, {"n": n, "format": fmt}))
    rng.shuffle(reqs)
    return reqs


def queries(rng: random.Random) -> list:
    """16 products over a seeded (p, labels, format) and 5 coproducts."""
    reqs = []
    for idx, n in enumerate(PRODUCT_NS):
        basis = ("S", "Phi")[idx % 2]
        p = rng.randrange(n)
        j = rng.randrange(n)
        l = rng.randrange(n - j)
        left = rng.choice(labels(n, p, basis, j))
        right = rng.choice(labels(n, p, basis, l))
        fmt = rng.choice(("text", "json"))
        argv = (["product", "--n", str(n), "--p", str(p), "--basis", basis]
                + _label_args(left, basis) + _label_args(right, basis, "2")
                + ["--format", fmt, "--max-n", "9"])
        spec = {"n": n, "p": p, "basis": basis, "format": fmt, "left": left, "right": right}
        reqs.append(("product", argv, spec))
    for n, p, basis in COPRODUCT_SLOTS:
        label = rng.choice(all_labels(n, p, basis))
        fmt = rng.choice(FORMATS)
        argv = (["coproduct", "--n", str(n), "--p", str(p), "--basis", basis]
                + _label_args(label, basis) + ["--format", fmt, "--max-n", "9"])
        spec = {"n": n, "p": p, "basis": basis, "format": fmt, "label": label}
        reqs.append(("coproduct", argv, spec))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"tables": tables, "certify": certify, "rank": rank, "queries": queries}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(seed))
