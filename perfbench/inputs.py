"""Seeded op streams for the three workloads.

Each stream is endless; a worker takes ops from it until its time is up.
Scan and query inputs are drawn by stratified sampling: the candidates of
one kind are sorted by a cost proxy and cut into a power of two of strata
of a few neighbours, and each pass over the strata draws one member of
every stratum, visiting the strata in bit-reversed order. Any four
consecutive draws of a pass then take one stratum from each quarter of the
cost range. Brandt sessions take every prime once per pass. The metrics
are taken over the first MEASURED_OPS ops, or, in a run too short for
them, over whole blocks of BLOCK_OPS ops (four emitted scan rows with
their skipped rows, one Brandt session, one round of queries), so every
run sees about the same mix of costs; the seed picks the members and the
order. `periods` and `special-points` D are drawn uniformly from all
integers with |D| <= PERIODS_DMAX.
"""

from __future__ import annotations

import math
import random
from itertools import count
from math import gcd

from oracles import is_fundamental, primes_upto

SCAN_DMAX = 1000             # scan: D in [-SCAN_DMAX, -5], the golden range
SKIPS_PER_ROW = 7            # about the ratio of skipped to emitted D there
BRANDT_Q = (11, 100)         # brandt: every prime q in this range, each
BRANDT_N = (1, 2, 3)         # ... asked for B(n), n in this range
PERIODS_DMAX = 300           # queries: periods / special-points |D|
CLASSGROUP_D = (10_000, 100_000)
LVALUE_DMAX = 400
STABILITY_ORDER = 36
STABILITY_MAX_RANK = 4       # (2,2,2,2,2) alone takes ~6 s, a sixth of a run
STABILITY_Q = (2, 3, 5, 7)
# each command once per round: equal shares of the five commands
QUERY_ROUND = ("periods", "special-points", "lvalue", "classgroup",
               "stability")
BRANDT_PRIMES = [q for q in primes_upto(BRANDT_Q[1]) if q >= BRANDT_Q[0]]
BLOCK_OPS = {"scan": 4 * (1 + SKIPS_PER_ROW), "brandt": len(BRANDT_N),
             "queries": len(QUERY_ROUND)}
# ops the metrics cover when a run completes them: 16 blocks of scan (64
# emitted rows, one pass over the strata of emitted D), one whole Brandt
# pass, 16 query rounds (two passes over the lvalue strata); two thirds to
# nine tenths of what a 36 s run completes on the machine the benchmark
# was written on
MEASURED_OPS = {"scan": 16 * BLOCK_OPS["scan"],
                "brandt": len(BRANDT_PRIMES) * len(BRANDT_N),
                "queries": 16 * BLOCK_OPS["queries"]}


def bit_reversed(n: int) -> list:
    """0..n-1 in bit-reversed order (a low-discrepancy visiting order)."""
    bits = max(1, (n - 1).bit_length())
    rev = sorted(range(1 << bits),
                 key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return [i for i in rev if i < n]


def stratified(rng: random.Random, items: list, k: int):
    """Endless draws from `items` (sorted by cost): cut into the power of
    two of strata nearest to len(items) / k, one random member of each
    stratum per pass, strata in bit-reversed order."""
    if not items:
        raise ValueError("no candidates to draw from")
    n = 1 << max(0, round(math.log2(max(1, len(items) / k))))
    n = min(n, len(items))
    bounds = [len(items) * i // n for i in range(n + 1)]
    strata = [items[bounds[i]:bounds[i + 1]] for i in range(n)]
    order = bit_reversed(n)
    while True:
        for s in order:
            yield rng.choice(strata[s])


def uniform(rng: random.Random, items: list):
    while True:
        yield rng.choice(items)


def _proxy(D: int, h: int) -> float:
    """Rough cost of an emitted row: h classifications, each growing slowly
    with |D|, plus the embedding search, growing with |D| (a least-squares
    fit to per-row times of the |D| <= 1000 scan)."""
    return h * (-D) ** 0.25 + -D / 10


# ---------------------------------------------------------------------------

def scan_ops(seed: int, golden: dict):
    """D for `PeriodPipeline.row(D)`: emitted D stratified by cost (in
    pairs), each followed by SKIPS_PER_ROW skipped D drawn uniformly."""
    rng = random.Random(f"scan:{seed}")
    rows = {D: f for D, (_, f) in golden.items() if -SCAN_DMAX <= D <= -5}
    emitted = sorted((D for D, f in rows.items() if f["reason"] == ""),
                     key=lambda D: (_proxy(D, int(rows[D]["h"])), D))
    skipped = sorted(D for D, f in rows.items() if f["reason"] != "")
    skips = uniform(rng, skipped)
    for D in stratified(rng, emitted, 2):
        yield D
        for _ in range(SKIPS_PER_ROW):
            yield next(skips)


def brandt_ops(seed: int):
    """(session, q, n): passes over every prime in BRANDT_Q. A session asks
    B(n) for every n in BRANDT_N against its own fresh cache directory.
    Session costs differ a hundredfold, so a run that sampled primes would
    measure whichever it drew; instead each pass takes every prime once.
    The primes are paired with their neighbours, and a pass is two halves
    that each take one member of every pair (the seed picks which), pairs
    in bit-reversed order, so a pass cut short by the time limit still
    covers the range of costs evenly."""
    rng = random.Random(f"brandt:{seed}")
    pairs = [BRANDT_PRIMES[i:i + 2] for i in range(0, len(BRANDT_PRIMES), 2)]
    session = count()
    while True:
        picks = [rng.sample(pairs[i], len(pairs[i]))
                 for i in bit_reversed(len(pairs))]
        for half in (0, 1):
            for q in (p[half] for p in picks if len(p) > half):
                s = next(session)
                for n in BRANDT_N:
                    yield s, q, n


def invariant_chains(max_order: int) -> list:
    """All chains n_1 | n_2 | ... with every n_i > 1 and product <= bound."""
    out = []

    def rec(chain, prod):
        if chain:
            out.append(tuple(chain))
        last = chain[-1] if chain else 1
        n = 2 if not chain else last
        while prod * n <= max_order:
            if n % last == 0:
                rec(chain + [n], prod * n)
            n += 1

    rec([], 1)
    return out


def queries_ops(seed: int):
    """(kind, argv, key) for one in-process `cli.main` call.

    A round is QUERY_ROUND: periods and special-points with D drawn
    uniformly from all integers with |D| <= PERIODS_DMAX (most of them fail
    a precondition, so the skip and exit-2 paths run), lvalue, classgroup
    and stability (chains of rank <= STABILITY_MAX_RANK).
    """
    rng = random.Random(f"queries:{seed}")
    any_d = uniform(rng, range(-PERIODS_DMAX, PERIODS_DMAX + 1))

    lv = [D for D in range(-3, -LVALUE_DMAX - 1, -1) if is_fundamental(D)]
    lvalues = stratified(rng, lv, 15)

    lo, hi = CLASSGROUP_D

    def classgroup_d():
        while True:
            D = -rng.randint(lo, hi)
            if is_fundamental(D):
                return D

    pairs = [(c, q) for c in invariant_chains(STABILITY_ORDER)
             if len(c) <= STABILITY_MAX_RANK
             for q in STABILITY_Q if gcd(q, c[-1]) == 1]
    # the search cost grows steeply with the rank: keep ranks apart
    pairs.sort(key=lambda p: (len(p[0]), math.prod(p[0]), p))
    stability = stratified(rng, pairs, 12)

    def d_op(kind, D):
        return kind, [kind, "--d", str(D)], D

    def stability_op():
        chain, q = next(stability)
        return ("stability", ["stability", "--orders",
                              ",".join(map(str, chain)), "--q", str(q)],
                [list(chain), q])

    while True:
        for kind in QUERY_ROUND:
            if kind in ("periods", "special-points"):
                yield d_op(kind, next(any_d))
            elif kind == "lvalue":
                yield d_op(kind, next(lvalues))
            elif kind == "classgroup":
                yield d_op(kind, classgroup_d())
            else:
                yield stability_op()
