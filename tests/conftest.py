import json
from functools import lru_cache
from pathlib import Path

import pytest

from noncrossing import enumeration

_ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)
def partitions_of(n):
    """All set partitions of [n], cached across tests."""
    return tuple(enumeration.gen_set_partitions(n))


@lru_cache(maxsize=None)
def braids_over(n):
    """All braids over [n] (no crossing restriction), cached."""
    return tuple(enumeration.gen_braids(n, n + 2))


def shape_rule(shapes):
    """The braid tableau's shapes from a partition tableau's shapes
    s^0 .. s^2n by the paper's rule: s^1 .. s^(2n-1), except that braid
    vertex i, between the corners a = s^(2i-1) and c = s^(2i+1), keeps
    the middle b = s^(2i) only when it is larger than both, and otherwise
    takes the smaller of a and c."""
    out = [shapes[1]]
    for a, b, c in zip(shapes[1:-2:2], shapes[2:-1:2], shapes[3::2]):
        out += (b if a < b > c else min(a, c), c)
    return tuple(out)


def window_crossing(arcs, shared):
    """The crossing statistic by the cut scan with a quadratic chain DP
    on each window: every arc spanning the cut, longest subsequence
    strictly increasing in both endpoints."""
    arcs = sorted(arcs)
    best = 0
    for c in {i for i, _ in arcs}:
        window = [(i, j) for i, j in arcs if i <= c < j or (shared and c == j)]
        chain = [0] * len(window)
        for t, (i, j) in enumerate(window):
            chain[t] = 1 + max(
                (chain[s] for s in range(t) if window[s][0] < i and window[s][1] < j),
                default=0,
            )
        best = max(best, max(chain, default=0))
    return best


def trimmed(row):
    """The row without its trailing zeros."""
    while row and not row[-1]:
        row = row[:-1]
    return row


def schoolbook(p, q):
    """The rows of the product of two walks.RowSeries, entry by entry,
    truncated at the lower of the two orders: a reference product that
    shares no code with the library, which forms the root's powers in its
    online pass instead."""
    rows = [[] for _ in range(min(len(p.rows), len(q.rows)))]
    for i, a in enumerate(p.rows[: len(rows)]):
        for j, b in enumerate(q.rows[: len(rows) - i]):
            out = rows[i + j]
            out.extend([0] * (len(a) + len(b) - 1 - len(out)))
            for u, c in enumerate(a):
                for v, d in enumerate(b):
                    out[u + v] += c * d
    return [trimmed(row) for row in rows]


@pytest.fixture(scope="session")
def golden():
    with open(_ROOT / "testdata" / "golden.json") as fh:
        return json.load(fh)
