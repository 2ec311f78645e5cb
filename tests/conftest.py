import random

import pytest

from plabic import DecoratedPermutation
from plabic.graph import Builder


def random_decorated_permutation(b, rng) -> DecoratedPermutation:
    vals = list(range(1, b + 1))
    rng.shuffle(vals)
    dec = {
        i: rng.choice(["over", "under"])
        for i in range(1, b + 1)
        if vals[i - 1] == i
    }
    return DecoratedPermutation(vals, dec)


def insert_parallel_digon(g, rng):
    """Double a random internal edge (adjacent in rotation on both sides)."""
    bld = Builder(g)
    cands = [d for d in sorted(bld.dv) if bld.dv[d] >= 0 and bld.other_end(d) >= 0]
    if not cands:
        return g
    d = rng.choice(cands)
    u, v = bld.dv[d], bld.other_end(d)
    t = d ^ 1
    e0, e1 = bld._new_dart_pair(bld.fresh_edge_id())
    bld.rot[u].insert(bld.rot[u].index(d) + 1, e0)
    bld.dv[e0] = u
    bld.rot[v].insert(bld.rot[v].index(t), e1)
    bld.dv[e1] = v
    return bld.freeze()


def insert_loop(g, rng):
    """Attach a small loop at a random internal vertex."""
    bld = Builder(g)
    vs = sorted(v for v in bld.colors if bld.degree(v) >= 1)
    if not vs:
        return g
    v = rng.choice(vs)
    e0, e1 = bld._new_dart_pair(bld.fresh_edge_id())
    bld.rot[v].insert(0, e0)
    bld.rot[v].insert(1, e1)
    bld.dv[e0] = v
    bld.dv[e1] = v
    return bld.freeze()


@pytest.fixture
def rng():
    return random.Random(20240801)
