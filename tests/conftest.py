import random

import pytest
from hypothesis import settings

from plabic import DecoratedPermutation, apply_move, legal_moves
from plabic.graph import Builder

# every property test draws the same examples on every run, with no example
# database and no deadline; each test sets only its own ``max_examples``
settings.register_profile("plabic", derandomize=True, database=None, deadline=None)
settings.load_profile("plabic")


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
    ru = bld._edit(u)
    ru.insert(ru.index(d) + 1, e0)
    bld.dv[e0] = u
    rv = bld._edit(v)
    rv.insert(rv.index(t), e1)
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
    bld._edit(v)[:0] = [e0, e1]
    bld.dv[e0] = v
    bld.dv[e1] = v
    return bld.freeze()


def trivalentize(g):
    """Remove every bivalent vertex, then split every vertex of degree 4 or
    more, always at the first listed site."""
    while True:
        biv = [m for m in legal_moves(g) if m.kind == "RemoveBivalentM2"]
        if not biv:
            break
        g = apply_move(g, biv[0])
    while True:
        splits = [m for m in legal_moves(g) if m.kind == "SplitM3"]
        if not splits:
            break
        g = apply_move(g, splits[0])
    return g


@pytest.fixture
def rng():
    return random.Random(20240801)
