"""One hash over the stabilizer chains of a fixed corpus of groups.

The chain is part of the output: generator lists, base points, transversals,
``elements`` order and point stabilizer generators all follow from it.
A change to how a chain is built must leave every one of them unchanged.
"""

import hashlib
import json
import random

from conftest import elements, point_stabilizer
from mpdr import (Digraph, FiniteGroup, MCayleyDigraph, PermGroup, Permutation,
                  automorphism_search, cyclic_2pdr)

ELEMENTS_CAP = 5040

CORPUS_SHA256 = "e5f6841d944be08bc16a283136e0be02fa85ba1ba3e50ccd8ce73bd78e8501e2"


def search_corpus() -> list[tuple[str, Digraph]]:
    """(name, digraph) for the automorphism searches."""
    cases = []
    for n in range(1, 9):
        cases.append((f"K{n}", Digraph(n, [(u, v) for u in range(n) for v in range(n)
                                           if u != v])))
    for k in (1, 2, 3):
        cases.append((f"{k}xC7", Digraph(7 * k, [(7 * c + i, 7 * c + (i + 1) % 7)
                                                 for c in range(k) for i in range(7)])))
    for n in (5, 7, 30):
        x = MCayleyDigraph(FiniteGroup.cyclic(n), cyclic_2pdr(n))
        cases.append((f"cyclic_2pdr({n})", x.digraph))
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        if seed % 2:
            # circulant: vertex-transitive, so the chain has levels to pin
            conn = rng.sample(range(1, n), rng.randint(1, max(1, n // 3)))
            arcs = [(u, (u + s) % n) for u in range(n) for s in conn]
        else:
            p = rng.choice([0.1, 0.2, 0.3, 0.5])
            arcs = [(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < p]
        colors = [rng.randint(0, 1) for _ in range(n)] if seed % 3 == 0 else None
        cases.append((f"random-{seed}", Digraph(n, arcs, vertex_color=colors)))
    return cases


def generator_corpus() -> list[tuple[str, PermGroup]]:
    groups = []
    for seed in range(20):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 9)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(images))
        if seed % 4 == 0:
            # a repeat, the identity and a product: all redundant
            gens += [gens[0], Permutation.identity(n), gens[0] * gens[-1]]
        groups.append((f"gens-{seed}", PermGroup(n, gens)))
    return groups


def chain_record(group: PermGroup) -> dict:
    """Everything a chain determines, as JSON-ready values."""
    levels = []
    for lvl in group._levels:
        keys = sorted(lvl.transversal)
        levels.append({"point": lvl.point,
                       "keys": keys,
                       "gens": [g.cycle_string() for g in lvl.gens],
                       "transversal": [lvl.transversal[k].cycle_string() for k in keys]})
    record = {"order": str(group.order),
              "generators": [g.cycle_string() for g in group.generators],
              "levels": levels,
              "stabilizers": [[g.cycle_string() for g in point_stabilizer(group, v).generators]
                              for v in range(group.degree)]}
    if group.order <= ELEMENTS_CAP:
        record["elements"] = [g.cycle_string() for g in elements(group)]
    return record


def corpus_records() -> list:
    records = []
    for name, digraph in search_corpus():
        result = automorphism_search(digraph)
        records.append([name, result.nodes_explored, chain_record(result.group)])
    for name, group in generator_corpus():
        records.append([name, chain_record(group)])
    return records


def corpus_digest() -> str:
    text = json.dumps(corpus_records(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_chain_corpus_pinned():
    assert corpus_digest() == CORPUS_SHA256
