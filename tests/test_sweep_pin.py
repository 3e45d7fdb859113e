"""Pins the records of the 2-part valency-3 sweep.

The hashes and histograms were recorded from the sweep that ran one
automorphism search per spec; any faster sweep must reproduce every
``(t01, t10, aut_order)`` record in the same order.
"""

import hashlib
import itertools
import json
from collections import Counter

import pytest

from mpdr import FiniteGroup, exhaust_2partite_valency3, search
from mpdr.cayley import ConnectionSpec

# sha256 of the JSON list of [t01, t10, aut_order] records, in sweep order.
RECORD_DIGESTS = {
    "Z8": "f1c2f8e475d7f000dfa70eb05d87f6ff879672a2e52bb451e94dc9255f9ee7e8",
    "d4": "b898b2a4ff933a3203b94fceba038d4a827f8b1ba9ae3ba1aec7e5f78e19beb2",
    "q8": "4860124eddcb0e090264b068d2141ab88fa90590c7436fc257527de4fc3fab5d",
    "z2z4": "5e34128debe61102c24592e7ea9e77ba7507e8eaadb340555e3ca976ebfc8f3b",
}

# Automorphism order -> number of specs, as the benchmark's sweep-small
# workload expects them (copied, so the test does not import the benchmark).
HISTOGRAMS = {
    "Z8": {8: 2240, 16: 544, 32: 160, 64: 64, 96: 32, 128: 80, 512: 8, 4608: 8},
    "d4": {8: 2048, 16: 576, 32: 256, 96: 64, 128: 112, 512: 56, 4608: 24},
}


def _group(request, name):
    return FiniteGroup.cyclic(8) if name == "Z8" else request.getfixturevalue(name)


def _rows(records):
    return [[list(t01), list(t10), order] for (t01, t10), order in records]


@pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
def test_sweep_records_pinned(request, name):
    records = exhaust_2partite_valency3(_group(request, name))
    assert len(records) == 56 ** 2
    digest = hashlib.sha256(json.dumps(_rows(records)).encode()).hexdigest()
    assert digest == RECORD_DIGESTS[name]
    if name in HISTOGRAMS:
        assert dict(sorted(Counter(o for _, o in records).items())) == HISTOGRAMS[name]


@pytest.mark.parametrize("name", ["s3", "Z6", "Z7"])
def test_sweep_matches_per_spec_searches(request, name):
    group = (FiniteGroup.cyclic(int(name[1:])) if name.startswith("Z")
             else request.getfixturevalue(name))
    triples = list(itertools.combinations(range(group.order), 3))
    pairs = list(itertools.product(triples, repeat=2))
    specs = [ConnectionSpec.from_sets(2, group.order, {(0, 1): t01, (1, 0): t10})
             for t01, t10 in pairs]
    searched = search._aut_orders(group, specs)
    assert exhaust_2partite_valency3(group) == \
        [(pair, order) for pair, (_, order) in zip(pairs, searched)]
