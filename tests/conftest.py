import sys

import pytest

from mpdr import Digraph, FiniteGroup

# Permutation realizations used across the suite.  Indices of the two
# designated generators are always 1 and 2 (BFS discovery order).
S3_GENS = [[1, 2, 0], [1, 0, 2]]                      # 3-cycle, transposition
D4_GENS = [[1, 2, 3, 0], [0, 3, 2, 1]]                # square rotation, reflection
Q8_GENS = [[2, 3, 1, 0, 7, 6, 4, 5],                  # right mult. by i and j on
           [4, 5, 6, 7, 1, 0, 3, 2]]                  # (1,-1,i,-i,j,-j,k,-k)
Z2Z4_GENS = [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]  # order-2 and order-4 parts
A5_GENS = [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]          # 5-cycle, 3-cycle


def uncolored(digraph: Digraph) -> Digraph:
    """The same arcs without vertex colors: every automorphism counts."""
    return Digraph(digraph.n, digraph.arcs())


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """No code path may leave the interpreter's recursion limit changed."""
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before, "test changed sys.getrecursionlimit()"


@pytest.fixture(scope="session")
def s3():
    return FiniteGroup.from_permutations(3, S3_GENS)


@pytest.fixture(scope="session")
def d4():
    return FiniteGroup.from_permutations(4, D4_GENS)


@pytest.fixture(scope="session")
def q8():
    return FiniteGroup.from_permutations(8, Q8_GENS)


@pytest.fixture(scope="session")
def z2z4():
    return FiniteGroup.from_permutations(6, Z2Z4_GENS)


@pytest.fixture(scope="session")
def a5():
    return FiniteGroup.from_permutations(5, A5_GENS)
