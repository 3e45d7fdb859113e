"""m-partite Cayley digraphs and digraphical representation checking."""

from .autgroup import (AutSearchResult, automorphism_search, automorphisms,
                       brute_force_automorphisms)
from .cayley import ConnectionSpec, MCayleyDigraph, cayley_digraph
from .constructions import (cyclic_2pdr, cyclic_mpdr, drr_to_2pdr, find_valency2_orr,
                            two_generated_mpdr)
from .digraphs import Digraph
from .errors import (CapExceededError, FormatError, MpdrError, PreconditionError,
                     SearchExhaustedError)
from .groups import FiniteGroup
from .perms import PermGroup, Permutation
from .search import (SearchVerdict, exhaust_2partite_valency3, exhaust_z2_m3_valency3,
                     find_valency2_drr, translate_relation, trivial_aut_3regular_search)
from .verify import VerificationReport, is_pdr

__version__ = "0.1.0"

__all__ = [
    "AutSearchResult", "CapExceededError", "ConnectionSpec", "Digraph",
    "FiniteGroup", "FormatError", "MCayleyDigraph", "MpdrError", "PermGroup",
    "Permutation", "PreconditionError", "SearchExhaustedError", "SearchVerdict",
    "VerificationReport", "automorphism_search", "automorphisms",
    "brute_force_automorphisms", "cayley_digraph", "cyclic_2pdr", "cyclic_mpdr",
    "drr_to_2pdr", "exhaust_2partite_valency3", "exhaust_z2_m3_valency3",
    "find_valency2_drr", "find_valency2_orr", "is_pdr", "translate_relation",
    "trivial_aut_3regular_search", "two_generated_mpdr", "__version__",
]
