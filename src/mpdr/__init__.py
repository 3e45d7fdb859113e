"""m-partite Cayley digraphs and digraphical representation checking."""

from .autgroup import (AutSearchResult, automorphism_group, automorphism_search,
                       brute_force_automorphisms)
from .cayley import (ConnectionSpec, MCayleyDigraph, build_m_cayley, cayley_digraph,
                     part_swap_automorphism)
from .constructions import (audit_valency, cyclic_2pdr, cyclic_mpdr, drr_to_2pdr,
                            find_valency2_orr, two_generated_mpdr)
from .digraphs import Digraph
from .errors import (CapExceededError, FormatError, MpdrError, PreconditionError,
                     SearchExhaustedError)
from .groups import FiniteGroup
from .perms import PermGroup, Permutation, is_semiregular
from .search import (SearchVerdict, exhaust_2partite_valency3, exhaust_z2_m3_valency3,
                     find_valency2_drr, translate_relation, trivial_aut_3regular_search)
from .verify import (StabilizerCriterionReport, VerificationReport, is_pdr,
                     stabilizer_criterion_check)

__version__ = "0.1.0"

__all__ = [
    "AutSearchResult", "CapExceededError", "ConnectionSpec", "Digraph",
    "FiniteGroup", "FormatError", "MCayleyDigraph", "MpdrError", "PermGroup",
    "Permutation", "PreconditionError", "SearchExhaustedError", "SearchVerdict",
    "StabilizerCriterionReport", "VerificationReport", "audit_valency",
    "automorphism_group", "automorphism_search", "brute_force_automorphisms",
    "build_m_cayley", "cayley_digraph", "cyclic_2pdr", "cyclic_mpdr",
    "drr_to_2pdr", "exhaust_2partite_valency3", "exhaust_z2_m3_valency3",
    "find_valency2_drr", "find_valency2_orr", "is_pdr", "is_semiregular",
    "part_swap_automorphism", "stabilizer_criterion_check", "translate_relation",
    "trivial_aut_3regular_search", "two_generated_mpdr",
    "__version__",
]
