"""m-PDR verdicts and the regularity criterion for A = R(G).

The authoritative automorphism run for a verdict is color-blind: using the
part coloring to compute Aut of a digraph whose whole point is that Aut
fixes the parts would assume the conclusion.  The part-respecting run is
available as a cross-check.

Verdicts and the criterion check read |Aut| and its generators off the
search (``autgroup.automorphisms``) and build no stabilizer chain.  The
stabilizer of a vertex u in the color-blind Aut is the automorphism group
of the digraph with u alone in its own color class, so the criterion check
reads each stabilizer's generators off one more search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autgroup import AutSearchResult, automorphisms, check_vertex_count
# Not called here.  The benchmark's tracer test (perfbench/test_perfbench.py)
# reads it as a name of this module; drop it once that test stops doing so.
from .autgroup import automorphism_search  # noqa: F401
from .cayley import ConnectionSpec, MCayleyDigraph, build_m_cayley
from .digraphs import Digraph
from .errors import PreconditionError
from .groups import FiniteGroup
from .perms import Permutation, generators_fix_setwise


@dataclass
class VerificationReport:
    group_order: int
    aut_order: int
    is_pdr: bool
    valency: int | None          # None when the digraph is not regular
    is_partite: bool
    parts_fixed_setwise: list[bool]
    extra_automorphism_witness: Permutation | None
    vertex_count: int
    search_nodes: int
    elapsed: float
    color_blind: bool            # False when the parts were used as colors

    def to_json_dict(self) -> dict:
        return {
            "group_order": self.group_order,
            "aut_order": str(self.aut_order),
            "is_pdr": self.is_pdr,
            "valency": self.valency,
            "is_partite": self.is_partite,
            "parts_fixed_setwise": self.parts_fixed_setwise,
            "extra_automorphism_witness":
                None if self.extra_automorphism_witness is None
                else self.extra_automorphism_witness.cycle_string(),
            "vertex_count": self.vertex_count,
            "search_nodes": self.search_nodes,
            "elapsed_seconds": round(self.elapsed, 6),
            "color_blind": self.color_blind,
        }


def is_pdr(group: FiniteGroup, spec: ConnectionSpec, *,
           color_blind: bool = True) -> VerificationReport:
    """Decide whether the built digraph represents the group exactly.

    The verdict is positive when the digraph is regular and its full
    automorphism group has order exactly |G| (the right translations
    always embed, so equality of orders means equality of groups).  When
    the verdict is negative and the digraph is regular, the report carries
    a witness generator lying outside the translation group.
    """
    if not spec.is_partite():
        raise PreconditionError("connection spec has a nonempty diagonal entry")
    check_vertex_count(spec.m * group.order)
    x = build_m_cayley(group, spec)
    aut = automorphisms(x.digraph, ignore_colors=color_blind)
    if aut.order % group.order:
        # R(G) is a subgroup of Aut, so Lagrange's theorem fails only on a
        # miscounting search
        raise RuntimeError(f"automorphism group order {aut.order} is not a multiple "
                           f"of the group order {group.order}")
    valency = x.digraph.regular_valency()
    witness = None
    if aut.order != group.order:
        # a member of R(G) is the right translation by the element it sends 1_0 to
        witness = next((gen for gen in aut.generators
                        if gen != x.right_translation(x.vertex_element(gen(0)))), None)
    return VerificationReport(
        group_order=group.order,
        aut_order=aut.order,
        is_pdr=(valency is not None and aut.order == group.order),
        valency=valency,
        is_partite=True,
        parts_fixed_setwise=[generators_fix_setwise(aut.generators, part)
                             for part in x.parts()],
        extra_automorphism_witness=witness,
        vertex_count=x.digraph.n,
        search_nodes=aut.nodes_explored,
        elapsed=aut.elapsed,
        color_blind=color_blind,
    )


@dataclass
class StabilizerCriterionReport:
    """Instance evaluation of the criterion: if the digraph is connected,
    Aut fixes every part setwise, and the stabilizer of one chosen vertex
    per part fixes that vertex's out-neighborhood pointwise, then Aut is
    exactly the right translation group."""

    connected: bool
    parts_fixed_setwise: list[bool]
    stabilizer_fixes_out_neighborhood: list[bool]
    hypotheses_hold: bool
    conclusion_holds: bool
    aut_order: int
    group_order: int

    @property
    def consistent(self) -> bool:
        """False would mean hypotheses true but conclusion false: the
        criterion itself violated on an instance.  Must never happen."""
        return not self.hypotheses_hold or self.conclusion_holds


def stabilizer_criterion_check(
        x: MCayleyDigraph, chosen: list[int] | None = None,
        aut: AutSearchResult | None = None) -> StabilizerCriterionReport:
    """Evaluate the three hypotheses and the conclusion by explicit
    computation on Aut.  ``chosen`` is one vertex per part (default: the
    identity vertex of each part).  ``aut``, the color-blind Aut when the
    caller has it, needs only ``order`` and ``generators`` (a ``PermGroup``
    will do).  Disconnected input is reported as a failed hypothesis, not
    an error."""
    if chosen is None:
        chosen = [x.vertex(0, i) for i in range(x.m)]
    if len(chosen) != x.m:
        raise ValueError(f"need one chosen vertex per part, got {len(chosen)}")
    for i, u in enumerate(chosen):
        if x.vertex_part(u) != i:
            raise ValueError(f"chosen vertex {u} is not in part {i}")
    g = x.digraph
    if aut is None:
        aut = automorphisms(g, ignore_colors=True)

    connected = g.is_connected("weak")
    parts_fixed = [generators_fix_setwise(aut.generators, part) for part in x.parts()]
    stab_fixes = []
    for u in chosen:
        stab = automorphisms(Digraph(g.n, g.arcs(), [v == u for v in range(g.n)],
                                     allow_loops=True))
        stab_fixes.append(all(s(w) == w for s in stab.generators for w in g.out_adj[u]))
    hypotheses = connected and all(parts_fixed) and all(stab_fixes)
    conclusion = aut.order == x.group.order
    return StabilizerCriterionReport(
        connected=connected,
        parts_fixed_setwise=parts_fixed,
        stabilizer_fixes_out_neighborhood=stab_fixes,
        hypotheses_hold=hypotheses,
        conclusion_holds=conclusion,
        aut_order=aut.order,
        group_order=x.group.order,
    )
