"""Explicit state-space construction and reachability analysis.

The paper positions its FSM models as objects to *reason over* and
cites symbolic model checking of attack graphs [18] as related work.
This module makes that reasoning mechanical: a
:class:`~repro.core.machine.VulnerabilityModel` unrolls into an explicit
directed graph whose nodes are ``(operation, pFSM, StateKind)`` triples
plus the terminal consequence, and whose edges are the Figure 2
transitions that *exist* for the given implementation.

Queries answered over the graph (networkx, imported on first use so
that scanning never loads it):

* :meth:`StateSpace.compromise_reachable` — can the terminal
  consequence be reached through at least one hidden edge?  (The
  model-checking formulation of "a vulnerability exists".)
* :meth:`StateSpace.exploit_paths` — every loop-free path from entry to
  the terminal that uses ≥1 hidden edge, i.e. the complete catalog of
  qualitatively distinct exploits the model admits.
* :meth:`StateSpace.cut_set` — a minimal set of hidden edges whose
  removal (= installing those checks) disconnects the terminal: the
  graph-theoretic form of the paper's Lemma part 2.

The unrolled graph is *implementation-indexed*: securing a pFSM and
rebuilding yields a graph without that hidden edge, so reachability
before/after is exactly the foil question.

Abstraction note: the graph is a sound *over-approximation*.  Branch
choices are nondeterministic — it forgets that a gate's data flow may
force a downstream pFSM onto its SPEC_REJ arm after an upstream
exploit (e.g. once ``addr_setuid`` is corrupted, the consistency pFSM
cannot take SPEC_ACPT).  Consequently ``compromise_reachable`` may stay
true after removing a single hidden edge even when the concrete model
is foiled; exact single-fix reasoning is
:func:`repro.core.analysis.minimal_foil_points`.  What the graph
guarantees: no hidden edges ⇒ no compromise, and every concrete exploit
corresponds to some graph path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from .machine import VulnerabilityModel
from .pfsm import PrimitiveFSM
from .transitions import StateKind, TransitionKind
from .witness import Domain

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Node", "StateSpace", "build_state_space"]

#: Node labels.
ENTRY = "ENTRY"
COMPROMISED = "COMPROMISED"
FOILED = "FOILED"


@dataclass(frozen=True)
class Node:
    """A state of the unrolled model: which pFSM, which Figure 2 state."""

    operation: str
    pfsm: str
    state: StateKind

    def label(self) -> str:
        """Graph key."""
        return f"{self.operation}/{self.pfsm}/{self.state.name}"


class StateSpace:
    """The unrolled graph of one model, with reachability queries."""

    def __init__(self, model: VulnerabilityModel, graph: nx.DiGraph) -> None:
        self.model = model
        self.graph = graph

    # -- structural queries ------------------------------------------------

    @property
    def node_count(self) -> int:
        """Total states (including entry/terminal markers)."""
        return self.graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        """Total transitions."""
        return self.graph.number_of_edges()

    def hidden_edges(self) -> List[Tuple[str, str]]:
        """Edges tagged as IMPL_ACPT hidden paths."""
        return [
            (u, v)
            for u, v, data in self.graph.edges(data=True)
            if data.get("hidden")
        ]

    def edge_owner(self, edge: Tuple[str, str]) -> Tuple[str, str]:
        """The ``(operation, pfsm)`` a hidden edge belongs to."""
        data = self.graph.edges[edge]
        return (data["operation"], data["pfsm"])

    # -- reachability -----------------------------------------------------------

    def compromise_reachable(self) -> bool:
        """Is the terminal consequence reachable *via a hidden edge*?

        Plain reachability is not enough — a fully-secure model still
        reaches the terminal through spec-accept edges (benign
        completion).  The vulnerability question is whether some path
        uses at least one dotted transition.
        """
        return any(
            self._path_exists_through(edge) for edge in self.hidden_edges()
        )

    def _path_exists_through(self, edge: Tuple[str, str]) -> bool:
        import networkx as nx

        u, v = edge
        return (
            nx.has_path(self.graph, ENTRY, u)
            and nx.has_path(self.graph, v, COMPROMISED)
        )

    def exploit_paths(
        self,
        limit: int = 64,
        cutoff: Optional[int] = None,
        max_paths: Optional[int] = None,
    ) -> List[List[str]]:
        """All loop-free ENTRY→COMPROMISED paths using ≥1 hidden edge.

        ``limit`` caps the *returned* hidden paths; on gate-rich graphs
        that alone cannot stop ``nx.all_simple_paths`` from enumerating
        an exponential sea of benign candidates, so two guards bound the
        enumeration itself: ``cutoff`` (max path length in edges, passed
        straight to networkx so longer paths are never generated) and
        ``max_paths`` (max candidate paths examined, hidden or not).
        """
        import networkx as nx

        paths: List[List[str]] = []
        examined = 0
        for path in nx.all_simple_paths(self.graph, ENTRY, COMPROMISED,
                                        cutoff=cutoff):
            if self._uses_hidden(path):
                paths.append(path)
                if len(paths) >= limit:
                    break
            examined += 1
            if max_paths is not None and examined >= max_paths:
                break
        return paths

    def _uses_hidden(self, path: Sequence[str]) -> bool:
        return any(
            self.graph.edges[u, v].get("hidden")
            for u, v in zip(path, path[1:])
        )

    def benign_path_exists(self) -> bool:
        """Is the terminal reachable without any hidden edge?  (Securing
        must not break legitimate completion.)"""
        import networkx as nx

        pruned = nx.restricted_view(self.graph, [], self.hidden_edges())
        return nx.has_path(pruned, ENTRY, COMPROMISED)

    # -- cuts (the Lemma, graph-theoretically) -------------------------------------

    def cut_set(
        self,
        limit: int = 64,
        cutoff: Optional[int] = None,
        max_paths: Optional[int] = None,
    ) -> List[Tuple[str, str]]:
        """A minimal set of hidden edges whose removal makes the
        compromise unreachable-via-hidden-paths.

        Greedy: repeatedly remove the hidden edge lying on the most
        surviving exploit paths.  For the paper's chain-shaped models
        this yields singleton cuts per independent chain — Observation 1
        in graph form.

        The greedy loop mutates a single working graph and covers the
        enumerated path set in memory — removing an edge only ever
        *shrinks* the path set, so surviving paths are re-derived by a
        list filter instead of re-running ``nx.all_simple_paths`` per
        removed edge; the enumerator runs once per drained batch.
        ``limit``/``cutoff``/``max_paths`` thread through to
        :meth:`exploit_paths` so the enumeration stays bounded on
        gate-rich graphs.
        """
        working = self.graph.copy()
        removed: List[Tuple[str, str]] = []
        while True:
            space = StateSpace(self.model, working)
            paths = space.exploit_paths(limit=limit, cutoff=cutoff,
                                        max_paths=max_paths)
            if not paths:
                return removed
            while paths:
                tally: Dict[Tuple[str, str], int] = {}
                for path in paths:
                    for u, v in zip(path, path[1:]):
                        if working.edges[u, v].get("hidden"):
                            tally[(u, v)] = tally.get((u, v), 0) + 1
                if not tally:
                    break  # defensive: exploit paths always use a hidden edge
                best = max(tally, key=lambda e: tally[e])
                working.remove_edge(*best)
                removed.append(best)
                paths = [
                    path for path in paths
                    if best not in zip(path, path[1:])
                ]

    def without_hidden_edge(self, operation: str, pfsm: str) -> "StateSpace":
        """The space with one pFSM's hidden edge removed — equivalent to
        installing that check.  Backed by a read-only restricted view of
        the same graph (no copy); reachability and path queries work
        unchanged, and mutating operations like :meth:`cut_set` take
        their own working copy anyway."""
        import networkx as nx

        blocked = [
            (u, v)
            for u, v, data in self.graph.edges(data=True)
            if data.get("hidden") and data.get("operation") == operation
            and data.get("pfsm") == pfsm
        ]
        pruned = nx.restricted_view(self.graph, [], blocked)
        return StateSpace(self.model, pruned)

    # -- export ---------------------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz rendering of the unrolled space."""
        lines = [f'digraph "{self.model.name} (state space)" {{',
                 "  rankdir=LR;"]
        for node in self.graph.nodes:
            shape = "box" if node in (ENTRY, COMPROMISED, FOILED) else "circle"
            lines.append(f'  "{node}" [shape={shape}];')
        for u, v, data in self.graph.edges(data=True):
            style = ' [style=dashed, color=red]' if data.get("hidden") else ""
            lines.append(f'  "{u}" -> "{v}"{style};')
        lines.append("}")
        return "\n".join(lines)


def build_state_space(
    model: VulnerabilityModel,
    domains: Optional[Dict[str, Domain]] = None,
) -> StateSpace:
    """Unroll a model into its explicit state graph.

    Edges exist per the *implementation*: SPEC_ACPT and SPEC_REJ always;
    IMPL_REJ when the pFSM has a check; the hidden IMPL_ACPT edge when
    the implementation diverges from the spec.  Divergence is decided
    semantically when a domain for the pFSM is supplied (witness
    search); otherwise structurally (a missing or non-spec-equal check
    is assumed divergent) — the conservative reading.
    """
    import networkx as nx

    domains = domains or {}
    graph = nx.DiGraph()
    graph.add_node(ENTRY)
    graph.add_node(COMPROMISED)
    graph.add_node(FOILED)

    previous_accept = ENTRY
    for operation in model.operations:
        for pfsm in operation.pfsms:
            check = Node(operation.name, pfsm.name, StateKind.SPEC_CHECK)
            accept = Node(operation.name, pfsm.name, StateKind.ACCEPT)
            reject = Node(operation.name, pfsm.name, StateKind.REJECT)
            for node in (check, accept, reject):
                graph.add_node(node.label())
            graph.add_edge(previous_accept, check.label(),
                           kind="chain", operation=operation.name,
                           pfsm=pfsm.name)
            graph.add_edge(check.label(), accept.label(),
                           kind=TransitionKind.SPEC_ACPT.value,
                           operation=operation.name, pfsm=pfsm.name)
            graph.add_edge(check.label(), reject.label(),
                           kind=TransitionKind.SPEC_REJ.value,
                           operation=operation.name, pfsm=pfsm.name)
            if pfsm.has_check:
                graph.add_edge(reject.label(), FOILED,
                               kind=TransitionKind.IMPL_REJ.value,
                               operation=operation.name, pfsm=pfsm.name)
            if _diverges(pfsm, domains.get(pfsm.name)):
                graph.add_edge(reject.label(), accept.label(),
                               kind=TransitionKind.IMPL_ACPT.value,
                               hidden=True,
                               operation=operation.name, pfsm=pfsm.name)
            previous_accept = accept.label()
    graph.add_edge(previous_accept, COMPROMISED, kind="terminal")
    return StateSpace(model, graph)


def _diverges(pfsm: PrimitiveFSM, domain: Optional[Domain]) -> bool:
    """Does the implementation accept something the spec rejects?"""
    if domain is not None:
        return pfsm.has_hidden_path(domain)
    if not pfsm.has_check:
        return True
    # Structural fallback: identical predicate objects are equal; other
    # checks are conservatively assumed divergent.
    return pfsm.impl_accepts is not pfsm.spec_accepts
