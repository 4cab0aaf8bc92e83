"""Element-graph composition and validation.

Chains deployed on data-plane paths are *compiled* from an element graph,
mirroring how Click configurations are written: elements are vertices,
packet hand-offs are edges.  The graph layer validates structure (acyclic,
single entry, reachable exit) before the data plane will accept it --
misconfigured NF graphs are a real operational failure mode and the tests
exercise the validation.

``parallel_stages`` exposes the level structure of the DAG (sets of
elements with no mutual dependencies).  This is the ParaGraph-style
analysis the same research group published for intra-chain parallelism;
the multipath data plane here parallelizes *across* chain replicas
instead, but the analysis is kept for the ablation comparing the two.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.elements.base import Chain, Element


class GraphError(ValueError):
    """Raised when an element graph fails validation."""


class ElementGraph:
    """A DAG of packet-processing elements.

    Build with :meth:`add` / :meth:`connect`, then :meth:`compile_chain`
    to produce the linear pipeline a path executes.
    """

    def __init__(self, name: str = "graph") -> None:
        # networkx loads with the first graph, not with the package: no
        # simulation run builds one.
        import networkx as nx

        self.name = name
        self._g = nx.DiGraph()
        self._elements: Dict[str, Element] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Register an element vertex; returns it for chaining."""
        if element.name in self._elements:
            raise GraphError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element
        self._g.add_node(element.name)
        return element

    def connect(self, upstream: str, downstream: str) -> None:
        """Add a packet hand-off edge from ``upstream`` to ``downstream``."""
        for n in (upstream, downstream):
            if n not in self._elements:
                raise GraphError(f"unknown element {n!r}")
        self._g.add_edge(upstream, downstream)

    def chain(self, *names: str) -> None:
        """Connect ``names`` in sequence (convenience)."""
        for up, down in zip(names, names[1:]):
            self.connect(up, down)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def element(self, name: str) -> Element:
        """Look up an element by name."""
        return self._elements[name]

    def entries(self) -> List[str]:
        """Elements with no upstream (packet entry points)."""
        return [n for n in self._g.nodes if self._g.in_degree(n) == 0]

    def exits(self) -> List[str]:
        """Elements with no downstream (packet exit points)."""
        return [n for n in self._g.nodes if self._g.out_degree(n) == 0]

    # ------------------------------------------------------------------
    # Validation and compilation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError`.

        Invariants: non-empty, acyclic, exactly one entry, every element
        reachable from the entry.
        """
        import networkx as nx

        if not self._elements:
            raise GraphError("empty element graph")
        if not nx.is_directed_acyclic_graph(self._g):
            cycle = nx.find_cycle(self._g)
            raise GraphError(f"element graph has a cycle: {cycle}")
        entries = self.entries()
        if len(entries) != 1:
            raise GraphError(f"need exactly one entry element, found {entries}")
        reachable = set(nx.descendants(self._g, entries[0])) | {entries[0]}
        unreachable = set(self._g.nodes) - reachable
        if unreachable:
            raise GraphError(f"elements unreachable from entry: {sorted(unreachable)}")

    def topological_order(self) -> List[Element]:
        """Elements in a valid execution order."""
        import networkx as nx

        self.validate()
        return [self._elements[n] for n in nx.topological_sort(self._g)]

    def compile_chain(self) -> Chain:
        """Compile a *linear* graph into a :class:`Chain`.

        Raises :class:`GraphError` if any element has fan-out/fan-in > 1
        (a branching graph cannot be a single pipeline).
        """
        self.validate()
        for n in self._g.nodes:
            if self._g.out_degree(n) > 1 or self._g.in_degree(n) > 1:
                raise GraphError(
                    f"element {n!r} has fan-in/out > 1; graph is not a linear chain"
                )
        return Chain(self.topological_order(), name=self.name)

    def compile_parallel(self, copy_cost: float = 0.15, merge_cost: float = 0.2):
        """Compile into a ParaGraph-style :class:`StageParallelChain`.

        Works for any valid DAG (branching allowed); levels come from
        :meth:`parallel_stages`.
        """
        from repro.elements.parallel import StageParallelChain

        return StageParallelChain(
            self.parallel_stages(), name=self.name,
            copy_cost=copy_cost, merge_cost=merge_cost,
        )

    def compile_optimal(
        self,
        copy_cost: float = 0.15,
        merge_cost: float = 0.2,
        packet_size: int = 1554,
    ):
        """Subgraph-level composition: parallelize only where it pays.

        For each dependency level, compare serial cost (sum of members)
        against parallel cost (max of members + copy/merge overheads) at
        the given packet size, and emit the cheaper composition --
        ParaGraph's central idea of *subgraph-level* (rather than
        all-or-nothing) parallelism.  Levels that do not pay are expanded
        into singleton stages in topological order.
        """
        from repro.elements.parallel import StageParallelChain

        stages = []
        for level in self.parallel_stages():
            costs = [el.base_cost + el.per_byte * packet_size for el in level]
            serial = sum(costs)
            parallel = max(costs) + copy_cost * (len(level) - 1) + merge_cost
            if len(level) > 1 and parallel < serial:
                stages.append(list(level))
            else:
                stages.extend([el] for el in level)
        return StageParallelChain(
            stages, name=f"{self.name}-opt",
            copy_cost=copy_cost, merge_cost=merge_cost,
        )

    def parallel_stages(self) -> List[List[Element]]:
        """Group elements into dependency levels (ParaGraph-style).

        Elements within one level have no path between them and could be
        executed concurrently on a packet copy.  Used by the intra-chain
        parallelism ablation.
        """
        import networkx as nx

        self.validate()
        levels: Dict[str, int] = {}
        for n in nx.topological_sort(self._g):
            preds = list(self._g.predecessors(n))
            levels[n] = 1 + max((levels[p] for p in preds), default=-1)
        n_levels = max(levels.values()) + 1
        stages: List[List[Element]] = [[] for _ in range(n_levels)]
        for name, lvl in levels.items():
            stages[lvl].append(self._elements[name])
        return stages

    def critical_path_cost(self, packet_size: int = 1554) -> float:
        """Longest-path expected cost through the DAG (no-jitter model)."""
        import networkx as nx

        self.validate()
        cost: Dict[str, float] = {}
        for n in nx.topological_sort(self._g):
            el = self._elements[n]
            own = el.base_cost + el.per_byte * packet_size
            preds = list(self._g.predecessors(n))
            cost[n] = own + max((cost[p] for p in preds), default=0.0)
        return max(cost.values())


def chain_from_names(
    names: Sequence[str],
    elements: Dict[str, Element],
    chain_name: str = "chain",
) -> Chain:
    """Build a validated linear chain from element instances by name."""
    g = ElementGraph(chain_name)
    for n in names:
        g.add(elements[n])
    g.chain(*names)
    return g.compile_chain()
