"""Tests for element-graph composition and validation."""

import pytest

from repro.elements import Chain, Delay, ElementGraph, GraphError


def linear_graph(n=3):
    g = ElementGraph("lin")
    names = [f"e{i}" for i in range(n)]
    for name in names:
        g.add(Delay(name, base_cost=0.1 * (1 + len(name))))
    g.chain(*names)
    return g, names


class TestConstruction:
    def test_add_and_contains(self):
        g = ElementGraph()
        g.add(Delay("a"))
        assert "a" in g and len(g) == 1
        assert g.element("a").name == "a"

    def test_duplicate_name_rejected(self):
        g = ElementGraph()
        g.add(Delay("a"))
        with pytest.raises(GraphError):
            g.add(Delay("a"))

    def test_connect_unknown_rejected(self):
        g = ElementGraph()
        g.add(Delay("a"))
        with pytest.raises(GraphError):
            g.connect("a", "ghost")

    def test_entries_exits(self):
        g, names = linear_graph()
        assert g.entries() == [names[0]]
        assert g.exits() == [names[-1]]


class TestValidation:
    def test_empty_graph_invalid(self):
        with pytest.raises(GraphError, match="empty"):
            ElementGraph().validate()

    def test_cycle_detected(self):
        g, names = linear_graph(3)
        g.connect(names[-1], names[0])
        with pytest.raises(GraphError, match="cycle"):
            g.validate()

    def test_multiple_entries_rejected(self):
        g = ElementGraph()
        g.add(Delay("a"))
        g.add(Delay("b"))
        g.add(Delay("c"))
        g.connect("a", "c")
        g.connect("b", "c")
        with pytest.raises(GraphError, match="entry"):
            g.validate()

    def test_unreachable_rejected(self):
        g = ElementGraph()
        g.add(Delay("a"))
        g.add(Delay("b"))
        g.add(Delay("orphan-src"))
        g.add(Delay("orphan-dst"))
        g.connect("a", "b")
        g.connect("a", "orphan-src")  # now orphan-src reachable
        # Make a second component: orphan-dst unreachable but has in-edge
        g.connect("orphan-src", "orphan-dst")
        g.validate()  # all reachable now -- fine

    def test_valid_linear_passes(self):
        g, _ = linear_graph()
        g.validate()


class TestCompilation:
    def test_compile_linear_chain(self, mk_packet):
        g, names = linear_graph(4)
        ch = g.compile_chain()
        assert isinstance(ch, Chain)
        assert [e.name for e in ch] == names
        assert ch.process(mk_packet(), 0.0) > 0

    def test_branching_graph_not_compilable(self):
        g = ElementGraph()
        for n in ("a", "b", "c"):
            g.add(Delay(n))
        g.connect("a", "b")
        g.connect("a", "c")
        with pytest.raises(GraphError, match="fan"):
            g.compile_chain()

    def test_topological_order_respects_edges(self):
        g = ElementGraph()
        for n in ("x", "y", "z"):
            g.add(Delay(n))
        g.connect("x", "z")
        g.connect("x", "y")
        g.connect("y", "z")
        order = [e.name for e in g.topological_order()]
        assert order.index("x") < order.index("y") < order.index("z")


class TestAnalysis:
    def test_parallel_stages_diamond(self):
        g = ElementGraph()
        for n in ("src", "l", "r", "dst"):
            g.add(Delay(n))
        g.connect("src", "l")
        g.connect("src", "r")
        g.connect("l", "dst")
        g.connect("r", "dst")
        stages = g.parallel_stages()
        assert [sorted(e.name for e in s) for s in stages] == [
            ["src"], ["l", "r"], ["dst"]
        ]

    def test_critical_path_diamond(self):
        g = ElementGraph()
        g.add(Delay("src", base_cost=1.0))
        g.add(Delay("cheap", base_cost=0.1))
        g.add(Delay("pricey", base_cost=5.0))
        g.add(Delay("dst", base_cost=1.0))
        g.connect("src", "cheap")
        g.connect("src", "pricey")
        g.connect("cheap", "dst")
        g.connect("pricey", "dst")
        assert g.critical_path_cost() == pytest.approx(7.0)

    def test_linear_critical_path_is_sum(self):
        g = ElementGraph()
        g.add(Delay("a", base_cost=1.0))
        g.add(Delay("b", base_cost=2.0))
        g.chain("a", "b")
        assert g.critical_path_cost() == pytest.approx(3.0)
