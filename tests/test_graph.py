"""Graph construction, connectivity metrics and the betweenness kernel.

The betweenness oracle here is deliberately a different algorithm from the
shipped one: Floyd-Warshall distances plus explicit depth-first enumeration
of every shortest path, accumulating exact Fraction contributions.  It is
quadratic-ish and only viable for tiny graphs, which is the point; the
shipped Brandes implementations must agree with it.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from datetime import timedelta
from fractions import Fraction
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    BASE,
    betweenness,
    betweenness_exact,
    graph_from_edges,
    graph_of,
    indexed_nodes,
    msg,
    oracle_activity,
    oracle_betweenness_csr,
    oracle_build_graph,
    oracle_component_labels,
    oracle_contact_streams,
    oracle_window_series,
    random_edge_set,
    window_scores,
    window_starts,
)
import valuescope
from valuescope import (
    Message,
    MessageTable,
    activity,
    build_graph,
    connectivity_scores,
    density,
    group_betweenness_centralization,
    group_degree_centralization,
    window_series,
    write_dot,
    write_graphml,
)
from valuescope import _kernels
from valuescope._kernels import _brandes_sweep, _component_labels, betweenness_csr
from valuescope.dynamics import _contacts
from valuescope.graph import _quote_attr


def brute_force_betweenness(graph) -> dict[str, Fraction]:
    """All-shortest-paths enumeration over the simple projection."""
    n = graph.node_count
    nodes = graph.nodes
    inf = float("inf")
    dist = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in graph._indices[graph._indptr[i] : graph._indptr[i + 1]].tolist():
            adjacency[i].append(j)
            dist[i][j] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt

    scores = {v: Fraction(0) for v in nodes}
    for s in range(n):
        for t in range(s + 1, n):
            if dist[s][t] == inf:
                continue
            paths: list[tuple[int, ...]] = []
            stack = [(s, (s,))]
            while stack:
                node, path = stack.pop()
                if node == t:
                    paths.append(path)
                    continue
                for nbr in adjacency[node]:
                    # len(path) is the edge count once nbr is appended.
                    if len(path) + dist[nbr][t] == dist[s][t]:
                        stack.append((nbr, path + (nbr,)))
            total = len(paths)
            through: dict[int, int] = {}
            for path in paths:
                for v in path[1:-1]:
                    through[v] = through.get(v, 0) + 1
            for v, count in through.items():
                scores[nodes[v]] += Fraction(count, total)
    return scores


def path_graph(n: int):
    nodes = indexed_nodes(n)
    return graph_from_edges([(nodes[i], nodes[i + 1]) for i in range(n - 1)])


def star_graph(n_spokes: int):
    nodes = indexed_nodes(n_spokes + 1)
    return graph_from_edges([(nodes[0], s) for s in nodes[1:]])


def cycle_graph(n: int):
    nodes = indexed_nodes(n)
    return graph_from_edges(
        [(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    )


def complete_graph(n: int):
    nodes = indexed_nodes(n)
    return graph_from_edges(
        [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)]
    )


class TestBuildGraph:
    def test_mixed_fixture(self):
        messages = [
            msg("m1", "alice", 0.0, mentions=("bob",)),
            msg("m2", "bob", 1.0, reply_to="m1"),
            msg("m3", "carol", 2.0, mentions=("alice", "dave")),
            msg("m4", "dave", 3.0, reply_to="missing1"),
            msg("m5", "erin", 4.0, retweet_of="m3"),
            msg("m6", "alice", 5.0, retweet_of="missing2"),
        ]
        graph = graph_of(messages)
        assert graph.dangling_refs == 2
        assert graph.nodes == ("alice", "bob", "carol", "dave", "erin")
        kinds = sorted((source, target, kind) for source, target, kind, _ in graph.iter_arcs())
        assert kinds == [
            ("alice", "bob", "mention"),
            ("bob", "alice", "reply"),
            ("carol", "alice", "mention"),
            ("carol", "dave", "mention"),
            ("erin", "carol", "retweet"),
        ]
        assert graph.simple_edge_count == 4

    def test_mention_only_handle_becomes_node(self):
        graph = graph_of([msg("m1", "alice", mentions=("ghost",))])
        assert "ghost" in graph.nodes

    def test_self_mention_excluded_from_edges(self):
        graph = graph_of([msg("m1", "alice", mentions=("alice", "bob"))])
        assert graph.simple_edge_count == 1
        assert graph.node_count == 2

    def test_parallel_arcs_collapse_to_one_edge(self):
        messages = [
            msg("m1", "alice", 0.0, mentions=("bob",)),
            msg("m2", "bob", 1.0, mentions=("alice",)),
            msg("m3", "alice", 2.0, mentions=("bob", "bob")),
        ]
        graph = graph_of(messages)
        assert graph.simple_edge_count == 1
        assert len(graph.arc_rows) == 4

    def test_empty(self):
        graph = graph_of([])
        assert graph.node_count == 0
        assert graph.simple_edge_count == 0
        assert graph.dangling_refs == 0


class TestDensity:
    def test_triangle_plus_isolate(self):
        graph = graph_from_edges(
            [("a", "b"), ("b", "c"), ("a", "c")], extra_nodes=("d",)
        )
        assert density(graph) == 0.5

    def test_small_cases(self):
        assert density(graph_from_edges([], extra_nodes=("a",))) == 0.0
        assert density(graph_from_edges([("a", "b")])) == 1.0
        assert density(complete_graph(6)) == 1.0

    def test_matches_pair_enumeration(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 15)
            edges = random_edge_set(rng, n, rng.uniform(0.1, 0.9))
            graph = graph_from_edges(edges, extra_nodes=indexed_nodes(n))
            assert density(graph) == pytest.approx(
                len(set(edges)) / (n * (n - 1) / 2), abs=1e-12
            )


class TestBetweenness:
    def test_path_of_three(self):
        graph = path_graph(3)
        assert betweenness(graph) == {"n000": 0.0, "n001": 1.0, "n002": 0.0}

    def test_star_center_counts_spoke_pairs(self):
        graph = star_graph(4)
        scores = betweenness(graph)
        assert scores["n000"] == 6.0
        assert all(scores[s] == 0.0 for s in graph.nodes[1:])

    def test_four_cycle_splits_paths(self):
        # a-b, a-c, b-d, c-d: each opposite pair has two shortest paths, so
        # every node carries half a pair.
        graph = graph_from_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        scores = betweenness(graph)
        assert scores == {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}

    def test_bridge_carries_all_cross_pairs(self):
        # Two triangles joined by a bridge x-y: x and y each sit on every
        # cross-component pair's unique shortest path.
        graph = graph_from_edges(
            [("a", "b"), ("a", "x"), ("b", "x"),
             ("c", "d"), ("c", "y"), ("d", "y"),
             ("x", "y")]
        )
        scores = betweenness(graph)
        # x: pairs {a,b}x{c,d,y} routed through x: (a,c),(a,d),(a,y),(b,c),(b,d),(b,y) = 6
        assert scores["x"] == 6.0
        assert scores["y"] == 6.0
        assert scores["a"] == 0.0

    def test_exact_equals_enumeration_on_seeded_graphs(self):
        rng = random.Random(4242)
        for _ in range(40):
            n = rng.randint(2, 10)
            edges = random_edge_set(rng, n, rng.uniform(0.1, 0.8))
            graph = graph_from_edges(edges, extra_nodes=indexed_nodes(n))
            assert betweenness_exact(graph) == brute_force_betweenness(graph)

    def test_float_kernel_tracks_exact_scores(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(2, 14)
            edges = random_edge_set(rng, n, rng.uniform(0.1, 0.8))
            graph = graph_from_edges(edges, extra_nodes=indexed_nodes(n))
            exact = betweenness_exact(graph)
            approx = betweenness(graph)
            for node, value in exact.items():
                assert abs(approx[node] - float(value)) < 1e-12

    def test_numpy_kernel_matches_exact(self):
        # One single-root sweep per node, summed, and the rounds behind the
        # component split and leaf folding of betweenness_csr.
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(2, 30)
            edges = random_edge_set(rng, n, rng.uniform(0.05, 0.3))
            graph = graph_from_edges(edges, extra_nodes=indexed_nodes(n))
            exact = [float(betweenness_exact(graph)[h]) for h in graph.nodes]
            heads = np.repeat(np.arange(n), np.diff(graph._indptr))
            direct = sum(
                _brandes_sweep(heads, graph._indices, n, np.array([s])) for s in range(n)
            )
            assert np.abs(direct / 2.0 - exact).max() < 1e-12
            reduced = betweenness_csr(graph._indptr, graph._indices, n)
            assert np.abs(reduced / 2.0 - exact).max() < 1e-12

    def test_one_sweep_per_round_not_per_component(self, monkeypatch):
        # 40 stars of 2 to 6 spokes need one source each and 30 paths of 3 to
        # 8 nodes need 1 to 6: six rounds, the first searching all 70
        # components at once.
        edges, count = [], 0
        for star in range(40):
            hub, spokes = count, 2 + star % 5
            edges += [(hub, hub + k) for k in range(1, spokes + 1)]
            count += 1 + spokes
        for length in range(30):
            path = range(count, count + 3 + length % 6)
            edges += list(zip(path, path[1:]))
            count += len(path)
        names = indexed_nodes(count)
        random.Random(5).shuffle(names)
        graph = graph_from_edges([(names[u], names[v]) for u, v in edges])
        roots = []
        sweep = _kernels._brandes_sweep

        def counted(heads, tails, n, round_roots):
            roots.append(round_roots.size)
            return sweep(heads, tails, n, round_roots)

        monkeypatch.setattr(_kernels, "_brandes_sweep", counted)
        scores = betweenness_csr(graph._indptr, graph._indices, graph.node_count)
        assert roots == [70, 25, 20, 15, 10, 5]
        assert np.array_equal(
            scores, oracle_betweenness_csr(graph._indptr, graph._indices, graph.node_count)
        )

    def test_disconnected_components_scored_independently(self):
        graph = graph_from_edges(
            [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")]
        )
        scores = betweenness(graph)
        assert scores["b"] == 1.0
        assert scores["y"] == 1.0

    def test_relabeling_equivariance(self):
        rng = random.Random(13)
        nodes = indexed_nodes(9)
        edges = random_edge_set(rng, 9, 0.35)
        renamed = {old: f"z{i:03d}" for i, old in enumerate(reversed(nodes))}
        original = betweenness_exact(graph_from_edges(edges))
        mirrored = betweenness_exact(
            graph_from_edges([(renamed[u], renamed[v]) for u, v in edges])
        )
        for node, value in original.items():
            assert mirrored[renamed[node]] == value


class TestCentralization:
    def test_path_of_four_worked_values(self):
        graph = path_graph(4)
        assert group_degree_centralization(graph) == pytest.approx(1 / 3, abs=1e-12)
        assert group_betweenness_centralization(graph) == pytest.approx(4 / 9, abs=1e-12)

    def test_star_is_exactly_one(self):
        for spokes in (2, 5, 30, 199):
            graph = star_graph(spokes)
            assert group_degree_centralization(graph) == 1.0
            assert group_betweenness_centralization(graph) == 1.0

    def test_vertex_transitive_graphs_are_exactly_zero(self):
        for n in (3, 8, 41):
            cycle = cycle_graph(n)
            assert group_degree_centralization(cycle) == 0.0
            assert group_betweenness_centralization(cycle) == 0.0
        complete = complete_graph(12)
        assert group_degree_centralization(complete) == 0.0
        assert group_betweenness_centralization(complete) == 0.0

    def test_tiny_graphs_are_zero_by_convention(self):
        for graph in (
            graph_from_edges([], extra_nodes=()),
            graph_from_edges([], extra_nodes=("a",)),
            graph_from_edges([("a", "b")]),
        ):
            assert group_degree_centralization(graph) == 0.0
            assert group_betweenness_centralization(graph) == 0.0

    def test_bounds_on_random_graphs(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(3, 40)
            edges = random_edge_set(rng, n, rng.uniform(0.05, 0.9))
            graph = graph_from_edges(edges, extra_nodes=indexed_nodes(n))
            for value in (
                group_degree_centralization(graph),
                group_betweenness_centralization(graph),
                density(graph),
            ):
                assert -1e-9 <= value <= 1 + 1e-9

    def test_isolated_node_does_not_change_betweenness(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")]
        bare = graph_from_edges(edges)
        padded = graph_from_edges(edges, extra_nodes=("zz",))
        before = betweenness(bare)
        after = betweenness(padded)
        for node in bare.nodes:
            assert after[node] == before[node]
        assert after["zz"] == 0.0
        assert density(padded) < density(bare)

    def test_connectivity_scores_bundle(self):
        graph = star_graph(4)
        scores = connectivity_scores(graph)
        assert scores["density"] == pytest.approx(2 * 4 / (5 * 4))
        assert scores["degree_centralization"] == 1.0
        assert scores["betweenness_centralization"] == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=12))
def test_centralization_bounds_property(seed, n):
    rng = random.Random(seed)
    edges = random_edge_set(rng, n, rng.uniform(0.0, 1.0))
    graph = graph_from_edges(edges, extra_nodes=indexed_nodes(n))
    assert -1e-12 <= group_degree_centralization(graph) <= 1 + 1e-12
    assert -1e-12 <= group_betweenness_centralization(graph) <= 1 + 1e-12


@st.composite
def shattered_graph(draw):
    """Several components at once, handles shuffled so they interleave.

    Returns the edge list and the isolated handles.  Components are isolated
    nodes, dyads, stars, pendant chains and random connected cores with
    leaves and pendant chains hung on them: every case the component split
    and leaf folding in betweenness_csr treat specially.  Long paths,
    caterpillars and cycles add components of high diameter, which take
    many BFS levels per sweep.
    """
    kinds = draw(
        st.lists(
            st.sampled_from(
                ("isolated", "dyad", "star", "chain", "core", "long-path", "caterpillar", "cycle")
            ),
            min_size=1,
            max_size=6,
        )
    )
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges: list[tuple[int, int]] = []
    isolated: list[int] = []
    count = 0

    def fresh(k: int) -> list[int]:
        nonlocal count
        count += k
        return list(range(count - k, count))

    for kind in kinds:
        if kind == "isolated":
            isolated += fresh(1)
        elif kind == "dyad":
            edges.append(tuple(fresh(2)))
        elif kind == "star":
            hub, *spokes = fresh(rng.randint(3, 7))
            edges += [(hub, spoke) for spoke in spokes]
        elif kind in ("chain", "long-path"):
            chain = fresh(rng.randint(3, 6) if kind == "chain" else rng.randint(20, 40))
            edges += list(zip(chain, chain[1:]))
        elif kind == "caterpillar":
            spine = fresh(rng.randint(8, 20))
            edges += list(zip(spine, spine[1:]))
            for node in spine:
                edges += [(node, leaf) for leaf in fresh(rng.randint(0, 2))]
        elif kind == "cycle":
            cycle = fresh(rng.randint(10, 30))
            edges += list(zip(cycle, cycle[1:] + cycle[:1]))
        else:
            core = fresh(rng.randint(3, 7))
            edges += list(zip(core, core[1:]))  # a spanning path keeps it connected
            edges += [
                (u, v)
                for i, u in enumerate(core)
                for v in core[i + 2 :]
                if rng.random() < 0.4
            ]
            for _ in range(rng.randint(0, 4)):
                pendant = fresh(rng.randint(1, 3))
                edges += list(zip([rng.choice(core), *pendant], pendant))
    names = indexed_nodes(count)
    rng.shuffle(names)
    return [(names[u], names[v]) for u, v in edges], [names[v] for v in isolated]


@settings(max_examples=60, deadline=None)
@given(shattered_graph())
def test_reduced_betweenness_matches_fraction_oracle(shape):
    edges, isolated = shape
    graph = graph_from_edges(edges, extra_nodes=isolated)
    exact = betweenness_exact(graph)
    scores = betweenness(graph)
    for node, value in exact.items():
        assert abs(scores[node] - float(value)) < 1e-9


def block_diagonal(blocks):
    """One CSR holding the blocks' graphs side by side, and its node count."""
    indptr, indices = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    nodes = arcs = 0
    for block in blocks:
        indptr.append(block._indptr[1:] + arcs)
        indices.append(block._indices + nodes)
        nodes, arcs = nodes + block.node_count, arcs + len(block._indices)
    return np.concatenate(indptr), np.concatenate(indices), nodes


shattered_unions = st.lists(shattered_graph() | st.just(([], [])), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(shattered_unions)
def test_block_diagonal_union_scores_as_its_blocks(shapes):
    # Window series are scored as one block-diagonal graph: exact only if
    # every block scores bit for bit as it does alone.
    blocks = [graph_from_edges(edges, extra_nodes=isolated) for edges, isolated in shapes]
    union = betweenness_csr(*block_diagonal(blocks))
    apart = [betweenness_csr(b._indptr, b._indices, b.node_count) for b in blocks]
    assert np.array_equal(union, np.concatenate(apart))


@settings(max_examples=60, deadline=None)
@given(shattered_unions)
def test_rounds_match_component_loop(shapes):
    # Round r searches the r-th source of every component in one sweep; the
    # per-component loop it replaced must give the same bits.
    csr = block_diagonal(
        graph_from_edges(edges, extra_nodes=isolated) for edges, isolated in shapes
    )
    assert np.array_equal(betweenness_csr(*csr), oracle_betweenness_csr(*csr))


def _both_ways(pairs):
    heads, tails = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return np.concatenate((heads, tails)), np.concatenate((tails, heads))


def test_component_labels_take_logarithmic_rounds_on_a_long_path():
    # Propagation with one pointer jump per round needs about n/3 rounds here.
    n = 100_000
    order = np.random.default_rng(0).permutation(n)
    heads, tails = _both_ways(np.stack((order[:-1], order[1:]), axis=1))
    labels, rounds = _component_labels(heads, tails, n)
    assert (labels == 0).all()
    assert rounds <= 2 * math.log2(n)


@st.composite
def paths_cycles_and_noise(draw):
    """Node count and edges: shuffled paths and cycles on disjoint runs, plus noise."""
    n = draw(st.integers(min_value=1, max_value=80))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    pairs = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        run = order[lo:hi]
        pairs += zip(run, run[1:])
        if len(run) > 2 and draw(st.booleans()):
            pairs.append((run[-1], run[0]))
    node = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(node, node), max_size=n // 4))
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(paths_cycles_and_noise())
def test_component_labels_match_propagation_oracle(graph):
    n, pairs = graph
    heads, tails = _both_ways(pairs)
    labels, _ = _component_labels(heads, tails, n)
    assert np.array_equal(labels, oracle_component_labels(heads, tails, n))


EXPECTED_GRAPHML = """\
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="orientation" attr.type="string"/>
  <key id="d1" for="node" attr.name="degree" attr.type="int"/>
  <key id="d2" for="edge" attr.name="kind" attr.type="string"/>
  <key id="d3" for="edge" attr.name="timestamp" attr.type="string"/>
  <graph id="G" edgedefault="directed">
    <node id="alice"><data key="d0">Customers</data><data key="d1">2</data></node>
    <node id="bob"><data key="d0">Customers</data><data key="d1">1</data></node>
    <node id="carol"><data key="d0">Customers</data><data key="d1">2</data></node>
    <node id='d&amp;"q"&lt;x&gt;'><data key="d0">Customers</data><data key="d1">1</data></node>
    <node id="dave"><data key="d0">Customers</data><data key="d1">0</data></node>
    <edge source="alice" target="bob"><data key="d2">mention</data><data key="d3">2021-03-01T00:00:00Z</data></edge>
    <edge source="alice" target="bob"><data key="d2">mention</data><data key="d3">2021-03-01T00:00:00Z</data></edge>
    <edge source="alice" target="alice"><data key="d2">mention</data><data key="d3">2021-03-01T00:00:00Z</data></edge>
    <edge source="bob" target="alice"><data key="d2">reply</data><data key="d3">2021-03-01T01:00:30Z</data></edge>
    <edge source="carol" target='d&amp;"q"&lt;x&gt;'><data key="d2">mention</data><data key="d3">2021-03-01T02:00:00Z</data></edge>
    <edge source="carol" target="alice"><data key="d2">retweet</data><data key="d3">2021-03-01T02:00:00Z</data></edge>
  </graph>
</graphml>
"""

EXPECTED_DOT = """\
digraph "Customers" {
  "alice" [orientation="Customers", degree=2];
  "bob" [orientation="Customers", degree=1];
  "carol" [orientation="Customers", degree=2];
  "d&\\"q\\"<x>" [orientation="Customers", degree=1];
  "dave" [orientation="Customers", degree=0];
  "alice" -> "bob" [kind="mention", timestamp="2021-03-01T00:00:00Z"];
  "alice" -> "bob" [kind="mention", timestamp="2021-03-01T00:00:00Z"];
  "alice" -> "alice" [kind="mention", timestamp="2021-03-01T00:00:00Z"];
  "bob" -> "alice" [kind="reply", timestamp="2021-03-01T01:00:30Z"];
  "carol" -> "d&\\"q\\"<x>" [kind="mention", timestamp="2021-03-01T02:00:00Z"];
  "carol" -> "alice" [kind="retweet", timestamp="2021-03-01T02:00:00Z"];
}
"""


class TestExports:
    @pytest.fixture()
    def graph(self):
        return graph_of(
            [
                msg("m1", "alice", 0.0, mentions=("bob",)),
                msg("m2", "bob", 1.0, reply_to="m1"),
                msg("m3", "carol", 2.0, mentions=('we "quote" <chars>',)),
            ]
        )

    def test_graphml_round_trip(self, graph, tmp_path):
        path = tmp_path / "g.graphml"
        write_graphml(graph, "Customers", str(path))
        tree = ET.parse(path)
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        nodes = tree.findall(".//g:node", ns)
        edges = tree.findall(".//g:edge", ns)
        assert len(nodes) == graph.node_count
        assert len(edges) == len(graph.arc_rows)
        degree_data = {
            n.get("id"): n.find("g:data[@key='d1']", ns).text for n in nodes
        }
        assert degree_data["alice"] == "1"
        kinds = {e.find("g:data[@key='d2']", ns).text for e in edges}
        assert kinds == {"mention", "reply"}

    def test_dot_output(self, graph, tmp_path):
        path = tmp_path / "g.dot"
        write_dot(graph, "Customers", str(path))
        text = path.read_text()
        assert text.startswith("digraph")
        assert '"alice" -> "bob"' in text
        assert 'kind="reply"' in text
        assert '\\"quote\\"' in text

    def test_exact_text(self, tmp_path):
        # A duplicate mention, a self-mention, a reply, a retweet, a
        # dangling reply and a fractional-second timestamp, which the
        # timestamp text truncates.
        graph = graph_of(
            [
                Message(
                    "m1", "alice", BASE + timedelta(microseconds=999_999), "",
                    mentions=("bob", "bob", "alice"),
                ),
                Message(
                    "m2", "bob", BASE + timedelta(hours=1, seconds=30, microseconds=500_000),
                    "", reply_to="m1",
                ),
                Message(
                    "m3", "carol", BASE + timedelta(hours=2), "",
                    retweet_of="m1", mentions=('d&"q"<x>',),
                ),
                Message("m4", "dave", BASE + timedelta(hours=3), "", reply_to="gone"),
            ]
        )
        graphml, dot = tmp_path / "g.graphml", tmp_path / "g.dot"
        write_graphml(graph, "Customers", str(graphml))
        write_dot(graph, "Customers", str(dot))
        assert graphml.read_text() == EXPECTED_GRAPHML
        assert dot.read_text() == EXPECTED_DOT

    def test_export_is_deterministic(self, graph, tmp_path):
        a, b = tmp_path / "a.graphml", tmp_path / "b.graphml"
        write_graphml(graph, "Customers", str(a))
        write_graphml(graph, "Customers", str(b))
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="&<>\t\n\r\"'a ", max_size=8))
    @example("a&b<c>d")
    @example("tab\tline\nreturn\r")
    @example('say "hi"')
    @example("it's")
    @example("both \"quotes\" and 'these'")
    def test_attribute_quoting_is_quoteattrs(self, handle):
        assert _quote_attr(handle) == quoteattr(handle)

    def test_graphml_keeps_handles_with_markup_quotes_and_line_breaks(self, tmp_path):
        # Attribute values normalize a raw tab or line break to a space;
        # only character references keep them.
        handles = ("a&b<c>", "tab\tline\nreturn\rend", 'say "hi"', "it's", "\"both'")
        graph = graph_of([msg("m1", "x", 0.0, mentions=handles)])
        path = tmp_path / "g.graphml"
        write_graphml(graph, "Customers", str(path))
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        tree = ET.parse(path)
        assert tuple(n.get("id") for n in tree.findall(".//g:node", ns)) == graph.nodes
        assert [e.get("target") for e in tree.findall(".//g:edge", ns)] == list(handles)


def test_cli_import_leaves_out_xml_sax_and_urllib():
    """GraphML quoting is written out, so starting the CLI imports neither."""
    src = os.path.dirname(os.path.dirname(valuescope.__file__))
    code = "import sys, valuescope.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "valuescope.graph" in done.stdout.split()
    assert not {"urllib.request", "xml.sax"} & set(done.stdout.split())


def test_build_is_order_independent():
    rng = random.Random(5)
    messages = [
        msg(f"m{i}", f"a{rng.randint(0, 9)}", float(i), mentions=(f"a{rng.randint(0, 9)}",))
        for i in range(40)
    ]
    shuffled = messages[:]
    rng.shuffle(shuffled)
    g1 = graph_of(messages)
    g2 = graph_of(shuffled)
    assert g1.dangling_refs == g2.dangling_refs
    assert g1.nodes == g2.nodes
    assert betweenness(g1) == betweenness(g2)
    assert density(g1) == density(g2)


HANDLES = ("a", "b", "c", "d")


@st.composite
def corpora(draw):
    """Small unsorted corpora exercising every way a reference resolves.

    Timestamps repeat and straddle window edges; mentions repeat, point at
    their own author or at handles that never post; replies and retweets
    point anywhere in the corpus (other windows, later messages, the
    message itself) or at ids that do not exist.
    """
    size = draw(st.integers(min_value=0, max_value=16))
    ids = [f"m{i:02d}" for i in range(size)]
    references = st.none() | st.sampled_from([*ids, "gone1", "gone2"])
    messages = []
    for ident in ids:
        hours = draw(st.sampled_from([0.0, 0.5, 5.9, 6.0, 11.75, 23.999, 24.0, 31.0, 49.5]))
        micros = draw(st.sampled_from([0, 250_000, 999_999]))
        messages.append(
            Message(
                id=ident,
                author=draw(st.sampled_from(HANDLES)),
                created_at=BASE + timedelta(hours=hours, microseconds=micros),
                text="",
                reply_to=draw(references),
                retweet_of=draw(references),
                mentions=tuple(
                    draw(st.lists(st.sampled_from([*HANDLES, "x", "y"]), max_size=3))
                ),
            )
        )
    return draw(st.permutations(messages))


@settings(max_examples=150, deadline=None)
@given(corpora(), st.sampled_from([0.37, 1.0, 6.0, 7.3, 24.0]))
def test_interaction_table_matches_message_walking_oracles(messages, window_hours):
    graph = graph_of(messages)
    oracle = oracle_build_graph(messages)
    assert graph.nodes == oracle.nodes
    assert np.array_equal(graph._indptr, oracle.indptr)
    assert np.array_equal(graph._indices, oracle.indices)
    assert graph.simple_edge_count == oracle.indices.size // 2
    assert graph.dangling_refs == oracle.dangling_refs
    in_order = sorted(messages, key=lambda m: (m.created_at, m.id))
    in_order_oracle = oracle_build_graph(in_order)
    assert list(graph.iter_arcs()) == in_order_oracle.arcs
    assert np.array_equal(graph.authors, in_order_oracle.authors)
    assert np.array_equal(graph.stamps, in_order_oracle.stamps)
    assert np.array_equal(graph.table, in_order_oracle.table)

    windows = window_series(graph, window_hours)
    expected = oracle_window_series(messages, window_hours)
    assert len(windows) == len(expected)
    assert window_starts(windows) == [w.start for w in expected]
    assert windows.node_counts.tolist() == [w.node_count for w in expected]
    assert windows.edge_counts.tolist() == [w.edge_count for w in expected]
    assert windows.centralization.tolist() == [w.centralization for w in expected]
    # The oracle's window scores are dense; window_series keeps the nonzero ones.
    assert window_scores(windows, graph) == [
        (k, handle, score)
        for k, w in enumerate(expected)
        for handle, score in w.betweenness.items()
        if score
    ]

    streams: dict[tuple[str, str], list[float]] = {}
    pairs, stamps, _ = _contacts(graph)
    for pair, stamp in zip(pairs.tolist(), stamps.tolist()):
        sender, target = divmod(pair, graph.node_count)
        streams.setdefault((graph.nodes[sender], graph.nodes[target]), []).append(stamp)
    assert streams == oracle_contact_streams(messages)
    assert activity(graph) == oracle_activity(messages)


@settings(max_examples=150, deadline=None)
@given(corpora(), st.lists(st.booleans(), min_size=16, max_size=16))
def test_partition_graph_resolves_references_inside_the_partition(messages, keep):
    # The table holds the whole corpus; the graph sees one partition's rows.
    table = MessageTable.from_messages(messages)
    rows = table.order(np.flatnonzero(keep[: len(messages)]))
    graph = build_graph(table, rows)
    inside = sorted(
        (m for m, k in zip(messages, keep) if k), key=lambda m: (m.created_at, m.id)
    )
    assert [table.ids[row] for row in rows.tolist()] == [m.id for m in inside]
    oracle = oracle_build_graph(inside)
    assert graph.nodes == oracle.nodes
    assert graph.dangling_refs == oracle.dangling_refs
    assert np.array_equal(graph.authors, oracle.authors)
    assert np.array_equal(graph.stamps, oracle.stamps)
    assert np.array_equal(graph.table, oracle.table)
    assert np.array_equal(graph._indptr, oracle.indptr)
    assert np.array_equal(graph._indices, oracle.indices)
    assert list(graph.iter_arcs()) == oracle.arcs
