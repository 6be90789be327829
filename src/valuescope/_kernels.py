"""Exact Brandes betweenness over CSR adjacency.

``betweenness_csr`` is the single entry point.  Before any breadth-first
search it shrinks the work with two exact reductions:

* **Component split** (Sariyüce et al., SDM 2013).  A search never leaves
  its source's component, so components are scored independently.
  Isolated nodes are dropped up front, and a component of two nodes has no
  interior node on any shortest path, so it scores 0 and runs no search.
* **Leaf folding** (Baglioni et al., ASONAM 2012).  A leaf never lies
  between two other nodes, and a leaf ``s`` whose neighbour is ``u`` sees
  the rest of its component exactly as ``u`` does: ``δ_s(v) = δ_u(v)`` for
  every ``v`` outside ``{s, u}``, and ``δ_s(u) = |C| - 2``.  So only
  non-leaf sources are searched, each weighted by ``1 + k_u`` where ``k_u``
  counts the leaves attached to ``u``, and ``k_u * (|C| - 2)`` is added to
  ``u``'s score afterwards.

The searches then run in rounds (Brandes 2001): round r runs the r-th
non-leaf source of every component, in node order, as one numpy
level-synchronous sweep.  Searches from different components share no
node, and each node sums its terms in the same order as a search from its
own source alone, so the scores are bitwise-deterministic for a given graph
and equal to scoring one component at a time.

Returned scores are raw Brandes sums over ordered source/target pairs; the
caller halves them for the undirected convention.
"""

from __future__ import annotations

import numpy as np


def _brandes_sweep(
    heads: np.ndarray, tails: np.ndarray, n: int, roots: np.ndarray
) -> np.ndarray:
    """Dependencies on one search from each of ``roots``, run as one sweep.

    The roots lie in distinct components, so the searches never meet and
    each node sums its terms in the same order as a search alone.
    """
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[roots] = 0
    sigma[roots] = 1.0
    steps = []  # the shortest-path DAG's edges, one array pair per level
    level = 0
    while True:
        on_level = dist[heads] == level
        step_heads = heads[on_level]
        if not step_heads.size:
            break
        step_tails = tails[on_level]
        dist[step_tails[dist[step_tails] < 0]] = level + 1
        forward = dist[step_tails] == level + 1
        up, down = step_heads[forward], step_tails[forward]
        sigma += np.bincount(down, weights=sigma[up], minlength=n)
        steps.append((up, down))
        level += 1
    # A root's own dependency is never counted, so its level is skipped.
    delta = np.zeros(n, dtype=np.float64)
    for up, down in reversed(steps[1:]):
        delta += np.bincount(
            up, weights=sigma[up] / sigma[down] * (1.0 + delta[down]), minlength=n
        )
    return delta


def _component_labels(heads: np.ndarray, tails: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """One node id per connected component, shared by all of its nodes, and the rounds taken.

    Min-label propagation over the arcs ``heads[i] -> tails[i]``, with
    Shiloach-Vishkin hooking: each round every node takes the smallest
    label among itself and its neighbours, each label's root takes the
    smallest label any of its members saw, and pointers are jumped until
    every node points at a root.  A label never exceeds its node and only
    decreases, so the loop ends, and at the fixed point neighbours agree;
    a long path needs O(log n) rounds, not O(n).
    """
    label = np.arange(n, dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        low = label.copy()
        np.minimum.at(low, heads, label[tails])
        np.minimum.at(low, label, low)
        while True:
            jumped = low[low]
            if np.array_equal(jumped, low):
                break
            low = jumped
        if np.array_equal(low, label):
            return label, rounds
        label = low


def betweenness_csr(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Raw Brandes betweenness for all nodes, one sweep per round of sources."""
    bc = np.zeros(n, dtype=np.float64)
    degree = np.diff(indptr.astype(np.int64, copy=False))
    if not (degree > 1).any():
        return bc  # only isolated nodes and dyads
    # Isolated nodes hold no arc: number the linked nodes 0..k-1 in node order.
    linked = degree > 0
    degree = degree[linked]
    k = degree.size
    heads = np.repeat(np.arange(k, dtype=np.int64), degree)
    tails = (np.cumsum(linked) - 1)[indices]
    label, _ = _component_labels(heads, tails, k)
    size = np.bincount(label, minlength=k)
    leaves = np.bincount(heads[degree[tails] == 1], minlength=k)

    # Round r searches the r-th source of every component, in node order.
    sources = np.flatnonzero(degree > 1)
    source_label = label[sources]
    grouped = np.argsort(source_label, kind="stable")
    rank = np.empty_like(sources)
    rank[grouped] = np.arange(sources.size) - np.searchsorted(
        source_label[grouped], source_label[grouped]
    )
    # Arcs of the components with the most sources go first, so the arcs
    # of the components still searching in round r are a prefix.
    arc_rounds = np.bincount(source_label, minlength=k)[label[heads]]
    order = np.argsort(-arc_rounds, kind="stable")
    heads, tails = heads[order], tails[order]
    ends = np.searchsorted(-arc_rounds[order], -np.arange(arc_rounds.max()))

    weight = np.zeros(k, dtype=np.float64)
    scores = np.zeros(k, dtype=np.float64)
    for r, end in enumerate(ends.tolist()):
        roots = sources[rank == r]
        weight[label[roots]] = 1.0 + leaves[roots]
        scores += weight[label] * _brandes_sweep(heads[:end], tails[:end], k, roots)
    scores[sources] += leaves[sources] * (size[source_label] - 2)
    bc[linked] = scores
    return bc
