"""Exact Brandes betweenness over CSR adjacency.

``betweenness_csr`` is the single entry point.  It takes the CSR of a
simple undirected graph (each edge stored both ways, no self-pairs).
Before any breadth-first search it shrinks the work with two exact
reductions:

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

The searches run in rounds (Brandes 2001): round r searches the r-th
non-leaf source of every component, in node order.  Nodes are numbered
with the components of the most rounds first, so the nodes and arcs still
searching in round r are prefixes.  Up to ``ROUNDS`` consecutive rounds
share one bit-parallel breadth-first search (Akiba, Iwata and Yoshida,
SIGMOD 2013): bit b of a node's words says that round r + b has reached
it, and one level is one OR over the arcs for all of them.  The rounds'
levels then give each round's shortest-path DAG, and each DAG level is one
``np.bincount`` over every round of a batch, keyed by (node, round): σ
forward, δ backward.  Each key sums its terms in arc order and the rounds
reach the scores in round order, exactly as one search at a time would, so
the scores are bitwise-deterministic for a given graph and equal to
scoring one component at a time.  ``SLICE`` caps every batch temporary.

Returned scores are raw Brandes sums over ordered source/target pairs; the
caller halves them for the undirected convention.
"""

from __future__ import annotations

import numpy as np

ROUNDS = 64  # rounds per bit-parallel search: one bit of a node's uint64 words each
SLICE = 1 << 16  # elements: a batch's levels are rounds x nodes, its DAG rounds x arcs


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


def _levels(starts: np.ndarray, tails: np.ndarray, roots: np.ndarray, bits: np.ndarray,
            width: int) -> np.ndarray:
    """Level of every node in each of ``width`` searches at once, -1 where unreached.

    Search b starts from the ``roots`` whose ``bits`` are b.  Node v's row
    of words holds bit b once search b has reached it; ``starts`` and
    ``tails`` are the CSR of the nodes searched, each edge stored both ways.
    """
    m = starts.size
    seen = np.zeros((m, -(-width // 64)), dtype=np.uint64)
    seen[roots, bits >> 6] = np.uint64(1) << (bits & 63).astype(np.uint64)
    level = np.full((m, width), -1, dtype=np.int16 if m < 1 << 15 else np.int32)
    level[roots, bits] = 0
    frontier, depth = seen.copy(), 0
    while True:
        reached = np.bitwise_or.reduceat(frontier.take(tails, axis=0), starts, axis=0) & ~seen
        hit = np.flatnonzero(reached.any(axis=1))
        if not hit.size:
            return level
        depth += 1
        seen |= reached
        words = reached[hit].astype("<u8", copy=False).view(np.uint8)
        now = np.unpackbits(words, axis=1, bitorder="little")[:, :width]
        level[hit] += now * level.dtype.type(depth + 1)  # from -1 to depth
        frontier = reached


def _dependencies(level: np.ndarray, up: np.ndarray, down: np.ndarray,
                  origins: np.ndarray) -> np.ndarray:
    """Brandes dependencies δ of a batch of searches, on (node, search) keys.

    ``level`` holds every key's level, flat; the searches start at the
    ``origins`` keys.  ``up`` and ``down`` hold the keys at either end of
    each arc, one row per arc, one column per search.  The DAG arcs, one
    level apart, are grouped by level with a stable sort, which keeps
    (arc, search) order inside a level: each key sums its terms in arc order.
    """
    up_level = level.take(up)
    dag = np.flatnonzero(level.take(down) == up_level + 1)
    depth = up_level.take(dag)
    by_level = np.argsort(depth, kind="stable")
    dag, depth = dag.take(by_level), depth.take(by_level)
    bounds = np.searchsorted(depth, np.arange(depth[-1] + 1, dtype=depth.dtype), "right").tolist()
    up, down = up.take(dag), down.take(dag)
    steps = [(up[lo:hi], down[lo:hi]) for lo, hi in zip([0, *bounds], bounds)]
    sigma = np.zeros(level.size, dtype=np.float64)
    sigma[origins] = 1.0
    for u, d in steps:
        sigma += np.bincount(d, weights=sigma.take(u), minlength=sigma.size)
    # A root's own dependency is never counted, so its level is skipped.
    delta = np.zeros_like(sigma)
    for u, d in reversed(steps[1:]):
        ratio = sigma.take(u) / sigma.take(d)
        delta += np.bincount(u, weights=ratio * (1.0 + delta.take(d)), minlength=sigma.size)
    return delta


def betweenness_csr(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Raw Brandes betweenness for all nodes, searched in batches of rounds."""
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
    # Renumber: components with the most rounds first, node order inside.
    rounds = np.bincount(source_label, minlength=k)[label]
    order = np.argsort(-rounds, kind="stable")
    place = np.empty(k, dtype=np.int64)
    place[order] = np.arange(k)
    by_head = np.argsort(place[heads], kind="stable")
    heads, tails, label = place[heads[by_head]], place[tails[by_head]], place[label[order]]
    starts = np.concatenate(([0], np.cumsum(degree[order])))
    ends = np.searchsorted(-rounds[order], -np.arange(rounds.max()))  # nodes in round r
    by_rank = np.argsort(rank, kind="stable")
    roots, root_rank = place[sources[by_rank]], rank[by_rank]
    root_weight = 1.0 + leaves[sources[by_rank]]
    firsts = np.searchsorted(root_rank, np.arange(ends.size + 1))  # roots of round r

    scores = np.zeros(k, dtype=np.float64)
    keys = {}
    r = 0
    while r < ends.size:  # one bit-parallel search for rounds r..r+width-1
        m, e = int(ends[r]), int(starts[ends[r]])
        width = min(ROUNDS, ends.size - r, max(1, SLICE // m))
        step = max(1, SLICE // (m + e))  # rounds per dependency batch
        if step not in keys:  # the step only grows, and the keys of the last are done with
            keys.clear()
        batch = slice(firsts[r], firsts[r + width])
        level = _levels(starts[:m], tails[:e], roots[batch], root_rank[batch] - r, width)
        for a in range(r, r + width, step):
            b = min(a + step, r + width)
            m, e = int(ends[a]), int(starts[ends[a]])
            if b - a not in keys:  # (node, search) keys of each arc's ends
                column = np.arange(b - a)
                keys[b - a] = heads[:e, None] * (b - a) + column, tails[:e, None] * (b - a) + column
            up, down = keys[b - a]
            part = slice(firsts[a], firsts[b])
            rows = root_rank[part] - a
            delta = _dependencies(
                level[:m, a - r : b - r].ravel(), up[:e], down[:e], roots[part] * (b - a) + rows
            )
            weight = np.zeros((m, b - a), dtype=np.float64)  # by component and round
            weight[label[roots[part]], rows] = root_weight[part]
            for row in (weight.take(label[:m], axis=0) * delta.reshape(m, b - a)).T:
                scores[:m] += row  # in round order
        r += width
    scores = scores[place]
    scores[sources] += leaves[sources] * (size[source_label] - 2)
    bc[linked] = scores
    return bc
