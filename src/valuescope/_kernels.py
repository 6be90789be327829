"""Exact Brandes betweenness over CSR adjacency.

``betweenness_csr`` is the single entry point.  Before any breadth-first
search it shrinks the work with two exact reductions:

* **Component split** (Sariyüce et al., SDM 2013).  Connected components
  are scored independently, each on its own compact sub-CSR.  A component
  of at most two nodes has no interior node on any shortest path, so it
  scores 0 and runs no search.
* **Leaf folding** (Baglioni et al., ASONAM 2012).  A leaf never lies
  between two other nodes, and a leaf ``s`` whose neighbour is ``u`` sees
  the rest of its component exactly as ``u`` does: ``δ_s(v) = δ_u(v)`` for
  every ``v`` outside ``{s, u}``, and ``δ_s(u) = |C| - 2``.  So only
  non-leaf sources are searched, each weighted by ``1 + k_u`` where ``k_u``
  counts the leaves attached to ``u``, and ``k_u * (|C| - 2)`` is added to
  ``u``'s score afterwards.

A numpy level-synchronous Brandes kernel (Brandes 2001) then runs from the
given sources of one component, each dependency vector scaled by its
source's weight.  Components and sources are visited in a fixed order, so
the scores are bitwise-deterministic for a given graph.

Returned scores are raw Brandes sums over ordered source/target pairs; the
caller halves them for the undirected convention.
"""

from __future__ import annotations

import numpy as np


def _brandes_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    bc = np.zeros(n, dtype=np.float64)
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    tails = indices
    for s, weight in zip(sources.tolist(), weights.tolist()):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        dist[s] = 0
        sigma[s] = 1.0
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
        # The source's own dependency is never counted, so its level is skipped.
        delta = np.zeros(n, dtype=np.float64)
        for up, down in reversed(steps[1:]):
            delta += np.bincount(
                up, weights=sigma[up] / sigma[down] * (1.0 + delta[down]), minlength=n
            )
        bc += weight * delta
    return bc


def _component_labels(heads: np.ndarray, tails: np.ndarray, n: int) -> np.ndarray:
    """One node id per connected component, shared by all of its nodes.

    Min-label propagation with pointer jumping over the arcs ``heads[i] ->
    tails[i]``: each round every node takes the smallest label among itself
    and its neighbours, then the label of that label.  Labels only decrease,
    so the loop ends, and at the fixed point neighbours agree.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        low = label.copy()
        np.minimum.at(low, heads, label[tails])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def betweenness_csr(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Raw Brandes betweenness for all nodes, computed per component."""
    bc = np.zeros(n, dtype=np.float64)
    indptr = indptr.astype(np.int64, copy=False)
    indices = indices.astype(np.int64, copy=False)
    degree = np.diff(indptr)
    if not (degree > 1).any():
        return bc  # only isolated nodes and dyads
    heads = np.repeat(np.arange(n, dtype=np.int64), degree)
    label = _component_labels(heads, indices, n)
    leaves = np.bincount(heads[degree[indices] == 1], minlength=n)

    # Renumber the nodes of components with 3 or more nodes so each
    # component is one contiguous block, ascending node order within it.
    kept = np.flatnonzero(np.bincount(label, minlength=n)[label] > 2)
    perm = kept[np.argsort(label[kept], kind="stable")]
    position = np.empty(n, dtype=np.int64)
    position[perm] = np.arange(perm.size)
    kept_degree = degree[perm]
    sub_indptr = np.zeros(perm.size + 1, dtype=np.int64)
    np.cumsum(kept_degree, out=sub_indptr[1:])
    edge = np.repeat(indptr[perm] - sub_indptr[:-1], kept_degree)
    sub_indices = position[indices[edge + np.arange(sub_indptr[-1])]]

    bounds = [0, *(np.flatnonzero(np.diff(label[perm])) + 1).tolist(), perm.size]
    for lo, hi in zip(bounds, bounds[1:]):
        size = hi - lo
        sources = np.flatnonzero(kept_degree[lo:hi] > 1)
        folded = leaves[perm[lo:hi][sources]].astype(np.float64)
        scores = _brandes_numpy(
            sub_indptr[lo : hi + 1] - sub_indptr[lo],
            sub_indices[sub_indptr[lo] : sub_indptr[hi]] - lo,
            size,
            sources,
            1.0 + folded,
        )
        scores[sources] += folded * (size - 2)
        bc[perm[lo:hi]] = scores
    return bc
