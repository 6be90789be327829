"""Benchmark exact Brandes betweenness, reduced and unreduced.

Three graph shapes, all in CSR form and seeded:

* ``random``: connected-ish random graphs with no leaves, where the
  component split and leaf folding in ``betweenness_csr`` save nothing.
  They are timed as one single-root sweep per node, the unbatched
  level-synchronous search defined here.
* ``forest``: the shape the pipeline actually builds from discourse data, a
  leaf-heavy star forest (one hub with thousands of spokes plus small
  stars) with dyads and isolated nodes beside it.  ``betweenness_csr``
  (reduced, rounds batched) is timed against one unweighted
  single-root sweep per node over the whole graph, and the row prints the
  largest score difference.
* ``path``, ``cycle`` and ``caterpillar``: deep shapes with shuffled node
  ids, the deepest searches.  For each ``--path-nodes`` n there is a path
  of n nodes (diameter n - 1), a cycle of n nodes (diameter n // 2) and a
  caterpillar, a spine of n // 2 nodes with one leaf on each (diameter
  n // 2 + 1), so every search takes hundreds of BFS levels.
  ``betweenness_csr`` is timed on each.

Run it as

    python3 benchmarks/bench_betweenness.py
    python3 benchmarks/bench_betweenness.py --nodes 300 1000 --forest-nodes 9000 --path-nodes 800
"""

import argparse
import random
import time

import numpy as np

from valuescope._kernels import betweenness_csr


def to_csr(n: int, pairs):
    neighbors = [[] for _ in range(n)]
    for i, j in pairs:
        neighbors[i].append(j)
        neighbors[j].append(i)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(adj) for adj in neighbors])
    indices = np.fromiter(
        (j for adj in neighbors for j in sorted(adj)),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return indptr, indices


def random_csr(n: int, edges_per_node: int, rng: random.Random):
    """Seeded undirected graph with about n * edges_per_node / 2 edges."""
    target = max(n - 1, n * edges_per_node // 2)
    pairs = set()
    while len(pairs) < target:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return (*to_csr(n, pairs), len(pairs))


def forest_csr(n: int, rng: random.Random):
    """About n nodes: a star forest holding most of them, dyads, isolates.

    The node ids are shuffled, so components interleave in index order as
    sorted handles do in a real graph.
    """
    hub_spokes = int(n * 0.85)
    small_stars = n // 200
    dyads = n // 40
    pairs = []
    count = 1 + hub_spokes
    pairs += [(0, spoke) for spoke in range(1, count)]
    for _ in range(small_stars):
        hub = count
        spokes = rng.randint(2, 6)
        pairs += [(hub, hub + k) for k in range(1, spokes + 1)]
        pairs.append((0, hub))  # small stars hang off the main hub
        count += spokes + 1
    for _ in range(dyads):
        pairs.append((count, count + 1))
        count += 2
    total = max(n, count)  # the remainder are isolated nodes
    relabel = list(range(total))
    rng.shuffle(relabel)
    pairs = [(relabel[i], relabel[j]) for i, j in pairs]
    return (*to_csr(total, pairs), total, len(pairs))


def deep_shapes(n: int, rng: random.Random):
    """``(name, nodes, indptr, indices)`` of a path, a cycle (n >= 3) and a
    caterpillar of about n nodes, each with its node ids shuffled."""
    spine = n // 2
    shapes = [
        ("path", n, [(i, i + 1) for i in range(n - 1)]),
        ("cycle", n, [(i, (i + 1) % n) for i in range(n)] if n >= 3 else []),
        ("caterpillar", 2 * spine,
         [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]),
    ]
    for name, nodes, pairs in shapes:
        if pairs:
            relabel = list(range(nodes))
            rng.shuffle(relabel)
            yield (name, nodes, *to_csr(nodes, [(relabel[i], relabel[j]) for i, j in pairs]))


def single_root_sweep(heads, tails, n: int, root: int) -> np.ndarray:
    """Dependencies on one level-synchronous search from ``root``.

    Each level scans every arc for those leaving the frontier, as the
    kernel did before its searches were batched.
    """
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[root] = 0
    sigma[root] = 1.0
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
    delta = np.zeros(n, dtype=np.float64)
    for up, down in reversed(steps[1:]):
        delta += np.bincount(
            up, weights=sigma[up] / sigma[down] * (1.0 + delta[down]), minlength=n
        )
    return delta


def all_sources(indptr, indices, n):
    """Unreduced Brandes: one single-root sweep per node, summed."""
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    bc = np.zeros(n, dtype=np.float64)
    for source in range(n):
        bc += single_root_sweep(heads, indices, n, source)
    return bc


def timed(fn, indptr, indices, n, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(indptr, indices, n)
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_random(args, rng) -> None:
    print("random graphs, every node a source")
    header = f"{'n':>6} {'edges':>8} {'time (s)':>10}"
    print(header)
    print("-" * len(header))
    for n in args.nodes:
        indptr, indices, edges = random_csr(n, args.edges_per_node, rng)
        elapsed, _ = timed(all_sources, indptr, indices, n, args.repeats)
        print(f"{n:>6} {edges:>8} {elapsed:>10.3f}")


def bench_forest(args, rng) -> None:
    print()
    print("leaf-heavy star forest with dyads and isolates")
    header = (
        f"{'n':>6} {'edges':>8} {'unreduced (s)':>14} {'reduced (s)':>12} "
        f"{'speedup':>8} {'max |diff|':>11}"
    )
    print(header)
    print("-" * len(header))
    for n in args.forest_nodes:
        indptr, indices, total, edges = forest_csr(n, rng)
        slow_time, slow_scores = timed(all_sources, indptr, indices, total, 1)
        fast_time, fast_scores = timed(betweenness_csr, indptr, indices, total, args.repeats)
        drift = float(np.max(np.abs(fast_scores - slow_scores)))
        print(
            f"{total:>6} {edges:>8} {slow_time:>14.3f} {fast_time:>12.4f} "
            f"{slow_time / fast_time:>7.0f}x {drift:>11.2e}"
        )


def bench_deep(args, rng) -> None:
    print()
    print("deep shapes with shuffled node ids")
    header = f"{'shape':>12} {'n':>6} {'time (s)':>10}"
    print(header)
    print("-" * len(header))
    for n in args.path_nodes:
        for name, nodes, indptr, indices in deep_shapes(n, rng):
            elapsed, _ = timed(betweenness_csr, indptr, indices, nodes, args.repeats)
            print(f"{name:>12} {nodes:>6} {elapsed:>10.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[200, 500, 1000, 2000])
    parser.add_argument("--edges-per-node", type=int, default=6)
    parser.add_argument("--forest-nodes", type=int, nargs="+", default=[1000, 9000])
    parser.add_argument("--path-nodes", type=int, nargs="+", default=[100, 200, 400])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    bench_random(args, rng)
    bench_forest(args, rng)
    bench_deep(args, rng)


if __name__ == "__main__":
    main()
