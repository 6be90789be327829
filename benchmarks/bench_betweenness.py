"""Benchmark exact Brandes betweenness, reduced and unreduced.

Three graph shapes, all in CSR form and seeded:

* ``random``: connected-ish random graphs with no leaves, where the
  component split and leaf folding in ``betweenness_csr`` save nothing.
  The kernel is timed on them as one single-root sweep per node.
* ``forest``: the shape the pipeline actually builds from discourse data, a
  leaf-heavy star forest (one hub with thousands of spokes plus small
  stars) with dyads and isolated nodes beside it.  ``betweenness_csr``
  (reduced, one sweep per round) is timed against one unweighted
  single-root sweep per node over the whole graph, and the row prints the
  largest score difference.
* ``path``: one path with shuffled node ids, the worst case for the
  level-by-level sweeps: its diameter is n - 1, so every sweep takes
  about n BFS levels.  ``betweenness_csr`` is timed on it.

Run it as

    python3 benchmarks/bench_betweenness.py
    python3 benchmarks/bench_betweenness.py --nodes 300 1000 --forest-nodes 9000 --path-nodes 800
"""

import argparse
import random
import time

import numpy as np

from valuescope._kernels import _brandes_sweep, betweenness_csr


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


def path_csr(n: int, rng: random.Random):
    """A path through n nodes in shuffled id order."""
    order = list(range(n))
    rng.shuffle(order)
    return to_csr(n, zip(order, order[1:]))


def all_sources(indptr, indices, n):
    """Unreduced Brandes: one single-root sweep per node, summed."""
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    bc = np.zeros(n, dtype=np.float64)
    for source in range(n):
        bc += _brandes_sweep(heads, indices, n, np.array([source]))
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


def bench_path(args, rng) -> None:
    print()
    print("path with shuffled node ids")
    header = f"{'n':>6} {'time (s)':>10}"
    print(header)
    print("-" * len(header))
    for n in args.path_nodes:
        indptr, indices = path_csr(n, rng)
        elapsed, _ = timed(betweenness_csr, indptr, indices, n, args.repeats)
        print(f"{n:>6} {elapsed:>10.3f}")


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
    bench_path(args, rng)


if __name__ == "__main__":
    main()
