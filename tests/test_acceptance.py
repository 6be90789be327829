"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single ACCEPTANCE
line (PASS or FAIL plus a short measurement) before asserting, so

    pytest tests/test_acceptance.py -s -v

doubles as a human-readable checklist.  The replay oracles are the
frozen case-study scores in reference_case.py; the structural oracles
are planted by the synthetic generator or enumerated by brute force.
"""

import itertools
import json
import random
import time
from datetime import datetime, timezone
from fractions import Fraction
from math import log

from conftest import (
    betweenness,
    betweenness_exact,
    complexity,
    graph_from_edges,
    graph_of,
    indexed_nodes,
    random_edge_set,
    reference_from_tokens,
    scored_sentiment,
)
from reference_case import (
    DIVERGENT,
    EXPECTED_CLASS,
    EXPECTED_HINTS,
    EXPECTED_LABELS,
    EXPECTED_MM,
    RAW_SCORES,
)
from test_graph import (
    brute_force_betweenness,
    complete_graph,
    cycle_graph,
    star_graph,
)

from valuescope import (
    ORIENTATIONS,
    Attitude,
    Band,
    CLASSES,
    OrientationPlant,
    PolarLexicon,
    ReferenceDictionary,
    RunConfig,
    SynthSpec,
    average_activity,
    classify,
    count_extrema,
    density,
    emotionality,
    full_scale_spec,
    generate_corpus,
    group_betweenness_centralization,
    group_degree_centralization,
    parse_corpus,
    replay_metrics,
    rotating_leadership,
    run_pipeline,
    star_plan,
    window_series,
    write_corpus,
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_normalization_replay():
    start = time.perf_counter()
    report = replay_metrics(RAW_SCORES, RunConfig())
    elapsed = time.perf_counter() - start
    entries = {e["orientation"]: e for e in report["orientations"]}
    deviations = []
    for name, row in EXPECTED_MM.items():
        for metric, published in row.items():
            got = entries[name]["normalized"][metric]["mm"]
            deviations.append(abs(got - published))
    ok = len(deviations) == 72 and max(deviations) <= 0.005 and elapsed < 1.0
    verdict(
        "normalization replay",
        ok,
        f"{len(deviations)} values, max deviation {max(deviations):.4f}, "
        f"{elapsed * 1000.0:.0f} ms",
    )


def test_activity_per_actor_ratio():
    worst = 0.0
    for row in RAW_SCORES.values():
        ratio = average_activity(int(row["activity"]), int(row["actor_count"]))
        worst = max(worst, abs(ratio - row["avg_activity_per_actor"]))
    ok = worst <= 0.01
    verdict(
        "activity ratio",
        ok,
        f"max |activity/actors - published| = {worst:.4f} over 6 orientations",
    )


def test_classification_replay():
    report = replay_metrics(RAW_SCORES, RunConfig())
    entries = {e["orientation"]: e for e in report["orientations"]}
    matches = sum(
        entries[name]["classification"] == published
        for name, published in EXPECTED_CLASS.items()
    )
    social = entries["SocialResponsibility"]
    diverged = social["classification"] == DIVERGENT["SocialResponsibility"]
    warned = any("disregarded" in w for w in social["warnings"])
    ok = matches >= 5 and diverged and warned
    verdict(
        "classification replay",
        ok,
        f"{matches}/6 published classes, SocialResponsibility -> "
        f"{social['classification']}, warning emitted: {warned}",
    )


def test_betweenness_oracle():
    rng = random.Random(404)
    start = time.perf_counter()
    checked = 0
    worst_drift = 0.0
    for _ in range(200):
        n = rng.randint(2, 12)
        p = rng.choice((0.2, 0.35, 0.5))
        graph = graph_from_edges(
            random_edge_set(rng, n, p), extra_nodes=indexed_nodes(n)
        )
        exact = betweenness_exact(graph)
        if exact != brute_force_betweenness(graph):
            verdict(
                "betweenness oracle", False, f"rational mismatch on graph {checked}"
            )
        kernel = betweenness(graph)
        worst_drift = max(
            worst_drift,
            max(abs(kernel[v] - float(exact[v])) for v in graph.nodes),
        )
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and worst_drift <= 1e-12 and elapsed < 30.0
    verdict(
        "betweenness oracle",
        ok,
        f"{checked} graphs exact, kernel drift {worst_drift:.1e}, {elapsed:.1f} s",
    )


def test_centralization_bounds():
    rng = random.Random(505)
    sampled = 0
    for n, p in ((5, 0.4), (20, 0.2), (50, 0.08), (120, 0.03), (200, 0.02)):
        for _ in range(3):
            graph = graph_from_edges(
                random_edge_set(rng, n, p), extra_nodes=indexed_nodes(n)
            )
            values = (
                density(graph),
                group_degree_centralization(graph),
                group_betweenness_centralization(graph),
            )
            if not all(0.0 <= v <= 1.0 for v in values):
                verdict("centralization bounds", False, f"out of range: {values}")
            sampled += 1
    stars_exact = all(
        group_degree_centralization(g) == 1.0
        and group_betweenness_centralization(g) == 1.0
        for g in (star_graph(k) for k in (2, 5, 30, 199))
    )
    transitive = [cycle_graph(k) for k in (3, 8, 41, 200)]
    transitive += [complete_graph(k) for k in (3, 12, 30)]
    flat_exact = all(
        group_degree_centralization(g) == 0.0
        and group_betweenness_centralization(g) == 0.0
        for g in transitive
    )
    ok = sampled == 15 and stars_exact and flat_exact
    verdict(
        "centralization bounds",
        ok,
        f"{sampled} random graphs up to n=200 in [0,1], stars exactly 1.0: "
        f"{stars_exact}, vertex-transitive exactly 0.0: {flat_exact}",
    )


def _turning_points(series) -> int:
    """Independent extremum counter used only to cross-check the engine."""
    count = 0
    for i in range(1, len(series) - 1):
        if (series[i] - series[i - 1]) * (series[i + 1] - series[i]) < 0:
            count += 1
    return count


def test_leadership_oscillation():
    rng = random.Random(606)
    bound_ok = True
    for _ in range(200):
        length = rng.randint(3, 40)
        series = [rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for _ in range(length)]
        if count_extrema(series) > length - 2:
            bound_ok = False
    invariant_ok = True
    for _ in range(200):
        length = rng.randint(3, 30)
        series = [rng.randint(-50, 50) for _ in range(length)]
        base = count_extrema([float(x) for x in series])
        shifted = count_extrema([float(3 * x + 7) for x in series])
        cubed = count_extrema([float(x**3) for x in series])
        if not base == shifted == cubed:
            invariant_ok = False

    plant = OrientationPlant(
        actors=217, messages=360, shape="star", oscillation_period=6
    )
    spec = SynthSpec(
        orientations={"Customers": plant},
        start=datetime(2021, 3, 1, tzinfo=timezone.utc),
        days=24,
        seed=5,
    )
    parsed = parse_corpus(json.dumps(r) for r in generate_corpus(spec))
    windows = window_series(graph_of(parsed.messages), 24.0)
    # Each window is a 4-spoke star plus k planted dyads, so the group
    # centralization is a strictly decreasing function of k and the planted
    # extremum count can be derived from the plan with exact arithmetic.
    analytic = [
        Fraction(12, (4 + 2 * k) * (3 + 2 * k)) for _, k, _ in star_plan(plant, 24)
    ]
    planted = _turning_points(analytic)
    measured = rotating_leadership(windows)
    recovery_ok = abs(measured - planted) <= 1 and measured <= len(windows) - 2
    ok = bound_ok and invariant_ok and recovery_ok
    verdict(
        "leadership oscillation",
        ok,
        f"bound: {bound_ok}, monotone-transform invariance: {invariant_ok}, "
        f"planted extrema {planted} vs measured {measured}",
    )


def test_language_properties():
    rng = random.Random(707)
    neutral_ok = True
    for _ in range(200):
        length = rng.randint(1, 20)
        if rng.random() < 0.3:
            scores = [0.5] * length
        else:
            scores = [rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for _ in range(length)]
        value = emotionality(scores)
        if all(s == 0.5 for s in scores):
            neutral_ok &= value == 0.0
        else:
            neutral_ok &= value > 0.0

    lexicon = PolarLexicon(
        positive=("good", "great", "win"), negative=("bad", "poor", "loss")
    )
    swapped = PolarLexicon(
        positive=lexicon.negative, negative=lexicon.positive
    )
    vocabulary = sorted(lexicon.positive | lexicon.negative) + ["the", "a", "word"]
    swap_ok = True
    for _ in range(200):
        text = " ".join(rng.choices(vocabulary, k=rng.randint(1, 12)))
        forward = scored_sentiment(text, lexicon)
        mirrored = scored_sentiment(text, swapped)
        if abs(forward + mirrored - 1.0) > 1e-12:
            swap_ok = False

    v = 1024
    uniform = ReferenceDictionary(
        {f"u{i}": 1.0 / v for i in range(v)}, unseen=1e-12
    )
    uniform_tokens = [f"u{i % v}" for i in range(4096)]
    uniform_dev = abs(complexity(uniform_tokens, uniform) - log(v))

    zipf_vocab = [f"z{i:05d}" for i in range(20000)]
    zipf_weights = [1.0 / k for k in range(1, 20001)]
    stream = random.Random(13).choices(zipf_vocab, weights=zipf_weights, k=60000)
    zipf_value = complexity(stream, reference_from_tokens(stream))
    zipf_ok = 5.0 <= zipf_value <= 10.0

    ok = neutral_ok and swap_ok and uniform_dev <= 1e-9 and zipf_ok
    verdict(
        "language properties",
        ok,
        f"emotionality zero iff neutral: {neutral_ok}, swap symmetry: {swap_ok}, "
        f"uniform complexity off ln(V) by {uniform_dev:.1e}, "
        f"Zipf complexity {zipf_value:.3f} in [5, 10]",
    )


def test_full_scale_determinism(tmp_path):
    start = time.perf_counter()
    spec = full_scale_spec()
    records = generate_corpus(spec)
    users = {r["author"] for r in records}
    for record in records:
        users.update(record["mentions"])
    corpus_path = tmp_path / "corpus.ndjson"
    cfg = RunConfig(corpus=str(corpus_path), output_dir=str(tmp_path / "out"))
    blobs = []
    reports = []
    for shuffle_seed in (101, 202):
        shuffled = list(records)
        random.Random(shuffle_seed).shuffle(shuffled)
        write_corpus(shuffled, str(corpus_path))
        reports.append(run_pipeline(cfg))
        blobs.append((tmp_path / "out" / "report.json").read_bytes())
    elapsed = time.perf_counter() - start
    windows_ok = all(
        reports[0]["run"]["windows_per_orientation"][o] == 60 for o in ORIENTATIONS
    )
    identical = blobs[0] == blobs[1]
    ok = (
        len(records) == 100_000
        and len(users) > 36_000
        and identical
        and windows_ok
        and elapsed < 300.0
    )
    verdict(
        "full-scale determinism",
        ok,
        f"{len(records)} messages, {len(users)} users, byte-identical across "
        f"shuffles: {identical}, 60 windows everywhere: {windows_ok}, "
        f"{elapsed:.0f} s",
    )


def test_classifier_totality():
    combos = 0
    texts_ok = True
    for conn, inter, feeling in itertools.product(Band, Band, Attitude):
        result = classify(conn, inter, feeling)
        if CLASSES[result] != (EXPECTED_LABELS[result.value], EXPECTED_HINTS[result.value]):
            texts_ok = False
        combos += 1
    ok = combos == 27 and texts_ok
    verdict(
        "classifier totality",
        ok,
        f"{combos} band triples classified, labels and hints byte-match: {texts_ok}",
    )
