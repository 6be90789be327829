"""Mutation check: every slip listed here must fail the tests chosen for it.

For each slip the script copies ``src/`` to a temporary directory, applies
the slip's exact old -> new text patch there and runs the slip's test
selection with ``PYTHONPATH`` at the copy; that run must fail.  Every
selection also runs once against the unpatched copy, where it must pass.  A
slip whose old text does not occur exactly once in its file fails the
script, so the list has to change with the code instead of going stale.

pytest does not collect this file.  From the repository root:

    python tests/mutants.py            # every slip
    python tests/mutants.py -k arc     # the slips whose names hold "arc"

It prints one line per slip and exits 0 only when every slip was caught.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Slip(NamedTuple):
    name: str
    path: str  # relative to src/valuescope
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


SLIPS = (
    Slip(
        "dangling references taken from the last graph only",
        "pipeline.py",
        "dangling += graph.dangling_refs",
        "dangling = graph.dangling_refs",
        ("tests/test_pipeline.py::TestFixtureRun::test_run_counts",),
    ),
    Slip(
        "language scored on the previous orientation's rows",
        "pipeline.py",
        "lang = language_scores(parsed.messages, rows, polar, surprisal)",
        "lang = language_scores(parsed.messages, partitions[ORIENTATIONS["
        "ORIENTATIONS.index(orientation) - 1]], polar, surprisal)",
        ("tests/test_outputs.py::test_demo_outputs_are_pinned[actor]",),
    ),
    Slip(
        "a simultaneous message taken as an answer",
        "dynamics.py",
        'side="right",',
        'side="left",',
        (
            "tests/test_dynamics.py::TestAverageResponseTime"
            "::test_simultaneous_message_is_not_an_answer",
        ),
    ),
    Slip(
        "the Low band inclusive at its edge",
        "hierarchy.py",
        "if value < low:",
        "if value <= low:",
        ("tests/test_hierarchy.py::TestBands::test_boundaries",),
    ),
    Slip(
        "the leaf-fold term dropped from betweenness_csr",
        "_kernels.py",
        "    scores[sources] += leaves[sources] * (size[source_label] - 2)\n",
        "",
        ("tests/test_acceptance.py::test_betweenness_oracle",),
    ),
    Slip(
        "the run's window count taken from Customers",
        "pipeline.py",
        '"window_count": max((len(w) for w in windows.values()), default=0),',
        '"window_count": len(windows["Customers"]),',
        (
            "tests/test_pipeline.py::TestRunVariants"
            "::test_window_count_is_the_most_windows_of_any_orientation",
        ),
    ),
    Slip(
        "message order breaking stamp ties by row, not by id",
        "corpus.py",
        "by_id = rows[np.argsort(self.ranks[rows])]",
        "by_id = rows",
        (
            "tests/test_corpus.py::TestPartition::test_tie_broken_by_id",
            "tests/test_corpus.py::TestPartition::test_tie_broken_by_id_in_python_string_order",
        ),
    ),
    Slip(
        "later byte ranges merged in reverse",
        "corpus.py",
        "for local_ids, local_bounds, words in later:",
        "for local_ids, local_bounds, words in later[::-1]:",
        ("tests/test_corpus.py::TestByteRanges::test_every_split_gives_the_one_range_tables",),
    ),
    Slip(
        "a reference found by bisection without the equality check",
        "corpus.py",
        "return at if at < len(ordered) and ordered[at] == ref else UNKNOWN",
        "return at if at < len(ordered) else UNKNOWN",
        ("tests/test_corpus.py::TestByteRanges::test_references_are_found_by_sorted_lookup",),
    ),
    Slip(
        "a duplicate id named by its last repeat",
        "corpus.py",
        "ids[repeats.min()]",
        "ids[repeats.max()]",
        (
            "tests/test_corpus.py::TestByteRanges"
            "::test_duplicate_across_ranges_names_the_first_repeat",
        ),
    ),
    Slip(
        "a refused record not counted as skipped",
        "corpus.py",
        """        if record is None:
            skipped += 1
            continue
""",
        """        if record is None:
            continue
""",
        ("tests/test_corpus.py::TestParse::test_valid_plus_one_malformed_line",),
    ),
    Slip(
        "a blank line counted as skipped",
        "corpus.py",
        "            continue  # blank\n",
        "            skipped += 1\n            continue\n",
        ("tests/test_corpus.py::TestParse::test_blank_lines_are_ignored_not_counted",),
    ),
    Slip(
        "a handle kept in its own case",
        "corpus.py",
        'handle = raw.strip().lstrip("@").lower()',
        'handle = raw.strip().lstrip("@")',
        ("tests/test_corpus.py::TestParse::test_mentions_normalized",),
    ),
    Slip(
        "a range that no worker sent left out",
        "corpus.py",
        "parts[-1] = _read_range(file, start, end)",
        "parts.pop()",
        ("tests/test_corpus.py::TestByteRanges::test_range_no_worker_sent_is_read_here",),
    ),
    Slip(
        "the last range's rows held past the merge",
        "corpus.py",
        "parts.append(worker and _receive(worker))",
        "parts.append(rows := worker and _receive(worker))",
        (
            "tests/test_corpus.py::TestByteRanges"
            "::test_merge_holds_the_only_reference_to_each_range",
        ),
    ),
    Slip(
        "every worker's rows read again here",
        "corpus.py",
        "parts.append(worker and _receive(worker))",
        "parts.append(worker and _receive(worker) and None)",
        ("tests/test_corpus.py::TestByteRanges::test_healthy_workers_send_every_range",),
    ),
    Slip(
        "references resolved through a dict over the ids",
        "corpus.py",
        """    def place(ref: str) -> int:
        \"\"\"The named id's index in ``ordered``, or ``UNKNOWN``.\"\"\"
        at = bisect_left(ordered, ref)
        return at if at < len(ordered) and ordered[at] == ref else UNKNOWN
""",
        """    index = {msg_id: at for at, msg_id in enumerate(ordered)}

    def place(ref: str) -> int:
        return index.get(ref, UNKNOWN)
""",
        ("tests/test_corpus.py::test_table_builds_no_dict_over_the_ids",),
    ),
    Slip(
        "language scored in one slice",
        "language.py",
        "np.arange(ID_SLICE, ends[-1], ID_SLICE)",
        "np.arange(ends[-1], ends[-1])",
        ("tests/test_language.py::TestLanguageScores::test_memory_is_bounded_by_the_slice",),
    ),
    Slip(
        "the complexity sum restarted in each slice",
        "language.py",
        "running = np.concatenate((running, surprisal[part_ids])).cumsum()[-1:]",
        "running = surprisal[part_ids].cumsum()[-1:]",
        ("tests/test_pipeline.py::TestRunVariants::test_id_slices_change_no_result",),
    ),
    Slip(
        "build_graph resolving every named row",
        "graph.py",
        "resolved = np.flatnonzero(sorted_rows[at] == named)",
        "resolved = np.flatnonzero(named >= 0)",
        ("tests/test_graph.py::test_partition_graph_resolves_references_inside_the_partition",),
    ),
    Slip(
        "a reply to another window kept in the window graph",
        "dynamics.py",
        "(labels[refs] == arc_labels)",
        "(labels[refs] >= 0)",
        (
            "tests/test_dynamics.py::TestWindows"
            "::test_reply_across_a_boundary_resolves_only_for_contacts",
        ),
    ),
    Slip(
        "window starts before the year 1 let through",
        "dynamics.py",
        "if not CALENDAR[0] <= starts[0] <= starts[1] <= CALENDAR[1]:",
        "if not starts[0] <= starts[1] <= CALENDAR[1]:",
        ("tests/test_cli.py::TestRunVerb::test_window_start_before_year_one_is_config_error",),
    ),
    Slip(
        "the leaf weight 1 + leaves of a folded source",
        "_kernels.py",
        "root_weight = 1.0 + leaves[sources[by_rank]]",
        "root_weight = 1.0 + 0.0 * leaves[sources[by_rank]]",
        ("tests/test_acceptance.py::test_betweenness_oracle",),
    ),
    Slip(
        "the DAG's level sort made unstable",
        "_kernels.py",
        'by_level = np.argsort(depth, kind="stable")',
        "by_level = np.argsort(depth)",
        ("tests/test_graph.py::TestBetweenness::test_searches_past_one_word_per_node",),
    ),
    Slip(
        "a round's bit set in the wrong word",
        "_kernels.py",
        "seen[roots, bits >> 6]",
        "seen[roots, bits >> 7]",
        ("tests/test_graph.py::TestBetweenness::test_searches_past_one_word_per_node",),
    ),
    Slip(
        "rounds added to the scores out of order",
        "_kernels.py",
        "* delta.reshape(m, b - a)).T:",
        "* delta.reshape(m, b - a)).T[::-1]:",
        ("tests/test_graph.py::TestBetweenness::test_searches_past_one_word_per_node",),
    ),
    Slip(
        "report values rounded to seven digits",
        "hierarchy.py",
        'float(f"{value:.6g}")',
        'float(f"{value:.7g}")',
        ("tests/test_outputs.py::test_demo_outputs_are_pinned[flipped]",),
    ),
    Slip(
        "only betweenness centralization flipped",
        "hierarchy.py",
        "frozenset(CONNECTIVITY_METRICS[1:])",
        "frozenset(CONNECTIVITY_METRICS[2:])",
        ("tests/test_cli.py::TestRunVerb::test_flip_centralization_flag",),
    ),
    Slip(
        "composite weights whose sum overflows let through",
        "config.py",
        "if not is_finite_number(sum((weights.get(metric, 1.0) for metric in metrics), 0.0)):",
        "if False:",
        (
            "tests/test_cli.py::TestReplayVerb"
            "::test_weights_summing_past_the_float_range_are_config_error",
        ),
    ),
    Slip(
        "graph handles checked only as each file is written",
        "pipeline.py",
        "            check_exportable(graph, orientation)  # before any output is written\n",
        "",
        ("tests/test_cli.py::TestUnexportableHandles::test_run_writes_nothing[control-graphml]",),
    ),
    Slip(
        "a replay config file let set run-only keys",
        "cli.py",
        "_build_config(args, HIERARCHY_SETTINGS)",
        "_build_config(args)",
        (
            "tests/test_cli.py::TestReplayVerb"
            "::test_config_keys_only_run_reads_are_refused[sentiment_lexicon]",
        ),
    ),
    Slip(
        "leadership without the 0 before an actor's first score",
        "dynamics.py",
        "np.where(first, windows > 0,",
        "np.where(first, False,",
        ("tests/test_dynamics.py::TestRotatingLeadership::test_actor_mode_ignores_zero_scores",),
    ),
    Slip(
        "leadership with a 0 between adjacent windows",
        "dynamics.py",
        "np.diff(windows, prepend=0) > 1",
        "np.diff(windows, prepend=0) > 0",
        ("tests/test_dynamics.py::TestRotatingLeadership::test_actor_mode_ignores_zero_scores",),
    ),
    Slip(
        "leadership without the 0 after an actor's last score",
        "dynamics.py",
        "trail = np.roll(first, -1) & (windows < count - 1)",
        "trail = np.roll(first, -1) & False",
        ("tests/test_dynamics.py::TestRotatingLeadership::test_actor_mode_ignores_zero_scores",),
    ),
    Slip(
        "leadership counting sign changes across two actors",
        "dynamics.py",
        "(steps[left] != steps[right]) & (owner[left] == owner[right + 1])",
        "(steps[left] != steps[right])",
        ("tests/test_dynamics.py::TestRotatingLeadership::test_actor_mode_ignores_zero_scores",),
    ),
    Slip(
        "an unstable sort of the arc table by row",
        "graph.py",
        'np.argsort(arcs[0], kind="stable")',
        "np.argsort(arcs[0])",
        (
            "tests/test_graph.py::TestBuildGraph"
            "::test_each_row_holds_its_mentions_then_its_reply_then_its_retweet",
        ),
    ),
    Slip(
        "a window's dense-core pairs drawn before its texts",
        "synth.py",
        "pairs = (self.rng.sample(core, 2) for _ in range(exchanges))",
        "pairs = [self.rng.sample(core, 2) for _ in range(exchanges)]",
        ("tests/test_outputs.py::test_demo_outputs_are_pinned[flipped]",),
    ),
    Slip(
        "the odd dyad actor left out",
        "synth.py",
        "if window == 0 and self.plant.actors % 2:",
        "if False:",
        ("tests/test_synth.py::test_corpus_bytes_are_pinned",),
    ),
    Slip(
        "a synth spec validated without its plans",
        "synth.py",
        "SHAPES[plant.shape](plant, n_windows)",
        "pass",
        (
            "tests/test_synth.py::TestSpecValidation"
            "::test_plant_that_cannot_fill_every_window_is_refused",
        ),
    ),
    Slip(
        "a dense core let leave windows without an exchange",
        "synth.py",
        "if exchanges_total < n_windows:",
        "if exchanges_total < 1:",
        (
            "tests/test_synth.py::TestSpecValidation"
            "::test_plant_that_cannot_fill_every_window_is_refused",
        ),
    ),
    Slip(
        "a synth run past the year 9999 let through",
        "synth.py",
        "if start + n_windows * width > CALENDAR[1] + 1:",
        "if False:",
        ("tests/test_synth.py::TestSpecValidation::test_run_must_end_by_the_year_9999",),
    ),
    Slip(
        "the offset and the span of synth stamps swapped",
        "synth.py",
        "count: int, at: float, span: float)",
        "count: int, span: float, at: float)",
        ("tests/test_synth.py::test_corpus_bytes_are_pinned",),
    ),
)


def run_tests(src: str, tests: tuple[str, ...], storage: str) -> int:
    """pytest's exit code for ``tests`` run on the package under ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a patch may keep a file's size and mtime second
    env["HYPOTHESIS_STORAGE_DIRECTORY"] = storage  # no failing example reaches .hypothesis/
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode


def check_imports_copy(src: str) -> None:
    """Exit unless ``import valuescope`` under ``PYTHONPATH=src`` loads the copy."""
    env = dict(os.environ, PYTHONPATH=src)
    where = subprocess.run(
        [sys.executable, "-c", "import valuescope; print(valuescope.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not where.startswith(src + os.sep):
        sys.exit(f"PYTHONPATH={src} imports valuescope from {where}, not the copy")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", default="", help="run only the slips whose names hold this text")
    args = parser.parse_args()
    slips = [slip for slip in SLIPS if args.k in slip.name]
    if not slips:
        parser.error(f"no slip's name holds {args.k!r}")
    failures = []
    with tempfile.TemporaryDirectory(prefix="valuescope-mutants-") as scratch:
        src = os.path.join(scratch, "src")
        shutil.copytree(
            os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
        )
        check_imports_copy(src)
        storage = os.path.join(scratch, "hypothesis")
        for tests in dict.fromkeys(slip.tests for slip in slips):
            if run_tests(src, tests, storage) != 0:
                failures.append(f"fails unpatched: {' '.join(tests)}")
        for slip in slips:
            path = os.path.join(src, "valuescope", slip.path)
            with open(path, encoding="utf-8") as handle:
                original = handle.read()
            found = original.count(slip.old)
            if found != 1:
                failures.append(f"{slip.name}: old text occurs {found} times in {slip.path}")
                continue
            start = time.perf_counter()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(original.replace(slip.old, slip.new))
            try:
                code = run_tests(src, slip.tests, storage)
            finally:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(original)
            verdict = "caught" if code == 1 else f"NOT CAUGHT (pytest exit {code})"
            print(f"{verdict:<8} {time.perf_counter() - start:5.1f} s  {slip.name}", flush=True)
            if code != 1:
                failures.append(f"{slip.name}: pytest exited {code}, not 1")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
