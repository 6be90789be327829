"""valuescope benchmark: end-to-end ``valuescope run`` timings plus a layer trace.

Run from the repository root::

    python3 perfbench/run.py                      # every workload, all metrics
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repin [--workload NAME]

``--trace 0`` times ``valuescope run`` child processes, one after another,
for ``--seconds`` seconds and reports the end-to-end metrics.  ``--trace 1``
makes one untraced run as the baseline for the tracing overhead, then runs
the layer trace (``layertrace.py``) for ``--seconds`` and reports the
per-layer metrics.  Every run's report is checked against the pinned digest
for its workload and seed, and the generated corpus against its pinned
sha256.  ``--repin`` rewrites the pins; use it only for an intended change
to ``valuescope.synth`` or to the report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
RESULTS = os.path.join(BENCH_DIR, "results")
PINS = os.path.join(BENCH_DIR, "pins")

# A seed selects one of this many pinned corpus variants (seed mod VARIANTS),
# so every seed the benchmark can be given has a pinned corpus and report.
VARIANTS = 16
SETUP_REPS = 5
SETUP_CODE = (
    "import valuescope.cli\n"
    "from valuescope.corpus import OrientationLexicon\n"
    "from valuescope.language import PolarLexicon\n"
    "OrientationLexicon.default()\n"
    "PolarLexicon.default()\n"
)


class BenchError(Exception):
    """The benchmark cannot run, e.g. a pinned input no longer matches."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    spec: dict | None  # `valuescope synth --spec` body; None: the full-scale preset
    flags: tuple[str, ...] = ()  # `valuescope run` flags

    def synth_args(self, variant: int, spec_path: str) -> list[str]:
        if self.spec is None:
            return ["--preset", "full-scale", "--seed", str(variant)]
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({**self.spec, "seed": variant}, handle)
        return ["--spec", spec_path]


def _plant(actors: int, messages: int, shape: str, bias: float, **extra) -> dict:
    return {"actors": actors, "messages": messages, "shape": shape,
            "sentiment_bias": bias, **extra}


# Broadcast-dominated: about 800 planted exchanges per orientation among 15k
# posts and a large vocabulary, so parsing, tagging, tokenizing and the
# language layer carry the run while every graph stays small.
TEXT_HEAVY = {
    "start": "2021-01-04T00:00:00Z",
    "days": 60,
    "orientations": {
        "Customers": _plant(400, 15000, "star", 0.7, vocab_size=20000,
                            oscillation_period=7),
        "Employees": _plant(400, 15000, "star", 0.6, vocab_size=20000),
        "EconomicFinancialGrowth": _plant(400, 15000, "fragmented-dyads", 0.65,
                                          vocab_size=20000),
        "Excellence": _plant(400, 15000, "star", 0.75, vocab_size=20000,
                             oscillation_period=5),
        "Citizenship": _plant(400, 15000, "fragmented-dyads", 0.55, vocab_size=20000),
        "SocialResponsibility": _plant(400, 15000, "star", 0.4, vocab_size=20000),
    },
}

# 28 days of hourly windows: 672 small window graphs per orientation, and
# actor-mode leadership over every actor's 672-long series.
HOURLY_ACTOR = {
    "start": "2021-01-04T00:00:00Z",
    "days": 28,
    "window_hours": 1.0,
    "orientations": {
        name: _plant(actors, messages, shape, bias, response_lag_hours=0.25,
                     vocab_size=3000)
        for name, actors, messages, shape, bias in (
            ("Customers", 1400, 4000, "star", 0.7),
            ("Employees", 1000, 3000, "star", 0.6),
            ("EconomicFinancialGrowth", 300, 4000, "dense-core", 0.65),
            ("Excellence", 1200, 3600, "star", 0.75),
            ("Citizenship", 200, 3000, "dense-core", 0.55),
            ("SocialResponsibility", 1400, 3400, "fragmented-dyads", 0.5),
        )
    },
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("full-scale", None),
        Workload("text-heavy", TEXT_HEAVY),
        Workload("hourly-actor", HOURLY_ACTOR,
                 ("--window-hours", "1", "--gbco-mode", "actor")),
    )
}


# --------------------------------------------------------------------- children

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclasses.dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes


def run_child(argv: list[str], log_path: str, capture: bool = False) -> ChildRun:
    """Run one child to completion and read its rusage with ``os.wait4``."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL, stderr=log,
        )
        try:
            out = proc.stdout.read() if capture else b""
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            if proc.stdout:
                proc.stdout.close()
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out)


def _log_tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return " | ".join(handle.read().strip().splitlines()[-3:])


# ------------------------------------------------------------- inputs and pins

def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _pin_path(workload: str) -> str:
    return os.path.join(PINS, f"{workload}.json")


def load_pin(workload: str, variant: int) -> dict:
    try:
        with open(_pin_path(workload), encoding="utf-8") as handle:
            return json.load(handle)["variants"][str(variant)]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no pin for {workload} variant {variant}: {exc!r}") from exc


def generate(workload: Workload, variant: int, path: str) -> int:
    """Write one variant of the workload's corpus; return its message count.

    ``valuescope synth`` runs as a child so that this process stays small:
    a child's ``ru_maxrss`` starts from its parent's resident size.
    """
    spec_path, log = path + ".spec.json", path + ".log"
    argv = [sys.executable, "-m", "valuescope.cli", "synth",
            *workload.synth_args(variant, spec_path), "--out", path]
    child = run_child(argv, log)
    if child.code != 0:
        raise BenchError(f"synth exited with {child.code}: {_log_tail(log)}")
    with open(path, "rb") as handle:
        return sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))


def orientations_sha256(report: dict) -> str:
    blob = json.dumps(report["orientations"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_report(out_dir: str, pin: dict) -> str | None:
    """Compare a run's report with its pin; return what differs, or None.

    Only the orientations block and the ``run`` counters present when the
    pin was made are compared: ``config`` embeds run paths, and counters
    added to ``run`` later are not a change of result.
    """
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        if orientations_sha256(report) != pin["orientations_sha256"]:
            return "orientations block differs from the pinned digest"
        for key, expected in pin["run"].items():
            if report["run"].get(key) != expected:
                return f"run.{key} is {report['run'].get(key)!r}, pinned {expected!r}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    return None


# ---------------------------------------------------------------- measurement

def run_argv(workload: Workload, corpus: str, out_dir: str,
             traced: bool = False) -> list[str]:
    """`valuescope run` on the corpus, or the same run under the layer trace."""
    entry = ([os.path.join(BENCH_DIR, "layertrace.py")] if traced
             else ["-m", "valuescope.cli", "run"])
    return [sys.executable, *entry, "--corpus", corpus, "--out", out_dir,
            *workload.flags]


def measure_setup(log_path: str) -> list[float]:
    walls = []
    for _ in range(SETUP_REPS):
        child = run_child([sys.executable, "-c", SETUP_CODE], log_path)
        if child.code != 0:
            raise BenchError(f"set-up probe exited with {child.code}: {_log_tail(log_path)}")
        walls.append(child.wall_s)
    return walls


ENV_CODE = (
    "import json, numpy\n"
    "from valuescope import _kernels\n"
    "print(json.dumps([numpy.__version__, getattr(_kernels, 'HAS_NUMBA', None),"
    " getattr(_kernels, 'USE_NUMBA', None)]))\n"
)


def environment(seed: int, variant: int, log_path: str) -> dict:
    child = run_child([sys.executable, "-c", ENV_CODE], log_path, capture=True)
    if child.code != 0:
        raise BenchError(f"environment probe failed: {_log_tail(log_path)}")
    numpy_version, has_numba, use_numba = json.loads(child.stdout)
    commit = None  # an exported checkout: the source digest identifies it
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "valuescope")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package).encode())
            digest.update(_sha256_file(path).encode())
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_imported": has_numba,
        "kernel": {True: "numba", False: "numpy", None: "unknown"}[use_numba],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "variant": variant,
    }


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def _declared(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[kind]


class Session:
    """One workload and seed: its pinned corpus, its runs and their checks."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.workload = WORKLOADS[name]
        self.trace = trace
        self.variant = seed % VARIANTS
        self.pin = load_pin(name, self.variant)
        self.work = os.path.join(WORK, name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.corpus = os.path.join(self.work, "corpus.ndjson")
        self.out_dir = os.path.join(self.work, "out")
        self.log = os.path.join(self.work, "child.log")
        self.attempted = self.failed = 0
        self.problems: list[str] = []

        self.msgs = generate(self.workload, self.pin["synth_seed"], self.corpus)
        sha = _sha256_file(self.corpus)
        if sha != self.pin["corpus_sha256"]:
            raise BenchError(
                f"{name} variant {self.variant}: valuescope.synth now writes a corpus "
                f"with sha256 {sha}, pinned {self.pin['corpus_sha256']}. The workload "
                "changed; refusing to run. Repin only for an intended synth change."
            )
        self.env = environment(seed, self.variant, self.log)
        print(f"workload {name}  seed {seed}  variant {self.variant}  trace {int(trace)}")
        print("environment " + " ".join(f"{k}={v}" for k, v in self.env.items()))
        print(f"corpus {self.msgs} messages  {os.path.getsize(self.corpus) / 1e6:.1f} MB"
              f"  sha256 {sha[:16]} matches pin")

    def run(self, traced: bool = False) -> ChildRun | None:
        """One checked run of `valuescope run`, or of the layer trace."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = run_argv(self.workload, self.corpus, self.out_dir, traced)
        child = run_child(argv, self.log, capture=traced)
        self.attempted += 1
        problem = (f"exit {child.code}: {_log_tail(self.log)}" if child.code != 0
                   else check_report(self.out_dir, self.pin))
        if problem:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: {problem}")
            return None
        return child

    def repeat(self, seconds: float, traced: bool = False) -> list[ChildRun]:
        """Checked runs one after another until ``seconds`` have passed."""
        runs: list[ChildRun] = []
        started = perf_counter()
        while not runs or perf_counter() - started < seconds:
            child = self.run(traced)
            if child is not None:
                runs.append(child)
            elif not runs and self.attempted >= 3:
                break
        return runs

    def finish(self, metrics: dict, extra: dict) -> dict:
        print(f"\nerror_rate {self.failed}/{self.attempted} = "
              f"{self.failed / max(self.attempted, 1):.4f}")
        for problem in self.problems:
            print(f"  FAILED {problem}")
        result = {"correct": self.failed == 0, "attempted": self.attempted,
                  "failed": self.failed, "metrics": metrics}
        os.makedirs(RESULTS, exist_ok=True)
        name = self.workload.name
        path = os.path.join(RESULTS, f"BENCH_{name}_trace{int(self.trace)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "environment": self.env, **extra, **result},
                      handle, indent=2)
            handle.write("\n")
        shutil.rmtree(self.work, ignore_errors=True)
        return result


def end_to_end(session: Session, seconds: float) -> dict:
    """Set-up probes, then `valuescope run` in a closed loop for ``seconds``."""
    setup = measure_setup(session.log)
    runs = session.repeat(seconds)
    run_s = [r.wall_s for r in runs]
    metrics = {"setup_s": (statistics.median(setup), "s")}
    if runs:
        median_run = statistics.median(run_s)
        metrics.update(
            run_s=(median_run, "s"),
            msgs_per_s=(session.msgs / median_run, "1/s"),
            cpu_s=(statistics.median(r.cpu_s for r in runs), "s"),
            peak_rss_mb=(statistics.median(r.maxrss_mb for r in runs), "MB"),
        )
    print(f"\nend to end: {len(runs)} timed runs of `valuescope run`, one at a time")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<14} {value:>14.4f} {unit}")
    high = high_percentile(run_s)
    print("  run_s " + (f"p{high[0]} {high[1]:.4f} s" if high else
                        f"max {max(run_s, default=float('nan')):.4f} s (no percentile "
                        f"above the median has 10 of {len(run_s)} samples beyond it)"))
    return session.finish(
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        {"run_s_samples": run_s, "setup_s_samples": setup},
    )


def layers(session: Session, seconds: float) -> dict:
    """One untraced baseline run, then traced runs for ``seconds``.

    Each per-layer metric is the median over the traced runs; counts must
    repeat exactly between them.
    """
    baseline = session.run()
    traces = [json.loads(c.stdout) for c in session.repeat(seconds, traced=True)]
    declared = _declared("per_layer")
    metrics = {}
    for m in declared:
        values = [t["metrics"][m["name"]] for t in traces if m["name"] in t["metrics"]]
        is_count = m["unit"] not in ("s", "MB")
        median = statistics.median_low if is_count else statistics.median
        metrics[m["name"]] = {"value": median(values) if values else 0, "unit": m["unit"]}
        if is_count and len(set(values)) > 1:
            session.failed += 1
            session.problems.append(f"{m['name']} differs between traced runs: {values}")
    if traces:
        print(f"\nlayers: median of {len(traces)} traced runs "
              f"({traces[0]['spans']} spans each); self time excludes child spans")
        total = metrics["pipeline.total.s"]["value"]
        for m in declared:
            value = metrics[m["name"]]["value"]
            absent = m["name"] not in traces[0]["metrics"]  # gone or never called
            share = (f"{100 * value / total:5.1f}%" if m["unit"] == "s" and total
                     and not absent and m["name"] != "pipeline.total.s" else "")
            shown = ("absent" if absent else f"{value:.4f}" if isinstance(value, float)
                     else str(value))
            print(f"  {m['name']:<44} {shown:>16} {m['unit']:<13} {share}")
        self_sum = sum(v for k, v in traces[0]["metrics"].items()
                       if k.endswith(".s") and k != "pipeline.total.s")
        print(f"  first traced run: self times sum to {self_sum:.4f} s of its "
              f"pipeline.total.s {traces[0]['metrics']['pipeline.total.s']:.4f} s")
        for name in traces[0]["missing"]:
            print(f"  missing layer function: {name}")
        for error in traces[0]["probe_errors"]:
            print(f"  count probe failed: {error}")
        if baseline is not None:
            print(f"  tracing overhead {total - baseline.wall_s:+.4f} s = traced "
                  f"pipeline.total.s {total:.4f} - untraced run_s {baseline.wall_s:.4f}"
                  " (run_s also holds interpreter start-up, about setup_s)")
    return session.finish(
        metrics,
        {"untraced_run_s": baseline.wall_s if baseline else None, "traces": traces},
    )


# --------------------------------------------------------------------- repin

def repin(names: list[str]) -> None:
    os.makedirs(PINS, exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        work = os.path.join(WORK, name)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        corpus, out_dir = os.path.join(work, "corpus.ndjson"), os.path.join(work, "out")
        variants = {}
        for variant in range(VARIANTS):
            generate(workload, variant, corpus)
            child = run_child(run_argv(workload, corpus, out_dir),
                              os.path.join(work, "child.log"))
            if child.code != 0:
                raise BenchError(f"{name} variant {variant}: run exited with {child.code}")
            with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as handle:
                report = json.load(handle)
            variants[str(variant)] = {
                "synth_seed": variant,
                "corpus_sha256": _sha256_file(corpus),
                "orientations_sha256": orientations_sha256(report),
                "run": report["run"],
            }
            print(f"{name} variant {variant}: {child.wall_s:.2f} s", flush=True)
        with open(_pin_path(name), "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "variants": variants}, handle, indent=1)
            handle.write("\n")
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="valuescope benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; default: every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 for the layer trace")
    parser.add_argument("--repin", action="store_true",
                        help="regenerate the input and report pins")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "valuescope", "__init__.py")):
        print(f"no valuescope sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.repin:
            repin(names)
            return 0
        results = []
        for name in names:
            for trace in ([bool(args.trace)] if args.workload else [False, True]):
                session = Session(name, args.seed, trace)
                run = layers if trace else end_to_end
                results.append(run(session, args.seconds))
                print(json.dumps(results[-1]), flush=True)
    except BenchError as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 3
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
