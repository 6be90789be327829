"""Command line interface.

Verbs:
  run     analyze an NDJSON corpus and write the report (and graph files)
  replay  normalize and classify externally supplied raw scores
  synth   generate a seeded synthetic corpus

Exit codes: 0 on success; 1 for a bad ``--corpus`` or ``replay --metrics``
file or an unwritable output; 2 for a bad flag value or configuration file
(``--config``, both lexicons, ``--reference-dictionary``, ``synth --spec``).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .config import HIERARCHY_SETTINGS, ConfigError, RunConfig, read_json_object
from .corpus import CorpusError
from .pipeline import dump_report, replay_metrics, run_pipeline

logger = logging.getLogger("valuescope")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of the settings that ``replay`` reads as well as ``run``."""
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument(
        "--flip-centralization",
        action="store_false",
        dest="centralization_positive",
        default=None,
        help="count centralization negatively in the connectivity composite",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of the settings that only ``run`` reads."""
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--window-hours", type=float, dest="window_hours")
    parser.add_argument(
        "--gbco-mode",
        choices=("group", "actor"),
        dest="gbco_mode",
        help="rotating leadership series mode",
    )
    parser.add_argument(
        "--response-cutoff-hours", type=float, dest="response_cutoff_hours"
    )
    parser.add_argument("--orientation-lexicon", dest="orientation_lexicon")
    parser.add_argument("--sentiment-lexicon", dest="sentiment_lexicon")
    parser.add_argument("--reference-dictionary", dest="reference_dictionary")
    parser.add_argument(
        "--export-graphml", action="store_true", dest="export_graphml", default=None
    )
    parser.add_argument(
        "--export-dot", action="store_true", dest="export_dot", default=None
    )
    parser.add_argument(
        "--window-csv", action="store_true", dest="window_csv", default=None
    )


def _build_config(args: argparse.Namespace, keys: frozenset[str] | None = None) -> RunConfig:
    cfg = RunConfig.from_file(args.config, keys) if args.config else RunConfig()
    for f in dataclasses.fields(RunConfig):
        if hasattr(args, f.name):
            value = getattr(args, f.name)
            if value is not None:
                setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valuescope",
        description="Core-value discourse metrics and salience classification",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="analyze an NDJSON corpus")
    p_run.add_argument("--corpus", required=True, help="NDJSON corpus path")
    _add_config_flags(p_run)
    _add_run_flags(p_run)

    p_replay = sub.add_parser(
        "replay", help="classify from raw scores instead of a corpus"
    )
    p_replay.add_argument(
        "--metrics", required=True, help="JSON orientation -> {metric: score}"
    )
    _add_config_flags(p_replay)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--spec", help="synth spec JSON")
    p_synth.add_argument(
        "--preset",
        choices=("demo", "full-scale"),
        help="built-in spec (ignored when --spec is given)",
    )
    p_synth.add_argument("--seed", type=int, help="override the spec seed")
    p_synth.add_argument("--out", required=True, help="corpus output path")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    cfg.corpus = args.corpus
    report = run_pipeline(cfg)
    sys.stdout.write(dump_report(report))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    cfg = _build_config(args, HIERARCHY_SETTINGS)
    # cfg is valid, so whatever replay_metrics refuses is the file's fault.
    with read_json_object(args.metrics, "metrics file", CorpusError) as raw:
        report = replay_metrics(raw, cfg)
    sys.stdout.write(dump_report(report))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthSpec, demo_spec, full_scale_spec, generate_corpus, write_corpus

    if args.spec:
        spec = SynthSpec.from_file(args.spec)
    elif args.preset == "full-scale":
        spec = full_scale_spec()
    elif args.preset == "demo":
        spec = demo_spec()
    else:
        raise ConfigError("synth needs --spec or --preset")
    if args.seed is not None:
        spec.seed = args.seed
    records = generate_corpus(spec)
    write_corpus(records, args.out)
    logger.info("wrote %d records to %s", len(records), args.out)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "replay": _cmd_replay,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        logger.error("invalid configuration: %s", exc)
        return 2
    except (CorpusError, OSError) as exc:
        logger.error("fatal input error: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
