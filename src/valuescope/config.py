"""Run configuration: defaults, validation, and the reader of every JSON input file."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Collection, Iterator

from .hierarchy import CONNECTIVITY_METRICS, INTERACTIVITY_METRICS, is_finite_number


class ConfigError(ValueError):
    """Invalid configuration value or config file."""


def _reject_constant(token: str) -> None:
    raise ValueError(f"{token} is not a finite number")


@contextmanager
def read_json_object(
    path: str, what: str, error: type[ValueError] = ConfigError
) -> Iterator[dict]:
    """The JSON object in the UTF-8 file at ``path``, ``what`` the file is.

    Raises ``error`` naming the file if it cannot be opened, is not UTF-8,
    is not JSON (``NaN`` and ``Infinity`` included), nests too deeply to
    decode or holds something other than an object, and if the ``with``
    body refuses the object's shape with a ValueError or TypeError.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise error(f"cannot read {what} {path!r}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"cannot decode {what} {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{what} {path!r} must hold a JSON object")
    try:
        yield raw
    except (ValueError, TypeError) as exc:
        raise error(f"{what} {path!r}: {exc}") from exc


_KINDS = {
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("a finite integer", lambda v: is_finite_number(v) and isinstance(v, int)),
    "float": ("a finite number", is_finite_number),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(obj, prefix: str = "") -> None:
    """ConfigError for the first field of dataclass ``obj`` that is not of its
    annotated bool, int, float or str kind (``None`` where allowed)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.split(" |")[0]  # annotations are strings, e.g. "float | None"
        if kind in _KINDS and not (value is None and f.type.endswith("| None")):
            expected, accepts = _KINDS[kind]
            if not accepts(value):
                raise ConfigError(f"{prefix}{f.name} must be {expected}, got {value!r}")


@dataclass
class RunConfig:
    """Everything tunable about a run.

    Band thresholds and the neutral sentiment band follow the calibrated
    defaults; ``centralization_positive`` controls whether the two
    centralization metrics count positively inside the connectivity
    composite (the default) or flipped.
    """

    corpus: str | None = None
    output_dir: str = "out"
    orientation_lexicon: str | None = None  # None -> packaged default
    sentiment_lexicon: str | None = None
    reference_dictionary: str | None = None  # None -> build from the corpus
    window_hours: float = 24.0
    gbco_mode: str = "group"  # rotating leadership: "group" or "actor"
    response_cutoff_hours: float | None = None
    interactivity_low: float = 0.30
    interactivity_high: float = 0.45
    connectivity_low: float = 0.50
    connectivity_high: float = 0.75
    attitude_negative_max: float = 0.45
    attitude_positive_min: float = 0.55
    centralization_positive: bool = True
    connectivity_weights: dict[str, float] = field(default_factory=dict)
    interactivity_weights: dict[str, float] = field(default_factory=dict)
    export_graphml: bool = False
    export_dot: bool = False
    window_csv: bool = False

    def validate(self) -> None:
        check_field_types(self)
        for low_name, high_name in (
            ("interactivity_low", "interactivity_high"),
            ("connectivity_low", "connectivity_high"),
        ):
            low = getattr(self, low_name)
            high = getattr(self, high_name)
            if not (0.0 < low < high < 1.0):
                raise ConfigError(
                    f"need 0 < {low_name} < {high_name} < 1, got {low} and {high}"
                )
        if not (0.0 < self.attitude_negative_max < self.attitude_positive_min < 1.0):
            raise ConfigError(
                "need 0 < attitude_negative_max < attitude_positive_min < 1"
            )
        if self.window_hours <= 0:
            raise ConfigError("window_hours must be positive")
        if self.gbco_mode not in ("group", "actor"):
            raise ConfigError(
                f"gbco_mode must be 'group' or 'actor', got {self.gbco_mode!r}"
            )
        if self.response_cutoff_hours is not None and self.response_cutoff_hours <= 0:
            raise ConfigError("response_cutoff_hours must be positive when set")
        for name, metrics in (
            ("connectivity_weights", CONNECTIVITY_METRICS),
            ("interactivity_weights", INTERACTIVITY_METRICS),
        ):
            weights = getattr(self, name)
            if not isinstance(weights, dict):
                raise ConfigError(f"{name} must map metric names to weights")
            for metric, weight in weights.items():
                if metric not in metrics or not is_finite_number(weight) or weight < 0:
                    raise ConfigError(
                        f"{name}[{metric!r}] must name one of {list(metrics)} "
                        f"and be a finite number >= 0, got {weight!r}"
                    )
            if not any(weights.get(metric, 1.0) > 0 for metric in metrics):
                raise ConfigError(f"{name} sets every weight to zero")
            if not is_finite_number(sum((weights.get(metric, 1.0) for metric in metrics), 0.0)):
                raise ConfigError(f"{name} must sum to a finite number, unset weights being 1.0")

    @classmethod
    def from_file(cls, path: str, keys: Collection[str] | None = None) -> "RunConfig":
        """The config in the JSON file at ``path``; if given, ``keys`` names all it may set."""
        with read_json_object(path, "config") as raw:
            unknown = set(raw) - {f.name for f in fields(cls)}
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            refused = set(raw) - set(raw if keys is None else keys)
            if refused:
                raise ConfigError(f"keys this command does not read: {sorted(refused)}")
            cfg = cls(**raw)
            cfg.validate()
            return cfg

    def as_dict(self) -> dict:
        return asdict(self)


# The settings that replay reads, so the only keys its config file may set.
HIERARCHY_SETTINGS = frozenset({
    "interactivity_low", "interactivity_high", "connectivity_low", "connectivity_high",
    "attitude_negative_max", "attitude_positive_min", "centralization_positive",
    "connectivity_weights", "interactivity_weights",
})
