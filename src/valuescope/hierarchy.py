"""Cross-orientation normalization, composite banding and classification.

Every metric is min-max normalized across orientations so composites compare
positions, not magnitudes.  Interactivity and connectivity composites are
weighted means of normalized values; band thresholds then drive a fixed
decision table that assigns each orientation a salience class, whose label
and strategy hint come from ``CLASSES``.  ``evaluate_hierarchy`` forms each
orientation's report entry from these steps.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .config import RunConfig


@dataclass(frozen=True, slots=True)
class MetricVector:
    """The twelve metrics, None when absent; the one list of their names, in report order."""

    density: float | None = None
    degree_centralization: float | None = None
    betweenness_centralization: float | None = None
    art_hours: float | None = None
    nudges: float | None = None
    actor_count: float | None = None
    activity: float | None = None
    avg_activity_per_actor: float | None = None
    rotating_leadership: float | None = None
    sentiment: float | None = None
    emotionality: float | None = None
    complexity: float | None = None

    @classmethod
    def from_dict(cls, raw: Mapping[str, float | None]) -> "MetricVector":
        unknown = set(raw) - set(METRICS)
        if unknown:
            raise ValueError(f"unknown metric names: {sorted(unknown)}")
        for name, value in raw.items():
            low, high = DOMAINS.get(name, (0.0, float("inf")))
            if value is not None and not (is_finite_number(value) and low <= value <= high):
                raise ValueError(
                    f"metric {name!r} must be a finite number in [{low}, {high}] or null,"
                    f" got {value!r}"
                )
        return cls(**raw)


METRICS: tuple[str, ...] = tuple(f.name for f in fields(MetricVector))
CONNECTIVITY_METRICS: tuple[str, ...] = METRICS[:3]
INTERACTIVITY_METRICS: tuple[str, ...] = METRICS[3:9]
LANGUAGE_METRICS: tuple[str, ...] = METRICS[9:]

# Each metric's domain, [0, inf] unless listed; nudges are always at least 1.
DOMAINS = dict.fromkeys((*CONNECTIVITY_METRICS, "sentiment"), (0.0, 1.0))
DOMAINS.update(emotionality=(0.0, 0.5), nudges=(1.0, float("inf")))

# Only the response time reads "better when smaller"; its normalized value is
# flipped before it enters a composite.
LOWER_IS_MORE: frozenset[str] = frozenset({"art_hours"})


def is_finite_number(value: object) -> bool:
    """A finite int or float that fits a float; booleans are flags, not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # False for NaN and infinities


class Band(str, Enum):
    LOW = "Low"
    INTERMEDIATE = "Intermediate"
    HIGH = "High"


class Attitude(str, Enum):
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"


class ValueClass(str, Enum):
    ACTIVE = "Active"
    ACTIVE_NEUTRAL_OR_NEGATIVE = "ActiveNeutralOrNegative"
    ACTIVE_DISAGGREGATED = "ActiveDisaggregated"
    LATENT = "Latent"
    LATENT_NEGATIVE = "LatentNegative"
    LATENT_DISAGGREGATED = "LatentDisaggregated"
    VOID = "Void"


# Each class's report label and strategy hint.
CLASSES: dict[ValueClass, tuple[str, str]] = {
    ValueClass.ACTIVE: ("Active", "At the heart of any strategic process"),
    ValueClass.ACTIVE_NEUTRAL_OR_NEGATIVE: (
        "Active but with neutral or negative feelings",
        "Immediate attention, consider to gradually divest",
    ),
    ValueClass.ACTIVE_DISAGGREGATED: (
        "Active but on disaggregated groups",
        "Immediate attention, verify the convergence among stakeholders",
    ),
    ValueClass.LATENT: ("Latent", "Periodic attention"),
    ValueClass.LATENT_NEGATIVE: (
        "Latent but with negative feelings",
        "Periodic attention, consider to gradually divest",
    ),
    ValueClass.LATENT_DISAGGREGATED: (
        "Latent but on disaggregated groups",
        "Periodic attention, verify the convergence among stakeholders",
    ),
    ValueClass.VOID: ("Void", "Consider to gradually divest"),
}


def round6(value: float | None) -> float | None:
    """Round to six significant digits, the report serialization precision; None stays None."""
    return None if value is None else float(f"{value:.6g}")


def ordered_mean(values: np.ndarray) -> float:
    """Mean of a non-empty float array, its terms added left to right by ``cumsum``, so its
    bits hold on every Python (the builtin ``sum`` of floats is compensated since 3.12)."""
    return float(values.cumsum()[-1] / values.size)


def min_max_normalize(
    values: Mapping[str, float | None]
) -> dict[str, float | None]:
    """Min-max scale one metric across orientations.

    Fewer than two present values make the scale meaningless, so everything
    comes back absent.  A constant vector maps every present value to 0.5.
    """
    present = {k: v for k, v in values.items() if v is not None}
    if len(present) < 2:
        return {k: None for k in values}
    lo = min(present.values())
    hi = max(present.values())
    out: dict[str, float | None] = {}
    for key, value in values.items():
        if value is None:
            out[key] = None
        elif hi == lo:
            out[key] = 0.5
        else:
            out[key] = (value - lo) / (hi - lo)
    return out


def normalize_vectors(
    vectors: Mapping[str, MetricVector]
) -> dict[str, dict[str, float | None]]:
    """Normalize every metric across orientations; orientation -> metric -> mm."""
    normalized: dict[str, dict[str, float | None]] = {k: {} for k in vectors}
    for metric in METRICS:
        column = {k: getattr(v, metric) for k, v in vectors.items()}
        for key, mm in min_max_normalize(column).items():
            normalized[key][metric] = mm
    return normalized


def composite(
    normalized: Mapping[str, float | None],
    metrics: Sequence[str],
    weights: Mapping[str, float] | None = None,
    inverted: frozenset[str] = frozenset(),
) -> float | None:
    """Weighted mean of normalized values, flipping ``inverted`` metrics.

    Absent metrics drop out and the remaining weights renormalize; if every
    metric is absent the composite itself is absent.
    """
    weights = weights or {}
    total = 0.0
    weight_sum = 0.0
    any_weight = False
    for name in metrics:
        weight = weights.get(name, 1.0)
        if weight < 0:
            raise ValueError(f"negative weight for {name}")
        if weight > 0:
            any_weight = True
        value = normalized.get(name)
        if value is None:
            continue
        corrected = 1.0 - value if name in inverted else value
        total += weight * corrected
        weight_sum += weight
    if not any_weight:
        raise ValueError("all composite weights are zero")
    if weight_sum == 0.0:
        return None
    return total / weight_sum


def band(value: float, low: float, high: float) -> Band:
    """Low below ``low``, High at or above ``high``, Intermediate between."""
    if value < low:
        return Band.LOW
    if value >= high:
        return Band.HIGH
    return Band.INTERMEDIATE


def attitude(
    sentiment: float, negative_max: float = 0.45, positive_min: float = 0.55
) -> Attitude:
    if not 0.0 <= sentiment <= 1.0:
        raise ValueError(f"sentiment {sentiment} outside [0, 1]")
    if sentiment <= negative_max:
        return Attitude.NEGATIVE
    if sentiment >= positive_min:
        return Attitude.POSITIVE
    return Attitude.NEUTRAL


def classify(connectivity: Band, interactivity: Band, feeling: Attitude) -> ValueClass:
    """Decision table over (connectivity band, interactivity band, attitude).

    Interactivity dominates: a Low band is Void no matter how connected or
    how warm the discourse.  High interactivity is the Active family, split
    by fragmentation first and attitude second; Intermediate is the Latent
    family, where a negative attitude comes first and fragmentation second.
    """
    if interactivity is Band.LOW:
        return ValueClass.VOID
    if interactivity is Band.HIGH:
        if connectivity is Band.LOW:
            return ValueClass.ACTIVE_DISAGGREGATED
        if feeling is Attitude.POSITIVE:
            return ValueClass.ACTIVE
        return ValueClass.ACTIVE_NEUTRAL_OR_NEGATIVE
    if feeling is Attitude.NEGATIVE:
        return ValueClass.LATENT_NEGATIVE
    if connectivity is Band.LOW:
        return ValueClass.LATENT_DISAGGREGATED
    return ValueClass.LATENT


def evaluate_hierarchy(vectors: Mapping[str, MetricVector], cfg: RunConfig) -> list[dict]:
    """Each orientation's report entry: normalized, composited, banded and classified.

    Orientations missing an input (empty partitions, too few peers to
    normalize against) carry null composites and no classification instead
    of failing the run.
    """
    normalized = normalize_vectors(vectors)
    # The two centralizations count against connectivity unless configured positive.
    inverted = frozenset() if cfg.centralization_positive else frozenset(CONNECTIVITY_METRICS[1:])
    entries: list[dict] = []
    for orientation, vector in vectors.items():
        mm = normalized[orientation]
        conn = composite(mm, CONNECTIVITY_METRICS, cfg.connectivity_weights, inverted)
        inter = composite(mm, INTERACTIVITY_METRICS, cfg.interactivity_weights, LOWER_IS_MORE)
        conn_band = None if conn is None else band(
            conn, cfg.connectivity_low, cfg.connectivity_high
        )
        inter_band = None if inter is None else band(
            inter, cfg.interactivity_low, cfg.interactivity_high
        )
        feeling = None if vector.sentiment is None else attitude(
            vector.sentiment, cfg.attitude_negative_max, cfg.attitude_positive_min
        )
        value_class, warnings = None, []
        if conn_band and inter_band and feeling:
            value_class = classify(conn_band, inter_band, feeling)
            if inter_band is Band.LOW and conn_band is not Band.LOW:
                warnings.append(
                    "low interactivity forces Void; the "
                    f"{conn_band.value} connectivity band and "
                    f"{feeling.value} attitude are disregarded"
                )
        label, hint = CLASSES[value_class] if value_class else (None, None)
        entries.append(
            {
                "orientation": orientation,
                "metrics": {name: round6(value) for name, value in asdict(vector).items()},
                "normalized": {
                    name: {
                        "mm": round6(value),
                        "directed": round6(
                            1.0 - value if name in LOWER_IS_MORE and value is not None else value
                        ),
                    }
                    for name, value in mm.items()
                },
                "composites": {"connectivity": round6(conn), "interactivity": round6(inter)},
                "bands": {
                    "connectivity": conn_band and conn_band.value,
                    "interactivity": inter_band and inter_band.value,
                },
                "attitude": feeling and feeling.value,
                "classification": value_class and value_class.value,
                "label": label,
                "strategy_hint": hint,
                "warnings": warnings,
            }
        )
    return entries
