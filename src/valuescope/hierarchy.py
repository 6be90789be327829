"""Cross-orientation normalization, composite banding and classification.

Every metric is min-max normalized across orientations so composites compare
positions, not magnitudes.  Interactivity and connectivity composites are
weighted means of normalized values; band thresholds then drive a fixed
decision table that assigns each orientation a salience class and a strategy
hint.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import Mapping, Sequence


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


CLASS_LABELS: dict[ValueClass, str] = {
    ValueClass.ACTIVE: "Active",
    ValueClass.ACTIVE_NEUTRAL_OR_NEGATIVE: "Active but with neutral or negative feelings",
    ValueClass.ACTIVE_DISAGGREGATED: "Active but on disaggregated groups",
    ValueClass.LATENT: "Latent",
    ValueClass.LATENT_NEGATIVE: "Latent but with negative feelings",
    ValueClass.LATENT_DISAGGREGATED: "Latent but on disaggregated groups",
    ValueClass.VOID: "Void",
}

STRATEGY_HINTS: dict[ValueClass, str] = {
    ValueClass.ACTIVE: "At the heart of any strategic process",
    ValueClass.ACTIVE_NEUTRAL_OR_NEGATIVE: "Immediate attention, consider to gradually divest",
    ValueClass.ACTIVE_DISAGGREGATED: "Immediate attention, verify the convergence among stakeholders",
    ValueClass.LATENT: "Periodic attention",
    ValueClass.LATENT_NEGATIVE: "Periodic attention, consider to gradually divest",
    ValueClass.LATENT_DISAGGREGATED: "Periodic attention, verify the convergence among stakeholders",
    ValueClass.VOID: "Consider to gradually divest",
}


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


@dataclass(frozen=True, slots=True)
class Classification:
    value_class: ValueClass
    label: str
    hint: str


def classify(
    connectivity: Band, interactivity: Band, feeling: Attitude
) -> Classification:
    """Decision table over (connectivity band, interactivity band, attitude).

    Interactivity dominates: a Low band is Void no matter how connected or
    how warm the discourse.  High interactivity is the Active family, split
    by fragmentation first and attitude second; Intermediate is the Latent
    family with the same two splits.
    """
    if interactivity is Band.LOW:
        result = ValueClass.VOID
    elif interactivity is Band.HIGH:
        if connectivity is Band.LOW:
            result = ValueClass.ACTIVE_DISAGGREGATED
        elif feeling is Attitude.POSITIVE:
            result = ValueClass.ACTIVE
        else:
            result = ValueClass.ACTIVE_NEUTRAL_OR_NEGATIVE
    else:
        if connectivity is Band.LOW:
            result = (
                ValueClass.LATENT_NEGATIVE
                if feeling is Attitude.NEGATIVE
                else ValueClass.LATENT_DISAGGREGATED
            )
        else:
            result = (
                ValueClass.LATENT_NEGATIVE
                if feeling is Attitude.NEGATIVE
                else ValueClass.LATENT
            )
    return Classification(result, CLASS_LABELS[result], STRATEGY_HINTS[result])
