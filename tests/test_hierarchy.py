"""Normalization, composites, banding and the classification table."""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_case import EXPECTED_HINTS, EXPECTED_LABELS, EXPECTED_MM, RAW_SCORES
from valuescope import (
    Attitude,
    Band,
    CLASSES,
    CONNECTIVITY_METRICS,
    INTERACTIVITY_METRICS,
    METRICS,
    MetricVector,
    ValueClass,
    attitude,
    band,
    classify,
    composite,
    min_max_normalize,
    normalize_vectors,
)


class TestMinMaxNormalize:
    def test_basic_scaling(self):
        out = min_max_normalize({"a": 1.0, "b": 3.0, "c": 5.0})
        assert out == {"a": 0.0, "b": 0.5, "c": 1.0}

    def test_constant_vector_maps_to_half(self):
        out = min_max_normalize({"a": 2.0, "b": 2.0, "c": 2.0})
        assert out == {"a": 0.5, "b": 0.5, "c": 0.5}

    def test_fewer_than_two_present_goes_absent(self):
        assert min_max_normalize({"a": 1.0, "b": None}) == {"a": None, "b": None}
        assert min_max_normalize({"a": None}) == {"a": None}
        assert min_max_normalize({}) == {}

    def test_absent_entries_stay_absent(self):
        out = min_max_normalize({"a": 1.0, "b": None, "c": 2.0})
        assert out == {"a": 0.0, "b": None, "c": 1.0}

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=-10_000, max_value=10_000),
            min_size=2,
            max_size=8,
        ),
        scale=st.floats(min_value=1e-2, max_value=1e2),
        shift=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_affine_invariance(self, values, scale, shift):
        # Integer bases keep the spread from being absorbed by the shift,
        # which would legitimately change the result.
        keys = [f"k{i}" for i in range(len(values))]
        plain = min_max_normalize(dict(zip(keys, map(float, values))))
        moved = min_max_normalize(
            {k: scale * v + shift for k, v in zip(keys, values)}
        )
        for key in keys:
            assert moved[key] == pytest.approx(plain[key], abs=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=2, max_size=8)
    )
    def test_output_bounded(self, values):
        out = min_max_normalize({f"k{i}": v for i, v in enumerate(values)})
        for value in out.values():
            assert value is not None
            assert -1e-12 <= value <= 1 + 1e-12


@pytest.fixture(scope="module")
def normalized():
    vectors = {
        name: MetricVector.from_dict(raw) for name, raw in RAW_SCORES.items()
    }
    return normalize_vectors(vectors)


class TestReferenceNormalization:
    """Feed the frozen raw scores through normalization and compare against
    the published two-decimal values. Tolerance is half a rounding step."""

    @pytest.mark.parametrize("metric", METRICS)
    def test_metric_column(self, normalized, metric):
        for orientation, expected in EXPECTED_MM.items():
            got = normalized[orientation][metric]
            assert got == pytest.approx(expected[metric], abs=0.005), (
                f"{orientation}.{metric}: {got} vs {expected[metric]}"
            )


class TestComposite:
    def test_plain_mean(self):
        normalized = {"a": 0.2, "b": 0.4, "c": 0.9}
        assert composite(normalized, ("a", "b", "c")) == pytest.approx(0.5)

    def test_inverted_metric_flips(self):
        normalized = {"a": 0.2, "b": 1.0}
        assert composite(
            normalized, ("a", "b"), inverted=frozenset({"b"})
        ) == pytest.approx(0.1)

    def test_interactivity_worked_example(self):
        mm = EXPECTED_MM["Customers"]
        value = composite(
            mm, INTERACTIVITY_METRICS, inverted=frozenset({"art_hours"})
        )
        # (0 + 1 + 1 + 1 + 0.71 + 1) / 6 from the published normals
        assert value == pytest.approx(0.785, abs=1e-9)

    def test_low_interactivity_worked_example(self):
        mm = EXPECTED_MM["SocialResponsibility"]
        value = composite(
            mm, INTERACTIVITY_METRICS, inverted=frozenset({"art_hours"})
        )
        # (0.57 + 0 + 0 + 0 + 0.35 + 0.17) / 6
        assert value == pytest.approx(0.1816667, abs=1e-6)

    def test_weights_rescale(self):
        normalized = {"a": 1.0, "b": 0.0}
        assert composite(
            normalized, ("a", "b"), weights={"a": 3.0, "b": 1.0}
        ) == pytest.approx(0.75)

    def test_absent_metric_renormalizes(self):
        normalized = {"a": None, "b": 0.6}
        assert composite(normalized, ("a", "b")) == pytest.approx(0.6)

    def test_all_absent_is_absent(self):
        assert composite({"a": None, "b": None}, ("a", "b")) is None

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            composite({"a": 0.5}, ("a",), weights={"a": -1.0})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            composite({"a": 0.5, "b": 0.5}, ("a", "b"), weights={"a": 0.0, "b": 0.0})

    def test_zero_weighted_metric_ignored(self):
        normalized = {"a": 1.0, "b": 0.0}
        assert composite(
            normalized, ("a", "b"), weights={"a": 1.0, "b": 0.0}
        ) == pytest.approx(1.0)


class TestBands:
    def test_interactivity_thresholds(self):
        assert band(0.785, 0.30, 0.45) is Band.HIGH
        assert band(0.1816, 0.30, 0.45) is Band.LOW
        assert band(0.32, 0.30, 0.45) is Band.INTERMEDIATE

    def test_boundaries(self):
        assert band(0.30, 0.30, 0.45) is Band.INTERMEDIATE
        assert band(0.45, 0.30, 0.45) is Band.HIGH
        assert band(0.299999, 0.30, 0.45) is Band.LOW

    def test_connectivity_thresholds(self):
        assert band(0.04, 0.50, 0.75) is Band.LOW
        assert band(0.53, 0.50, 0.75) is Band.INTERMEDIATE
        assert band(0.80, 0.50, 0.75) is Band.HIGH


class TestAttitude:
    def test_thresholds_inclusive(self):
        assert attitude(0.45) is Attitude.NEGATIVE
        assert attitude(0.55) is Attitude.POSITIVE
        assert attitude(0.50) is Attitude.NEUTRAL
        assert attitude(0.695) is Attitude.POSITIVE
        assert attitude(0.0) is Attitude.NEGATIVE
        assert attitude(1.0) is Attitude.POSITIVE

    def test_custom_thresholds(self):
        assert attitude(0.58, negative_max=0.3, positive_min=0.6) is Attitude.NEUTRAL

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            attitude(1.5)
        with pytest.raises(ValueError):
            attitude(-0.1)


class TestClassify:
    def test_high_interactivity_family(self):
        assert classify(Band.HIGH, Band.HIGH, Attitude.POSITIVE) is ValueClass.ACTIVE
        assert (
            classify(Band.INTERMEDIATE, Band.HIGH, Attitude.NEUTRAL)
            is ValueClass.ACTIVE_NEUTRAL_OR_NEGATIVE
        )
        assert classify(Band.LOW, Band.HIGH, Attitude.POSITIVE) is ValueClass.ACTIVE_DISAGGREGATED

    def test_intermediate_interactivity_family(self):
        assert classify(Band.HIGH, Band.INTERMEDIATE, Attitude.POSITIVE) is ValueClass.LATENT
        assert classify(Band.HIGH, Band.INTERMEDIATE, Attitude.NEGATIVE) is ValueClass.LATENT_NEGATIVE
        assert (
            classify(Band.LOW, Band.INTERMEDIATE, Attitude.NEUTRAL)
            is ValueClass.LATENT_DISAGGREGATED
        )
        assert classify(Band.LOW, Band.INTERMEDIATE, Attitude.NEGATIVE) is ValueClass.LATENT_NEGATIVE

    def test_low_interactivity_is_void_regardless(self):
        for conn in Band:
            for feeling in Attitude:
                assert classify(conn, Band.LOW, feeling) is ValueClass.VOID

    def test_every_combination_defined_with_frozen_strings(self):
        for conn, inter, feeling in itertools.product(Band, Band, Attitude):
            result = classify(conn, inter, feeling)
            assert CLASSES[result] == (EXPECTED_LABELS[result.value], EXPECTED_HINTS[result.value])

    def test_attitude_never_demotes_across_families(self):
        # Moving attitude from negative to positive must never move an
        # orientation out of its interactivity family.
        families = {
            ValueClass.ACTIVE: "active",
            ValueClass.ACTIVE_NEUTRAL_OR_NEGATIVE: "active",
            ValueClass.ACTIVE_DISAGGREGATED: "active",
            ValueClass.LATENT: "latent",
            ValueClass.LATENT_NEGATIVE: "latent",
            ValueClass.LATENT_DISAGGREGATED: "latent",
            ValueClass.VOID: "void",
        }
        for conn, inter in itertools.product(Band, Band):
            seen = {families[classify(conn, inter, feeling)] for feeling in Attitude}
            assert len(seen) == 1


class TestMetricVector:
    def test_round_trip(self):
        vector = MetricVector(density=0.1, sentiment=0.7)
        again = MetricVector.from_dict(asdict(vector))
        assert again == vector

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            MetricVector.from_dict({"vibes": 1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "0.5"])
    def test_non_finite_or_non_numeric_value_rejected(self, value):
        with pytest.raises(ValueError, match="finite number"):
            MetricVector.from_dict({"activity": value})

    @pytest.mark.parametrize(
        ("metric", "value"),
        [
            ("density", -0.01),
            ("density", 1.01),
            ("degree_centralization", 2),
            ("betweenness_centralization", -1),
            ("sentiment", 1.5),
            ("emotionality", 0.51),
            ("emotionality", -0.1),
            ("nudges", 0.99),
            ("art_hours", -5),
            ("actor_count", -1),
            ("complexity", -0.5),
        ],
    )
    def test_value_outside_its_domain_rejected(self, metric, value):
        with pytest.raises(ValueError, match=f"metric {metric!r} must be a finite number in"):
            MetricVector.from_dict({metric: value})

    def test_domain_edges_accepted(self):
        edges = {
            "density": 0, "degree_centralization": 1.0, "betweenness_centralization": 0.0,
            "sentiment": 1, "emotionality": 0.5, "nudges": 1, "art_hours": 0.0,
            "actor_count": 0, "activity": 0, "avg_activity_per_actor": 0.0,
            "rotating_leadership": 0, "complexity": 1e300,
        }
        assert asdict(MetricVector.from_dict(edges)) == edges

    def test_metric_groups_partition_the_list(self):
        groups = CONNECTIVITY_METRICS + INTERACTIVITY_METRICS + METRICS[9:]
        assert groups == METRICS
