"""Seeded synthetic corpora with planted structure.

Each orientation gets its own plant: a graph shape (star, dense-core or
fragmented-dyads), a constant response lag, a sentiment bias, a Zipfian
filler vocabulary and optionally an oscillation period that dilutes the
per-window structure with disposable dyads, driving a known leadership
churn pattern.  Identical specs and seeds always produce identical byte
streams.

Star and dyad plants use fresh actors per window (only the star hub is
global), so every planted contact is answered exactly once at exactly the
configured lag.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from datetime import datetime, timezone

from .config import check_field_types, read_json_object
from .corpus import ORIENTATIONS, OrientationLexicon
from .dynamics import check_window_count
from .language import PolarLexicon

SHAPES = ("star", "dense-core", "fragmented-dyads")

_ID_PREFIX = {
    "Customers": "cust",
    "Employees": "empl",
    "EconomicFinancialGrowth": "econ",
    "Excellence": "exce",
    "Citizenship": "citi",
    "SocialResponsibility": "soci",
}


@dataclass(frozen=True)
class OrientationPlant:
    actors: int
    messages: int
    shape: str = "star"
    response_lag_hours: float = 2.0
    sentiment_bias: float = 0.5
    vocab_size: int = 2000
    oscillation_period: int | None = None


@dataclass
class SynthSpec:
    orientations: dict[str, OrientationPlant]
    start: datetime
    days: int = 7
    window_hours: float = 24.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.start.tzinfo is None:
            self.start = self.start.replace(tzinfo=timezone.utc)

    @property
    def n_windows(self) -> int:
        exact = self.days * 24.0 / self.window_hours
        n = round(exact)
        if n < 1 or abs(exact - n) > 1e-9:
            raise ValueError("days * 24 must be a positive multiple of window_hours")
        return n

    def validate(self) -> None:
        check_field_types(self)
        if self.days < 1:
            raise ValueError("days must be at least 1")
        if self.window_hours <= 0:
            raise ValueError("window_hours must be positive")
        # An exact ceiling, so that no day count overflows a float before it is refused.
        hours, per = float(self.window_hours).as_integer_ratio()
        check_window_count(-(-self.days * 24 * per // hours), self.window_hours)
        width = self.window_hours * 3600.0
        if self.start.timestamp() % width != 0:
            raise ValueError("start must sit on a window boundary")
        unknown = set(self.orientations) - set(ORIENTATIONS)
        if unknown:
            raise ValueError(f"unknown orientations: {sorted(unknown)}")
        if not self.orientations:
            raise ValueError("spec plants no orientation")
        for name, plant in self.orientations.items():
            check_field_types(plant, f"{name}: ")
            if plant.shape not in SHAPES:
                raise ValueError(f"{name}: unknown shape {plant.shape!r}")
            if plant.actors < 2:
                raise ValueError(f"{name}: need at least 2 actors")
            if plant.messages < 1:
                raise ValueError(f"{name}: need at least 1 message")
            if not 0.0 <= plant.sentiment_bias <= 1.0:
                raise ValueError(f"{name}: sentiment_bias outside [0, 1]")
            if plant.vocab_size < 10:
                raise ValueError(f"{name}: vocab_size must be at least 10")
            lag = plant.response_lag_hours
            if not 0.0 < lag <= 0.35 * self.window_hours:
                raise ValueError(
                    f"{name}: response lag must be in (0, {0.35 * self.window_hours}] "
                    "hours so answers stay inside their window"
                )
            period = plant.oscillation_period
            if period is not None and period < 2:
                raise ValueError(f"{name}: oscillation period must be >= 2")

    @classmethod
    def from_file(cls, path: str) -> "SynthSpec":
        with read_json_object(path, "synth spec") as raw:
            plants_raw = raw.get("orientations")
            if not isinstance(plants_raw, dict):
                raise ValueError("needs an 'orientations' object")
            plant_names = {f.name for f in fields(OrientationPlant)}
            plants = {}
            for name, body in plants_raw.items():
                unknown = set(body) - plant_names
                if unknown:
                    raise ValueError(f"{name}: unknown plant keys {sorted(unknown)}")
                plants[name] = OrientationPlant(**body)
            start_raw = raw.get("start", "2021-01-04T00:00:00Z")
            start = datetime.fromisoformat(str(start_raw).replace("Z", "+00:00"))
            spec = cls(
                orientations=plants,
                start=start,
                days=raw.get("days", 7),
                window_hours=raw.get("window_hours", 24.0),
                seed=raw.get("seed", 0),
            )
            spec.validate()
            return spec


def demo_spec(seed: int = 7) -> SynthSpec:
    """Small corpus touching all three shapes; handy for a first CLI run."""
    return SynthSpec(
        orientations={
            "Customers": OrientationPlant(
                actors=61, messages=260, shape="star", sentiment_bias=0.7,
                vocab_size=800, oscillation_period=4,
            ),
            "Employees": OrientationPlant(
                actors=49, messages=160, shape="star", sentiment_bias=0.6,
                vocab_size=800,
            ),
            "EconomicFinancialGrowth": OrientationPlant(
                actors=40, messages=140, shape="dense-core", sentiment_bias=0.65,
                vocab_size=600,
            ),
            "Excellence": OrientationPlant(
                actors=55, messages=200, shape="star", sentiment_bias=0.75,
                vocab_size=800,
            ),
            "Citizenship": OrientationPlant(
                actors=36, messages=130, shape="dense-core", sentiment_bias=0.55,
                vocab_size=600,
            ),
            "SocialResponsibility": OrientationPlant(
                actors=40, messages=120, shape="fragmented-dyads",
                sentiment_bias=0.5, vocab_size=500,
            ),
        },
        start=datetime(2021, 3, 1, tzinfo=timezone.utc),
        days=6,
        seed=seed,
    )


def full_scale_spec(seed: int = 11) -> SynthSpec:
    """100k messages over 60 daily windows across all six orientations."""
    return SynthSpec(
        orientations={
            "Customers": OrientationPlant(
                actors=9000, messages=22000, shape="star", sentiment_bias=0.7,
                vocab_size=5000, oscillation_period=7,
            ),
            "Employees": OrientationPlant(
                actors=7000, messages=16000, shape="star", sentiment_bias=0.6,
                vocab_size=5000,
            ),
            "EconomicFinancialGrowth": OrientationPlant(
                actors=3000, messages=9000, shape="dense-core",
                sentiment_bias=0.65, vocab_size=4000, oscillation_period=5,
            ),
            "Excellence": OrientationPlant(
                actors=8000, messages=19000, shape="star", sentiment_bias=0.75,
                vocab_size=5000, oscillation_period=7,
            ),
            "Citizenship": OrientationPlant(
                actors=5000, messages=12000, shape="dense-core",
                sentiment_bias=0.6, vocab_size=4000,
            ),
            "SocialResponsibility": OrientationPlant(
                actors=8000, messages=22000, shape="fragmented-dyads",
                sentiment_bias=0.55, vocab_size=3000,
            ),
        },
        start=datetime(2021, 1, 4, tzinfo=timezone.utc),
        days=60,
        seed=seed,
    )


def oscillation_series(period: int | None, n_windows: int) -> list[int]:
    """Planted dyad counts per window: a triangle wave, or zeros without a period."""
    if period is None:
        return [0] * n_windows
    return [1 + min(w % period, period - w % period) for w in range(n_windows)]


def _split_even(total: int, parts: int) -> list[int]:
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def star_plan(
    plant: OrientationPlant, n_windows: int
) -> list[tuple[int, int, int]]:
    """Per-window (spokes, dyads, plain posts) for a star plant.

    This is pure arithmetic, no randomness, so tests can derive the exact
    expected window structure from it.
    """
    dyads = oscillation_series(plant.oscillation_period, n_windows)
    spokes_total = plant.actors - 1 - 2 * sum(dyads)
    if spokes_total < n_windows:
        raise ValueError("too few actors for a star in every window")
    interactions = 2 * (spokes_total + sum(dyads))
    if interactions > plant.messages:
        raise ValueError("message budget below planted interaction count")
    spokes = _split_even(spokes_total, n_windows)
    plains = _split_even(plant.messages - interactions, n_windows)
    return list(zip(spokes, dyads, plains))


def _dyad_plan(plant: OrientationPlant, n_windows: int) -> list[tuple[int, int]]:
    """Per-window (pairs, plain posts) for a fragmented-dyads plant."""
    pairs_total = plant.actors // 2
    if pairs_total < n_windows:
        raise ValueError("too few actors for a dyad in every window")
    if 2 * pairs_total > plant.messages:
        raise ValueError("message budget below planted interaction count")
    pairs = _split_even(pairs_total, n_windows)
    plains = _split_even(plant.messages - 2 * pairs_total, n_windows)
    return list(zip(pairs, plains))


class _TextSampler:
    """Deterministic message text: keyword phrase + Zipf fillers + bias token."""

    def __init__(self, keyword: str, plant: OrientationPlant, rng: random.Random,
                 polar: PolarLexicon):
        self.keyword = keyword
        self.rng = rng
        self.vocab = [f"w{i:05d}" for i in range(plant.vocab_size)]
        weights = [1.0 / rank for rank in range(1, plant.vocab_size + 1)]
        total = 0.0
        self.cum_weights = []
        for w in weights:
            total += w
            self.cum_weights.append(total)
        self.polar_rate = 2.0 * abs(plant.sentiment_bias - 0.5)
        side = polar.positive if plant.sentiment_bias >= 0.5 else polar.negative
        self.polar_tokens = sorted(side)

    def text(self) -> str:
        n_fillers = self.rng.randint(4, 9)
        fillers = self.rng.choices(
            self.vocab, cum_weights=self.cum_weights, k=n_fillers
        )
        parts = [self.keyword] + fillers
        if self.polar_rate > 0.0 and self.rng.random() < self.polar_rate:
            parts.append(self.rng.choice(self.polar_tokens))
        return " ".join(parts)


class _OrientationWriter:
    def __init__(self, name: str, spec: SynthSpec, keyword: str,
                 polar: PolarLexicon):
        self.name = name
        self.plant = spec.orientations[name]
        self.rng = random.Random(f"{spec.seed}:{name}")
        self.sampler = _TextSampler(keyword, self.plant, self.rng, polar)
        self.prefix = _ID_PREFIX[name]
        self.counter = 0
        self.width = spec.window_hours * 3600.0
        self.base = spec.start.timestamp()
        self.lag = int(self.plant.response_lag_hours * 3600)
        self.records: list[dict] = []

    def _next_id(self) -> str:
        self.counter += 1
        return f"{self.prefix}{self.counter:07d}"

    def _emit(self, author: str, stamp: float, reply_to: str | None = None,
              mentions: tuple[str, ...] = ()) -> str:
        msg_id = self._next_id()
        created = datetime.fromtimestamp(int(stamp), tz=timezone.utc)
        self.records.append(
            {
                "id": msg_id,
                "author": author,
                "created_at": created.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "text": self.sampler.text(),
                "reply_to": reply_to,
                "retweet_of": None,
                "mentions": list(mentions),
            }
        )
        return msg_id

    def _exchange(self, sender: str, receiver: str, stamp: float) -> None:
        """One planted contact plus its answer at exactly the configured lag."""
        contact_id = self._emit(sender, stamp, mentions=(receiver,))
        self._emit(receiver, stamp + self.lag, reply_to=contact_id)

    def _window_times(self, window: int, count: int) -> list[float]:
        start = self.base + window * self.width
        lo = start + 0.05 * self.width
        span = 0.55 * self.width
        step = span / max(count, 1)
        return [lo + i * step for i in range(count)]

    def _plain_times(self, window: int, count: int) -> list[float]:
        start = self.base + window * self.width
        lo = start + 0.91 * self.width
        step = 0.08 * self.width / max(count, 1)
        return [lo + i * step for i in range(count)]

    def generate(self, n_windows: int) -> list[dict]:
        shape = self.plant.shape
        if shape == "star":
            self._gen_star(n_windows)
        elif shape == "fragmented-dyads":
            self._gen_dyads(n_windows)
        else:
            self._gen_dense_core(n_windows)
        return self.records

    def _gen_star(self, n_windows: int) -> None:
        hub = f"{self.prefix}_hub"
        for window, (spokes, dyads, plains) in enumerate(
            star_plan(self.plant, n_windows)
        ):
            times = self._window_times(window, spokes + dyads)
            spoke_names = [
                f"{self.prefix}_w{window}s{i}" for i in range(spokes)
            ]
            for i, spoke in enumerate(spoke_names):
                self._exchange(spoke, hub, times[i])
            for d in range(dyads):
                a = f"{self.prefix}_w{window}d{d}a"
                b = f"{self.prefix}_w{window}d{d}b"
                self._exchange(a, b, times[spokes + d])
            authors = spoke_names or [hub]
            for j, stamp in enumerate(self._plain_times(window, plains)):
                self._emit(authors[j % len(authors)], stamp)

    def _gen_dyads(self, n_windows: int) -> None:
        pair_counter = 0
        plan = _dyad_plan(self.plant, n_windows)
        spare = self.plant.actors - 2 * (self.plant.actors // 2)
        for window, (pairs, plains) in enumerate(plan):
            times = self._window_times(window, pairs)
            members: list[str] = []
            for i in range(pairs):
                a = f"{self.prefix}_p{pair_counter}a"
                b = f"{self.prefix}_p{pair_counter}b"
                pair_counter += 1
                self._exchange(a, b, times[i])
                members.append(a)
            if spare and window == 0:
                members.append(f"{self.prefix}_spare")
            for j, stamp in enumerate(self._plain_times(window, plains)):
                self._emit(members[j % len(members)], stamp)

    def _gen_dense_core(self, n_windows: int) -> None:
        core_size = max(3, round(self.plant.actors * 0.2))
        core_size = min(core_size, self.plant.actors)
        periphery_total = self.plant.actors - core_size
        interactions = self.plant.messages - periphery_total
        events_total = interactions // 2
        if events_total < 1:
            raise ValueError("message budget below planted interaction count")
        core = [f"{self.prefix}_core{i}" for i in range(core_size)]
        events = _split_even(events_total, n_windows)
        periphery = _split_even(periphery_total, n_windows)
        leftover = interactions - 2 * events_total
        peripheral_counter = 0
        for window in range(n_windows):
            times = self._window_times(window, events[window])
            for stamp in times:
                a, b = self.rng.sample(core, 2)
                self._exchange(a, b, stamp)
            plains = periphery[window] + (leftover if window == 0 else 0)
            stamps = self._plain_times(window, plains)
            for j, stamp in enumerate(stamps):
                if j < periphery[window]:
                    author = f"{self.prefix}_p{peripheral_counter}"
                    peripheral_counter += 1
                else:
                    author = core[0]
                self._emit(author, stamp)


def generate_corpus(spec: SynthSpec) -> list[dict]:
    """All records for the spec, in deterministic generation order."""
    spec.validate()
    lexicon = OrientationLexicon.default()
    polar = PolarLexicon.default()
    records: list[dict] = []
    for name in ORIENTATIONS:
        if name not in spec.orientations:
            continue
        keyword = " ".join(lexicon.phrases[name][0])
        writer = _OrientationWriter(name, spec, keyword, polar)
        records.extend(writer.generate(spec.n_windows))
    return records


def write_corpus(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=True) + "\n")
