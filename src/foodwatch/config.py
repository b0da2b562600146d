"""Run configuration: every settings section, the stage table, documented
defaults, flat key-value config files and flag overrides.

``RunConfig`` holds one settings section per module it configures, and every
section is declared and checked here: ``sim`` is ``SimConfig``, ``wsm`` is
``WsmSettings``, ``locmodel`` is ``LocSettings``, ``privacy`` is
``PrivacySettings`` and ``cli`` is ``CliSettings``. The modules they configure
import their section from here. ``STAGES`` names each stage's CLI command,
its function in :mod:`.pipeline` and its help text. This module imports
neither numpy nor any stage module, so a command that only reads its
arguments (``config-keys``, ``--help``, a usage error) loads none of them;
calling a :class:`Stage` imports the pipeline.

Config files hold one ``dotted.key=value`` per line (``#`` starts a comment).
Unknown keys are rejected. Values are coerced to the target field type;
``sim.cities`` uses ``name:count`` pairs separated by commas and the triples
``sim.risk_mix`` / ``sim.unsafe_prob`` use three comma-separated numbers.
Every field of every settings section is a key.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import FoodwatchError, UsageError

if TYPE_CHECKING:
    from .pipeline import Run

INCUBATION_WINDOW_S = 259_200  # 72 hours after leaving the restaurant
DEFAULT_HASH_KEY_HEX = "6f0d6b65792d746573742d6f6e6c7921"  # test-only default secret


@dataclass(frozen=True)
class CliSettings:
    max_daily_inspections: int = 1  # per city, per day
    cooldown_days: int = 30
    warmup_days: int = 6  # no lists until this much data has accumulated

    def __post_init__(self) -> None:
        for name in ("max_daily_inspections", "cooldown_days", "warmup_days"):
            if getattr(self, name) < 0:
                raise UsageError(f"cli.{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class SimConfig:
    cities: dict[str, int] = field(default_factory=lambda: {"A": 100, "B": 100})
    n_users: int = 1500
    risk_mix: tuple[float, float, float] = (0.53, 0.22, 0.25)  # high, medium, low
    unsafe_prob: tuple[float, float, float] = (0.335, 0.231, 0.079)  # by risk level
    p_infect_unsafe: float = 0.12
    p_infect_safe: float = 0.002
    incubation_median_h: float = 24.0
    incubation_sigma: float = 0.6
    p_search_given_ill: float = 0.7
    p_complaint_given_ill: float = 0.08
    p_blame_last: float = 0.75
    p_frivolous_complaint: float = 0.004  # per user-day, no infection behind it
    inspector_sensitivity: float = 0.9
    inspector_false_positive: float = 0.05
    unsafe_critical_mean: float = 1.2
    unsafe_major_mean: float = 1.8
    safe_critical_mean: float = 0.15
    safe_major_mean: float = 0.5
    rater_flip_md: float = 0.03
    rater_flip_other: float = 0.07
    meals_per_day: float = 0.8
    background_queries_per_day: float = 1.5
    p_background_foodclick: float = 0.02
    p_positive_click: float = 0.85
    positive_dwell_median_s: float = 60.0
    positive_dwell_sigma: float = 0.5
    routine_inspections_per_day: int = 8

    def __post_init__(self) -> None:
        probs = (
            "p_infect_unsafe", "p_infect_safe", "p_search_given_ill", "p_complaint_given_ill",
            "p_blame_last", "inspector_sensitivity", "inspector_false_positive",
            "p_background_foodclick", "p_positive_click", "p_frivolous_complaint",
            "rater_flip_md", "rater_flip_other",
        )
        for name in probs:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise UsageError(f"sim.{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("risk_mix", "unsafe_prob"):
            triple = getattr(self, name)
            if len(triple) != 3 or any(not 0.0 <= p <= 1.0 for p in triple):
                raise UsageError(f"sim.{name} must be three probabilities")
        if abs(sum(self.risk_mix) - 1.0) > 1e-9:
            raise UsageError(f"sim.risk_mix must sum to 1, got {sum(self.risk_mix)}")
        for name in ("incubation_median_h", "positive_dwell_median_s"):  # lognormal medians
            if not getattr(self, name) > 0:  # also refuses nan
                raise UsageError(f"sim.{name} must be > 0, got {getattr(self, name)}")
        nonnegative = (
            "n_users", "incubation_sigma", "positive_dwell_sigma", "meals_per_day",
            "background_queries_per_day", "routine_inspections_per_day", "unsafe_critical_mean",
            "unsafe_major_mean", "safe_critical_mean", "safe_major_mean",
        )
        for name in nonnegative:
            if not getattr(self, name) >= 0:
                raise UsageError(f"sim.{name} must be >= 0, got {getattr(self, name)}")
        if self.incubation_sigma == 0 and not 6.0 < self.incubation_median_h <= 72.0:
            raise UsageError("with zero sim.incubation_sigma, sim.incubation_median_h must lie in (6, 72]")
        if any(n <= 0 for n in self.cities.values()):
            raise UsageError("sim.cities: every listed city needs at least one restaurant")
        if self.cities == {} and self.n_users > 0:
            raise UsageError("sim.cities: users need at least one city to live in")


@dataclass(frozen=True)
class WsmSettings:
    """The ``wsm.*`` settings: weak labeling, training and evaluation."""

    dwell_threshold_s: float = 30.0
    neg_ratio: int = 10  # sampled negatives per weak positive
    l2: float = 1e-5
    batch_size: int = 256
    epochs: int = 60
    learning_rate: float = 1.0  # step at update t is learning_rate / sqrt(t)
    threshold: float = 0.5
    eval_size: int = 200

    def __post_init__(self) -> None:
        for name in ("neg_ratio", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise UsageError(f"wsm.{name} must be >= 1, got {getattr(self, name)}")
        if self.eval_size < 2 or self.eval_size % 2:
            raise UsageError(f"wsm.eval_size must be a positive even number, got {self.eval_size}")
        for name in ("dwell_threshold_s", "l2"):
            if not 0.0 <= getattr(self, name) < math.inf:  # also refuses nan
                raise UsageError(f"wsm.{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:
            raise UsageError(f"wsm.learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.threshold <= 1.0:
            raise UsageError(f"wsm.threshold must be in [0, 1], got {self.threshold}")


@dataclass(frozen=True)
class LocSettings:
    """The ``locmodel.*`` settings: linking, aggregation and ranking."""

    window_s: int = INCUBATION_WINDOW_S
    p_star: float = 0.7
    min_visitors: int = 20
    cutoff: float = 0.03
    agg_window_days: int = 14

    def __post_init__(self) -> None:
        if self.agg_window_days < 1:
            raise UsageError(f"locmodel.agg_window_days must be >= 1, got {self.agg_window_days}")
        for name in ("window_s", "min_visitors"):
            if getattr(self, name) < 0:
                raise UsageError(f"locmodel.{name} must be >= 0, got {getattr(self, name)}")
        for name in ("p_star", "cutoff"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise UsageError(f"locmodel.{name} must be in [0, 1], got {getattr(self, name)}")


@dataclass(frozen=True)
class PrivacySettings:
    enabled: bool = True  # off: release exact counts, unnoised and unsuppressed
    epsilon: float = 1.0  # budget per released count
    suppress_below: int = 30
    hash_key: str = DEFAULT_HASH_KEY_HEX  # hex-encoded 128-bit secret

    def __post_init__(self) -> None:
        if not self.epsilon > 0:  # also refuses nan
            raise UsageError(f"privacy.epsilon must be > 0, got {self.epsilon}")
        if self.suppress_below < 0:
            raise UsageError(f"privacy.suppress_below must be >= 0, got {self.suppress_below}")
        self.hash_key_int()  # rejects a key that is not hex or is zero

    def hash_key_int(self) -> int:
        try:
            value = int(self.hash_key, 16)
        except ValueError:
            raise UsageError(f"privacy.hash_key must be hex, got {self.hash_key!r}") from None
        if value == 0:
            raise UsageError("privacy.hash_key must be non-zero")
        return value


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    days: int = 14
    sim: SimConfig = field(default_factory=SimConfig)
    wsm: WsmSettings = field(default_factory=WsmSettings)
    locmodel: LocSettings = field(default_factory=LocSettings)
    privacy: PrivacySettings = field(default_factory=PrivacySettings)
    cli: CliSettings = field(default_factory=CliSettings)

    def __post_init__(self) -> None:
        if self.days < 1:
            raise UsageError(f"days must be >= 1, got {self.days}")


@dataclass(frozen=True)
class Stage:
    """A pipeline stage: its CLI command, the function that runs it and its
    help text. Calling it runs the function and names the stage in errors."""

    command: str
    function: str  # attribute of ``pipeline``, looked up per call so it can be replaced
    help: str

    def __call__(self, config: RunConfig, out: Path | Run):
        from . import pipeline  # numpy and every stage module, only to run one

        try:
            return getattr(pipeline, self.function)(config, out)
        except FoodwatchError as exc:
            raise type(exc)(f"stage {self.command}: {exc}") from exc


# The stages in run order: the CLI's stage commands and ``run``.
STAGES = (
    Stage("simulate", "stage_simulate", "generate the synthetic city dataset"),
    Stage("train-wsm", "stage_train", "weak-label the query stream and train the classifier"),
    Stage("eval-wsm", "stage_eval_wsm", "rater-based evaluation of the trained classifier"),
    Stage("rank", "stage_rank", "score, link, aggregate, release, and emit daily lists"),
    Stage("inspect", "stage_inspect", "simulate inspections for the daily lists"),
    Stage("evaluate", "stage_evaluate", "produce the statistical evaluation tables"),
    Stage("report", "stage_report", "render the text report from the evaluation tables"),
)


def _parse_number(kind: type):
    def parse(raw: str, key: str):
        raw = raw.strip()
        try:
            return kind(raw)
        except ValueError:
            raise UsageError(f"{key}: expected {kind.__name__}, got {raw!r}") from None

    return parse


_parse_int = _parse_number(int)
_parse_float = _parse_number(float)


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise UsageError(f"{key}: expected a boolean, got {raw!r}")


def _parse_cities(raw: str, key: str) -> dict[str, int]:
    cities: dict[str, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise UsageError(f"{key}: expected name:count pairs, got {part!r}")
        name, count = part.split(":", 1)
        cities[name.strip()] = _parse_int(count, key)
    if not cities:
        raise UsageError(f"{key}: no cities given")
    return cities


def _parse_triple(raw: str, key: str) -> tuple[float, float, float]:
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 3:
        raise UsageError(f"{key}: expected three comma-separated numbers")
    return tuple(_parse_float(p, key) for p in parts)  # type: ignore[return-value]


# Field type (as annotated) -> (parse raw text, render a value).
_PARSERS = {
    "int": (_parse_int, str),
    "float": (_parse_float, str),
    "bool": (_parse_bool, str),
    "str": (lambda raw, key: raw.strip(), str),
    "dict[str, int]": (_parse_cities, lambda d: ",".join(f"{k}:{n}" for k, n in sorted(d.items()))),
    "tuple[float, float, float]": (_parse_triple, lambda t: ",".join(str(x) for x in t)),
}


def _settable_keys() -> dict[str, tuple[str | None, str, str]]:
    """Every settable dotted key, in listing order: (section, field, type).

    Top-level fields of ``RunConfig`` with a parser are keys themselves; every
    other field is a settings section whose fields are keys.
    """
    keys: dict[str, tuple[str | None, str, str]] = {}
    for top in fields(RunConfig):
        if top.type in _PARSERS:
            keys[top.name] = (None, top.name, top.type)
            continue
        members = list(fields(top.default_factory))
        if top.name == "sim":
            # numbers alphabetically, then cities and the triples: the order
            # every config hash so far was taken in
            members.sort(key=lambda f: (f.type not in ("int", "float"), f.name))
        for f in members:
            keys[f"{top.name}.{f.name}"] = (top.name, f.name, f.type)
    return keys


_KEYS = _settable_keys()


def set_key(config: RunConfig, key: str, raw: str) -> RunConfig:
    """Apply one dotted key=value assignment, rejecting unknown keys."""
    if key not in _KEYS:
        raise UsageError(f"unknown config key {key!r}")
    section, name, kind = _KEYS[key]
    value = _PARSERS[kind][0](raw, key)
    if section is None:
        return replace(config, **{name: value})
    return replace(config, **{section: replace(getattr(config, section), **{name: value})})


def parse_config_file(path: Path, base: RunConfig | None = None) -> RunConfig:
    config = base or RunConfig()
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        lines = path.read_bytes().splitlines()  # the line ends text mode reads: \n, \r\n and \r
    except OSError as exc:  # a directory, say
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    for lineno, line in enumerate(lines, start=1):
        try:
            stripped = line.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}:{lineno}: not UTF-8 ({exc.reason}, byte {line[exc.start]:#04x})") from None
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, raw = stripped.split("=", 1)
        try:
            config = set_key(config, key.strip(), raw)
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
    return config


def apply_overrides(config: RunConfig, assignments: list[str]) -> RunConfig:
    """CLI ``key=value`` overrides; these win over the config file."""
    for item in assignments:
        if "=" not in item:
            raise UsageError(f"override must be key=value, got {item!r}")
        key, raw = item.split("=", 1)
        config = set_key(config, key.strip(), raw)
    return config


def config_lines(config: RunConfig) -> list[str]:
    """Canonical flat key=value rendering (also documents every known key)."""
    lines = []
    for key, (section, name, kind) in _KEYS.items():
        owner = config if section is None else getattr(config, section)
        lines.append(f"{key}={_PARSERS[kind][1](getattr(owner, name))}")
    return lines


def config_hash(config: RunConfig) -> str:
    payload = "\n".join(config_lines(config)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
