"""Run configuration: documented defaults, flat key-value config files, and
flag overrides.

Config files hold one ``dotted.key=value`` per line (``#`` starts a comment).
Unknown keys are rejected. Values are coerced to the target field type;
``sim.cities`` uses ``name:count`` pairs separated by commas and the triples
``sim.risk_mix`` / ``sim.unsafe_prob`` use three comma-separated numbers.
Query template pools are code-level defaults and are not settable here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .citysim import SimConfig
from .errors import UsageError

DEFAULT_HASH_KEY_HEX = "6f0d6b65792d746573742d6f6e6c7921"  # test-only default secret


@dataclass(frozen=True)
class WsmSettings:
    dwell_threshold_s: float = 30.0
    neg_ratio: int = 10
    l2: float = 1e-5
    batch_size: int = 256
    epochs: int = 60
    learning_rate: float = 1.0
    threshold: float = 0.5
    eval_size: int = 200


@dataclass(frozen=True)
class LocSettings:
    window_s: int = 259_200
    p_star: float = 0.7
    min_visitors: int = 20
    cutoff: float = 0.03
    agg_window_days: int = 14

    def __post_init__(self) -> None:
        if self.agg_window_days < 1:
            raise UsageError(f"locmodel.agg_window_days must be >= 1, got {self.agg_window_days}")


@dataclass(frozen=True)
class PrivacySettings:
    enabled: bool = True
    epsilon: float = 1.0
    suppress_below: int = 30
    hash_key: str = DEFAULT_HASH_KEY_HEX  # hex-encoded 128-bit secret

    def hash_key_int(self) -> int:
        try:
            value = int(self.hash_key, 16)
        except ValueError:
            raise UsageError(f"privacy.hash_key must be hex, got {self.hash_key!r}") from None
        if value == 0:
            raise UsageError("privacy.hash_key must be non-zero")
        return value


@dataclass(frozen=True)
class CliSettings:
    max_daily_inspections: int = 1  # per city, per day
    cooldown_days: int = 30
    warmup_days: int = 6  # no lists until this much data has accumulated


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    days: int = 14
    sim: SimConfig = field(default_factory=SimConfig)
    wsm: WsmSettings = field(default_factory=WsmSettings)
    locmodel: LocSettings = field(default_factory=LocSettings)
    privacy: PrivacySettings = field(default_factory=PrivacySettings)
    cli: CliSettings = field(default_factory=CliSettings)


_SIM_SCALARS = {
    f.name: f.type
    for f in fields(SimConfig)
    if f.name
    not in (
        "cities",
        "risk_mix",
        "unsafe_prob",
        "positive_templates",
        "positive_modifiers",
        "background_templates",
        "ambiguous_foodborne_templates",
        "ambiguous_other_templates",
        "background_suffixes",
        "localities",
    )
}


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise UsageError(f"{key}: expected a boolean, got {raw!r}")


def _parse_scalar(raw: str, kind: str, key: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _parse_bool(raw, key)
        return raw
    except ValueError:
        raise UsageError(f"{key}: expected {kind}, got {raw!r}") from None


def _parse_cities(raw: str, key: str) -> dict[str, int]:
    cities: dict[str, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise UsageError(f"{key}: expected name:count pairs, got {part!r}")
        name, count = part.split(":", 1)
        cities[name.strip()] = _parse_scalar(count, "int", key)
    if not cities:
        raise UsageError(f"{key}: no cities given")
    return cities


def _parse_triple(raw: str, key: str) -> tuple[float, float, float]:
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 3:
        raise UsageError(f"{key}: expected three comma-separated numbers")
    return tuple(_parse_scalar(p, "float", key) for p in parts)  # type: ignore[return-value]


def set_key(config: RunConfig, key: str, raw: str) -> RunConfig:
    """Apply one dotted key=value assignment, rejecting unknown keys."""
    if key == "seed":
        return replace(config, seed=_parse_scalar(raw, "int", key))
    if key == "days":
        return replace(config, days=_parse_scalar(raw, "int", key))

    if "." not in key:
        raise UsageError(f"unknown config key {key!r}")
    section, name = key.split(".", 1)
    if section == "sim":
        if name == "cities":
            return replace(config, sim=replace(config.sim, cities=_parse_cities(raw, key)))
        if name in ("risk_mix", "unsafe_prob"):
            return replace(config, sim=replace(config.sim, **{name: _parse_triple(raw, key)}))
        if name in _SIM_SCALARS:
            kind = "int" if _SIM_SCALARS[name] in ("int",) else "float"
            return replace(config, sim=replace(config.sim, **{name: _parse_scalar(raw, kind, key)}))
        raise UsageError(f"unknown config key {key!r}")

    section_types = {"wsm": WsmSettings, "locmodel": LocSettings, "privacy": PrivacySettings, "cli": CliSettings}
    if section not in section_types:
        raise UsageError(f"unknown config key {key!r}")
    cls = section_types[section]
    matching = {f.name: f.type for f in fields(cls)}
    if name not in matching:
        raise UsageError(f"unknown config key {key!r}")
    kind = {"int": "int", "float": "float", "bool": "bool", "str": "str"}.get(matching[name], "str")
    value = _parse_scalar(raw, kind, key)
    return replace(config, **{section: replace(getattr(config, section), **{name: value})})


def parse_config_file(path: Path, base: RunConfig | None = None) -> RunConfig:
    config = base or RunConfig()
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
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
    lines = [f"seed={config.seed}", f"days={config.days}"]
    for name in sorted(_SIM_SCALARS):
        lines.append(f"sim.{name}={getattr(config.sim, name)}")
    lines.append("sim.cities=" + ",".join(f"{c}:{n}" for c, n in sorted(config.sim.cities.items())))
    lines.append("sim.risk_mix=" + ",".join(str(x) for x in config.sim.risk_mix))
    lines.append("sim.unsafe_prob=" + ",".join(str(x) for x in config.sim.unsafe_prob))
    for section in ("wsm", "locmodel", "privacy", "cli"):
        obj = getattr(config, section)
        for f in fields(obj):
            lines.append(f"{section}.{f.name}={getattr(obj, f.name)}")
    return lines


def config_hash(config: RunConfig) -> str:
    payload = "\n".join(config_lines(config)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
