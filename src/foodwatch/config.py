"""Run configuration: documented defaults, flat key-value config files, and
flag overrides.

``RunConfig`` holds one settings section per module it configures, each
declared and checked in that module: ``sim`` is ``citysim.SimConfig``,
``wsm`` is ``wsm.WsmSettings``, ``locmodel`` is ``locmodel.LocSettings`` and
``privacy`` is ``privacy.PrivacySettings``; only ``cli`` lives here.

Config files hold one ``dotted.key=value`` per line (``#`` starts a comment).
Unknown keys are rejected. Values are coerced to the target field type;
``sim.cities`` uses ``name:count`` pairs separated by commas and the triples
``sim.risk_mix`` / ``sim.unsafe_prob`` use three comma-separated numbers.
Every field of every settings section is a key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .citysim import SimConfig
from .errors import UsageError
from .locmodel import LocSettings
from .privacy import PrivacySettings
from .wsm import WsmSettings


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
class RunConfig:
    seed: int = 0
    days: int = 14
    sim: SimConfig = field(default_factory=SimConfig)
    wsm: WsmSettings = field(default_factory=WsmSettings)
    locmodel: LocSettings = field(default_factory=LocSettings)
    privacy: PrivacySettings = field(default_factory=PrivacySettings)
    cli: CliSettings = field(default_factory=CliSettings)


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
    lines = []
    for key, (section, name, kind) in _KEYS.items():
        owner = config if section is None else getattr(config, section)
        lines.append(f"{key}={_PARSERS[kind][1](getattr(owner, name))}")
    return lines


def config_hash(config: RunConfig) -> str:
    payload = "\n".join(config_lines(config)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
