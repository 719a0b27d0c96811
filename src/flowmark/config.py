"""INI experiment configs with strict section and key checking.

Sections are fixed per scenario family ([flow], [watermark], [attack],
[experiment], [sweep]); an unknown section or key is a hard error that
names the offender and its line, because a silently ignored typo in an
experiment config produces results that look fine and are not.
"""

from __future__ import annotations

import configparser
import re
from pathlib import Path

from .errors import ConfigError, FlowmarkError
from .flow_model import EmpiricalModel, FlowModel, PoissonModel

SECTION_KEYS: dict[str, frozenset[str]] = {
    "flow": frozenset({"model", "rate", "table", "duration"}),
    "watermark": frozenset({"T", "o", "o_max", "delta", "n", "key", "clear_fraction"}),
    "attack": frozenset({"T", "delta", "o_max", "epsilon", "quantum"}),
    "experiment": frozenset({"trials", "k", "manifest", "method"}),
    "sweep": frozenset({"param", "values"}),
}

ConfigDict = dict[str, dict[str, str]]


def _key_line(text: str, section: str, key: str) -> int | None:
    """Line number of a key inside a section, for error messages."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        header = re.match(r"\s*\[([^]]+)\]", line)
        if header:
            current = header.group(1)
            continue
        if current == section and re.match(rf"\s*{re.escape(key)}\s*=", line):
            return lineno
    return None


def parse_config(text: str, origin: str = "<config>") -> ConfigDict:
    """Parse INI text into {section: {key: value}}, rejecting unknown entries."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    out: ConfigDict = {}
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        allowed = SECTION_KEYS[section]
        for key in parser[section]:
            if key not in allowed:
                lineno = _key_line(text, section, key)
                where = f"{origin}:{lineno}" if lineno else origin
                raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
        out[section] = dict(parser[section])
    return out


def load_config(path: str | Path) -> ConfigDict:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), origin=str(path))


def render_config(sections: ConfigDict) -> str:
    """Inverse of parse_config for echoing resolved parameters."""
    chunks = []
    for section, mapping in sections.items():
        lines = [f"[{section}]"]
        lines.extend(f"{key} = {value}" for key, value in mapping.items())
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


_MISSING = object()


def get_value(cfg: ConfigDict, section: str, key: str, default=_MISSING) -> str:
    if section not in cfg or key not in cfg[section]:
        if default is not _MISSING:
            return default
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return cfg[section][key]


def get_float(cfg: ConfigDict, section: str, key: str, default=_MISSING) -> float:
    raw = get_value(cfg, section, key, default)
    if raw is default and default is not _MISSING:
        return raw
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None


def get_int(cfg: ConfigDict, section: str, key: str, default=_MISSING) -> int:
    raw = get_value(cfg, section, key, default)
    if raw is default and default is not _MISSING:
        return raw
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def parse_table(raw: str) -> tuple[tuple[float, float], ...]:
    """Parse 't:p, t:p, ...' into interpolation-table points."""
    points = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            t_text, p_text = item.split(":")
            points.append((float(t_text), float(p_text)))
        except ValueError:
            raise ConfigError(
                f"bad table entry {item!r}; expected '<seconds>:<probability>'"
            ) from None
    if not points:
        raise ConfigError("empirical table must contain at least one point")
    return tuple(points)


def render_table(table: tuple[tuple[float, float], ...]) -> str:
    return ",".join(f"{t!r}:{p!r}" for t, p in table)


def model_from_config(cfg: ConfigDict) -> FlowModel:
    """Build the flow model described by a [flow] section."""
    kind = get_value(cfg, "flow", "model")
    try:
        if kind == "poisson":
            return PoissonModel(rate=get_float(cfg, "flow", "rate"))
        if kind == "empirical":
            return EmpiricalModel(table=parse_table(get_value(cfg, "flow", "table")))
    except ConfigError:
        raise
    except (FlowmarkError, ValueError) as exc:
        raise ConfigError(f"bad [flow] section: {exc}") from exc
    raise ConfigError(f"unknown flow model {kind!r}; expected poisson or empirical")


def model_to_section(model: FlowModel) -> dict[str, str]:
    if isinstance(model, PoissonModel):
        return {"model": "poisson", "rate": repr(model.rate)}
    return {"model": "empirical", "table": render_table(model.table)}
