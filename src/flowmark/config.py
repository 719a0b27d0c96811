"""INI experiment configs with strict section and key checking.

Sections are fixed per scenario family ([flow], [watermark], [attack],
[experiment], [sweep]); an unknown section or key is a hard error that
names the offender and its line, because a silently ignored typo in an
experiment config produces results that look fine and are not.  SECTIONS
is the one list of every section's keys and how each value is read.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable

from .errors import ConfigError, FlowmarkError
from .flow_model import EmpiricalModel, FlowModel, PoissonModel

ConfigDict = dict[str, dict[str, str]]


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


def parse_sweep_values(raw: str) -> list[float]:
    """Parse the comma-separated numbers of [sweep] values."""
    values = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(float(item))
        except ValueError:
            raise ConfigError(f"bad sweep value {item!r}") from None
    if not values:
        raise ConfigError("[sweep] values is empty")
    return values


def render_table(table: tuple[tuple[float, float], ...]) -> str:
    return ",".join(f"{t!r}:{p!r}" for t, p in table)


# Every section's keys, each with the function that reads its text.
SECTIONS: dict[str, dict[str, Callable[[str], object]]] = {
    "flow": {"model": str, "rate": float, "table": parse_table, "duration": float},
    "watermark": {
        "T": float, "o": float, "o_max": float, "delta": float,
        "n": int, "key": int, "clear_fraction": float,
    },
    "attack": {"T": float, "delta": float, "o_max": float, "epsilon": float, "quantum": float},
    "experiment": {"trials": int, "k": int, "manifest": str, "method": str},
    "sweep": {"param": str, "values": parse_sweep_values},
}


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
    # No header spells the empty name, so [DEFAULT] is an unknown section like any other.
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="")
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # Some configparser messages span lines; an error message is one line.
        raise ConfigError(f"{origin}: " + re.sub(r"\s*\n\s*", " ", str(exc))) from exc
    out: ConfigDict = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        allowed = SECTIONS[section]
        for key in parser[section]:
            if key not in allowed:
                lineno = _key_line(text, section, key)
                where = f"{origin}:{lineno}" if lineno else origin
                raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
        out[section] = dict(parser[section])
    return out


def load_config(path: str | Path) -> ConfigDict:
    """Read and parse a UTF-8 config file; errors name the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a UTF-8 config") from None
    return parse_config(text, origin=str(path))


def get(cfg: ConfigDict, section: str, key: str, default=MISSING):
    """[section] key read as SECTIONS says; default, if given, when it is absent."""
    if key not in cfg.get(section, {}):
        if default is MISSING:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return default
    raw = cfg[section][key]
    read = SECTIONS[section][key]
    try:
        return read(raw)
    except ValueError:
        kind = "an integer" if read is int else "a number"
        raise ConfigError(f"[{section}] {key} must be {kind}, got {raw!r}") from None


def from_section(cls, cfg: ConfigDict, section: str):
    """Build dataclass cls from the [section] keys named like its fields."""
    kwargs = {f.name: get(cfg, section, f.name, f.default) for f in fields(cls)}
    try:
        return cls(**kwargs)
    except FlowmarkError as exc:
        raise ConfigError(f"bad [{section}] section: {exc}") from exc


def to_section(obj) -> dict[str, str]:
    """Echo a dataclass as {field: repr(value)}, which from_section reads back."""
    return {f.name: repr(getattr(obj, f.name)) for f in fields(obj)}


_MODELS = {"poisson": PoissonModel, "empirical": EmpiricalModel}


def model_from_config(cfg: ConfigDict) -> FlowModel:
    """Build the flow model described by a [flow] section."""
    kind = get(cfg, "flow", "model")
    if kind not in _MODELS:
        raise ConfigError(f"unknown flow model {kind!r}; expected poisson or empirical")
    return from_section(_MODELS[kind], cfg, "flow")


def model_to_section(model: FlowModel) -> dict[str, str]:
    if isinstance(model, PoissonModel):
        return {"model": "poisson"} | to_section(model)
    return {"model": "empirical", "table": render_table(model.table)}
