"""Serializable analysis configuration shared by all CLI commands.

A config fully determines an analysis: feeding the same config and the
same input files to any command reproduces its reports byte for byte.
The settings are the fields of ``AnalysisConfig`` and of its sections,
``TokenizerConfig`` and ``RegressionSpec``; the JSON form mirrors them, and
each dataclass validates its own fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

from .corpus import TokenizerConfig
from .errors import InputError
from .metrics import SCORE_MODES
from .regression import RegressionSpec

OUTPUT_FORMATS = ("csv", "json", "markdown")


@dataclass(frozen=True)
class AnalysisConfig:
    tokenizer: TokenizerConfig = TokenizerConfig()
    min_n: int = 4
    eq1_mode: str = "all_ngrams"
    abstractiveness_ns: tuple[int, ...] = (1, 2, 3, 4)
    regression: RegressionSpec = RegressionSpec()
    output_dir: str = "reports"
    output_formats: tuple[str, ...] = OUTPUT_FORMATS

    def __post_init__(self):
        if not _is_int(self.min_n) or self.min_n < 1:
            raise ValueError(f"min_n must be an integer >= 1, got {self.min_n!r}")
        if self.eq1_mode not in SCORE_MODES:
            raise ValueError(f"eq1_mode must be one of {SCORE_MODES}, got {self.eq1_mode!r}")
        ns = self.abstractiveness_ns
        if not isinstance(ns, tuple) or not ns or not all(_is_int(n) and n >= 1 for n in ns):
            raise ValueError(
                f"abstractiveness_ns must be a non-empty list of integers >= 1, got {ns!r}"
            )
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        if "\0" in self.output_dir:
            raise ValueError(f"output_dir must not hold a NUL character, got {self.output_dir!r}")
        if not isinstance(self.output_formats, tuple) or not self.output_formats:
            raise ValueError(
                f"output_formats must be a non-empty list, got {self.output_formats!r}"
            )
        unknown = [f for f in self.output_formats if f not in OUTPUT_FORMATS]
        if unknown:
            raise ValueError(f"unknown output format(s): {unknown}; choose from {OUTPUT_FORMATS}")
        for name in ("abstractiveness_ns", "output_formats"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat an entry, got {list(values)!r}")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["output_formats"] = sorted(self.output_formats)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        """Build a config from its JSON form, as ``to_dict`` or a config
        file gives it. Missing keys take their defaults; unknown keys and
        wrongly typed values raise ``ValueError``."""
        try:
            kwargs = _kwargs(cls, data, "config")
            # a field whose default is a dataclass is a nested section
            for f in fields(cls):
                if f.name in data and is_dataclass(f.default):
                    section = type(f.default)
                    kwargs[f.name] = section(**_kwargs(section, data[f.name], f.name))
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid config: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _kwargs(cls, data, where: str) -> dict:
    """Keyword arguments for ``cls`` from a JSON object; lists become tuples."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(k for k in data if k not in known)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}


def load_config(path: str | Path) -> AnalysisConfig:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot open config: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: config is not valid UTF-8") from exc
    except (ValueError, RecursionError) as exc:  # also huge ints, deep nests
        raise InputError(f"{path}: invalid JSON in config: {getattr(exc, 'msg', exc)}") from exc
    try:
        return AnalysisConfig.from_dict(data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
