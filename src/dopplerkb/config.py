"""Campaign configuration: one JSON file drives simulate/fit/series/kb.

Validation is strict: unknown keys anywhere are rejected so a typo cannot
silently fall back to a default, and every value must have its JSON type
(numbers, integers that are not booleans, a list of pressures, objects for
``transition`` and ``scan``).  ``snr: null`` means noiseless.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import constants
from .errors import DataError
from .lineshape import Transition
from .simulator import (
    DEFAULT_ABSORPTION_DEPTH_PA,
    DEFAULT_CELL_LENGTH_M,
    DEFAULT_PRESSURE_BROADENING_MHZ_PA,
    GasConditions,
    ScanConfig,
)


@dataclass(frozen=True)
class CampaignConfig:
    pressures_pa: tuple = (0.2, 0.6, 1.2, 2.0, 3.2, 5.0, 7.5, 10.0)
    replicas: int = 1
    snr: float = 1000.0  # math.inf = noiseless
    seed: int = 20061215
    temperature_k: float = constants.CELL_TEMPERATURE_K
    temperature_sigma_k: float = constants.CELL_TEMPERATURE_SIGMA_K
    pressure_broadening_mhz_per_pa: float = DEFAULT_PRESSURE_BROADENING_MHZ_PA
    absorption_depth_per_pa: float = DEFAULT_ABSORPTION_DEPTH_PA
    cell_length_m: float = DEFAULT_CELL_LENGTH_M
    kb_true: float = constants.KB_CODATA_2002
    mass_sigma_rel: float = constants.MASS_SIGMA_REL_DEFAULT
    nu_sigma_rel: float = constants.FREQUENCY_SIGMA_REL_DEFAULT
    hyperfine_file: str | None = None
    transition_label: str = constants.NH3_LINE_LABEL
    transition_nu0_mhz: float = constants.NH3_LINE_FREQ_MHZ
    transition_mass_u: float = constants.NH3_MASS_U
    scan_span_mhz: float = 250.0
    scan_step_mhz: float = 0.5
    scan_time_constant_ms: float = 20.0

    def __post_init__(self):
        if len(self.pressures_pa) == 0:
            raise DataError("config: pressures_pa must not be empty")
        if self.replicas < 1:
            raise DataError("config: replicas must be >= 1")
        if not (self.snr > 0):
            raise DataError("config: snr must be positive or null for noiseless")

    def transition(self) -> Transition:
        return Transition.from_mass_u(
            self.transition_nu0_mhz, self.transition_mass_u, self.transition_label
        )

    def scan(self) -> ScanConfig:
        return ScanConfig(
            span_mhz=self.scan_span_mhz,
            step_mhz=self.scan_step_mhz,
            time_constant_ms=self.scan_time_constant_ms,
            snr=self.snr,
        )

    def conditions(self, pressure_pa: float) -> GasConditions:
        return GasConditions(
            pressure_pa=pressure_pa,
            temperature_k=self.temperature_k,
            pressure_broadening_mhz_per_pa=self.pressure_broadening_mhz_per_pa,
            absorption_depth_per_pa=self.absorption_depth_per_pa,
        )

    def to_dict(self) -> dict:
        """JSON-ready dict (None stands in for an infinite snr)."""
        return {
            "transition": {
                "label": self.transition_label,
                "nu0_mhz": self.transition_nu0_mhz,
                "mass_u": self.transition_mass_u,
            },
            "scan": {
                "span_mhz": self.scan_span_mhz,
                "step_mhz": self.scan_step_mhz,
                "time_constant_ms": self.scan_time_constant_ms,
            },
            "pressures_pa": list(self.pressures_pa),
            "replicas": self.replicas,
            "snr": None if math.isinf(self.snr) else self.snr,
            "seed": self.seed,
            "temperature_k": self.temperature_k,
            "temperature_sigma_k": self.temperature_sigma_k,
            "pressure_broadening_mhz_per_pa": self.pressure_broadening_mhz_per_pa,
            "absorption_depth_per_pa": self.absorption_depth_per_pa,
            "cell_length_m": self.cell_length_m,
            "kb_true": self.kb_true,
            "mass_sigma_rel": self.mass_sigma_rel,
            "nu_sigma_rel": self.nu_sigma_rel,
            "hyperfine_file": self.hyperfine_file,
        }


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _pressures(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError("expected a list of numbers")
    return tuple(_number(p) for p in value)


# Every config key with its converter; a nested key is "<object>.<key>".  The
# CampaignConfig field of a key is its name with the dot replaced by "_".
_CONVERTERS = {
    "transition.label": _text,
    "transition.nu0_mhz": _number,
    "transition.mass_u": _number,
    "scan.span_mhz": _number,
    "scan.step_mhz": _number,
    "scan.time_constant_ms": _number,
    "pressures_pa": _pressures,
    "replicas": _integer,
    "snr": lambda v: math.inf if v is None else _number(v),
    "seed": _integer,
    "temperature_k": _number,
    "temperature_sigma_k": _number,
    "pressure_broadening_mhz_per_pa": _number,
    "absorption_depth_per_pa": _number,
    "cell_length_m": _number,
    "kb_true": _number,
    "mass_sigma_rel": _number,
    "nu_sigma_rel": _number,
    "hyperfine_file": lambda v: None if v is None else _text(v),
}
_OBJECTS = {key.split(".")[0] for key in _CONVERTERS if "." in key}


def config_from_dict(raw: dict) -> CampaignConfig:
    if not isinstance(raw, dict):
        raise DataError("config: top level must be a JSON object")
    flat = {}
    for key, value in raw.items():
        if key not in _OBJECTS:
            flat[key] = value
        elif isinstance(value, dict):
            flat.update((f"{key}.{inner}", v) for inner, v in value.items())
        else:
            raise DataError(f"config: {key!r} must be a JSON object, got {value!r}")
    unknown = set(flat) - set(_CONVERTERS)
    if unknown:
        raise DataError(f"config: unknown key(s): {', '.join(sorted(unknown))}")

    kwargs = {}
    for key, value in flat.items():
        try:
            kwargs[key.replace(".", "_")] = _CONVERTERS[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"config: bad value for {key!r}: {value!r} ({exc})") from None
    return CampaignConfig(**kwargs)


def load_config(path) -> CampaignConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(raw)
