"""Campaign configuration: one JSON file drives simulate/fit/series/kb.

The fields of ``CampaignConfig``, in order, are the file schema: a field
``transition_<key>`` or ``scan_<key>`` is ``<key>`` of the nested object
``transition`` or ``scan``, and its type picks the reader of its JSON value
(``_CONVERTERS``, which ``config_from_dict`` and ``to_dict`` walk).  The
defaults are the library's: ``CampaignConfig()`` builds ``Transition.nh3()``,
``ScanConfig()`` and ``GasConditions(p)``.

Validation is strict: unknown keys anywhere are rejected so a typo cannot
silently fall back to a default, and every value must have its JSON type
(numbers, integers that are not booleans, a list of pressures, objects for
``transition`` and ``scan``), checked by the ``json_*`` readers that every
JSON record of the package goes through.  ``snr: null`` means noiseless.
Values are then checked by the objects the pipeline builds from them, listed
in ``CampaignConfig.__post_init__``, so a config that loads is one those
objects accept; the Doppler width they give must also lie between the scan's
step and span, or the scan could not resolve the line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import constants
from .absorption import HyperfineStructure
from .boltzmann import TemperatureReading, uncertainty_budget
from .errors import DataError, read_text
from .lineshape import Transition, doppler_width
from .simulator import (
    DEFAULT_ABSORPTION_DEPTH_PA,
    DEFAULT_CELL_LENGTH_M,
    DEFAULT_PRESSURE_BROADENING_MHZ_PA,
    GasConditions,
    ScanConfig,
)
from .spectra import SpectrumMeta


@dataclass(frozen=True)
class CampaignConfig:
    transition_label: str = constants.NH3_LINE_LABEL
    transition_nu0_mhz: float = constants.NH3_LINE_FREQ_MHZ
    transition_mass_u: float = constants.NH3_MASS_U
    scan_span_mhz: float = ScanConfig.span_mhz
    scan_step_mhz: float = ScanConfig.step_mhz
    pressures_pa: tuple = (0.2, 0.6, 1.2, 2.0, 3.2, 5.0, 7.5, 10.0)
    replicas: int = 1
    snr: float = ScanConfig.snr  # math.inf = noiseless
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

    def __post_init__(self):
        if len(self.pressures_pa) == 0:
            raise DataError("config: pressures_pa must not be empty")
        if self.replicas < 1:
            raise DataError("config: replicas must be >= 1")
        reading = partial(TemperatureReading, self.temperature_k, self.temperature_sigma_k)

        def width():
            return doppler_width(self.transition(), self.temperature_k, self.kb_true)

        builds = {"transition": self.transition, "scan": self.scan, "temperature reading": reading,
                  "kb_true": width, "Doppler width": lambda: self._within_scan(width()),
                  "uncertainty budget": lambda: uncertainty_budget(
                      width(), 0.0, self.transition(), reading(),
                      mass_sigma_rel=self.mass_sigma_rel, nu_sigma_rel=self.nu_sigma_rel),
                  "hyperfine_file": self.hyperfine,
                  "spectrum header": lambda: SpectrumMeta(
                      self.transition_label, self.transition_nu0_mhz, self.temperature_k,
                      self.temperature_sigma_k, self.pressures_pa[0], self.cell_length_m,
                      self.snr, self.seed),
                  "seed": partial(np.random.SeedSequence, self.seed)}
        builds.update((f"gas conditions at pressures_pa[{i}]", partial(self.conditions, p))
                      for i, p in enumerate(self.pressures_pa))
        for what, build in builds.items():
            try:
                build()
            except (ValueError, DataError) as exc:
                raise DataError(f"config: {what}: {exc}") from None

    def _within_scan(self, width_mhz: float) -> None:
        """Refuse a Doppler width the scan cannot resolve: narrower than its
        step or wider than its span."""
        if not (self.scan_step_mhz <= width_mhz <= self.scan_span_mhz):
            raise ValueError(f"{width_mhz:.6g} MHz at temperature_k = {self.temperature_k} K "
                             f"is outside the scan's step ({self.scan_step_mhz} MHz) to span "
                             f"({self.scan_span_mhz} MHz)")

    def transition(self) -> Transition:
        return Transition(self.transition_nu0_mhz, self.transition_mass_u, self.transition_label)

    def scan(self) -> ScanConfig:
        return ScanConfig(
            span_mhz=self.scan_span_mhz,
            step_mhz=self.scan_step_mhz,
            snr=self.snr,
        )

    def hyperfine(self) -> HyperfineStructure | None:
        path = self.hyperfine_file
        return None if path is None else HyperfineStructure.from_file(path)

    def conditions(self, pressure_pa: float) -> GasConditions:
        return GasConditions(
            pressure_pa=pressure_pa,
            temperature_k=self.temperature_k,
            pressure_broadening_mhz_per_pa=self.pressure_broadening_mhz_per_pa,
            absorption_depth_per_pa=self.absorption_depth_per_pa,
        )

    def to_dict(self) -> dict:
        """JSON-ready dict in the layout of the file (None stands in for an
        infinite snr)."""
        raw: dict = {}
        for key in _CONVERTERS:
            outer, _, name = key.rpartition(".")
            value = getattr(self, key.replace(".", "_"))
            if isinstance(value, tuple):
                value = list(value)
            elif key == "snr" and math.isinf(value):
                value = None
            (raw.setdefault(outer, {}) if outer else raw)[name] = value
        return raw


def json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return float(value)


def json_integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def json_text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _pressures(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError("expected a list of numbers")
    return tuple(json_number(p) for p in value)


_READERS = {float: json_number, int: json_integer, str: json_text, tuple: _pressures,
            str | None: lambda v: None if v is None else json_text(v)}
_OBJECTS = ("transition", "scan")

# Every config key with its reader, in file order.  The CampaignConfig field
# of a key is its name with the dot replaced by "_".
_CONVERTERS = {(field.replace("_", ".", 1) if field.split("_")[0] in _OBJECTS else field):
               _READERS[kind] for field, kind in get_type_hints(CampaignConfig).items()}
_CONVERTERS["snr"] = lambda v: math.inf if v is None else json_number(v)


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
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if isinstance(raw, dict) and isinstance(raw.get("hyperfine_file"), str):
        # relative to the config file; the resolved path is what manifests record
        raw["hyperfine_file"] = str(Path(path).parent / raw["hyperfine_file"])
    return config_from_dict(raw)
