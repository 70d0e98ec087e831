"""Key = value configuration files and access to the packaged register maps.

One file carries both the planner constraint parameters and the supply-rail
models.  Lines look like::

    f_in_hz = 25000000
    rail0_pot_address = 0x2C
    rail0_v_default = 3.3

``#`` starts a comment.  Unknown keys are rejected (they are almost always
typos), and so is a key set twice or a rail id written with a leading
zero, since either would let one line silently override another.  Omitted
keys keep the compiled-in defaults (:class:`PlannerConstraints`,
:data:`DEFAULT_SYNTH_ADDRESS`, the five default rails); any rail key
replaces the default rails.  :class:`StackConfig` checks the
whole-configuration rules.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache

from .errors import ConfigError, InfeasibleVoltageError
from .planner import PlannerConstraints, as_fraction
from .power import RailModel, plan_voltage
from .registers import RegisterMap, parse_register_map
from .value import Value, setfield

DEFAULT_SYNTH_ADDRESS = 0x70
DEFAULT_TCP_PORT = 53380


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}", line=lineno) from None


def _parse_fraction(text: str, lineno: int) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a number, got {text!r}", line=lineno) from None


# constraint keys: config name -> (PlannerConstraints field, parser)
_CONSTRAINT_KEYS = {
    "f_in_hz": ("f_in", _parse_fraction),
    "vco_min_hz": ("vco_min", _parse_fraction),
    "vco_max_hz": ("vco_max", _parse_fraction),
    "fb_int_min": ("fb_int_min", _parse_int),
    "fb_int_max": ("fb_int_max", _parse_int),
    "ms_int_min": ("ms_int_min", _parse_int),
    "ms_int_max": ("ms_int_max", _parse_int),
    "max_denominator": ("max_denominator", _parse_int),
    "phase_step_limit": ("phase_step_limit", _parse_int),
    "f_out_min_hz": ("f_out_min", _parse_fraction),
    "f_out_max_hz": ("f_out_max", _parse_fraction),
}

_RAIL_KEYS = {
    "pot_address": _parse_int,
    "pot_channel": _parse_int,
    "v_ref": _parse_fraction,
    "r_fixed": _parse_fraction,
    "r_ab": _parse_fraction,
    "r_wiper": _parse_fraction,
    "v_default": _parse_fraction,
}

_DEFAULT_RAIL_PLAN = (
    # rail_id, pot_address, pot_channel, v_default
    (0, 0x2C, 0, "3.3"),
    (1, 0x2C, 1, "3.3"),
    (2, 0x2C, 2, "2.5"),
    (3, 0x2C, 3, "2.5"),
    (4, 0x2D, 0, "1.8"),
)


class StackConfig(Value):
    """Everything the host stack and the simulator share.

    Building one checks the rules that span the whole configuration: a
    reference ``f_in`` inside its window, a 7-bit synthesizer address, unique
    rail ids, one rail per pot slot, no pot on the synthesizer's address,
    and a ``v_default`` each rail can be planned to, as boot programs it.
    A broken rule raises ``ValueError``.
    """

    def __init__(self, constraints: PlannerConstraints, rails: tuple[RailModel, ...],
                 synth_address: int = DEFAULT_SYNTH_ADDRESS):
        setfield(self, "constraints", constraints)
        setfield(self, "rails", rails)
        setfield(self, "synth_address", synth_address)
        cons = self.constraints
        if not cons.f_in_min <= cons.f_in <= cons.f_in_max:
            raise ValueError(f"f_in {cons.f_in} Hz outside the reference window "
                             f"[{cons.f_in_min}, {cons.f_in_max}] Hz")
        if not 0 <= self.synth_address <= 0x7F:
            raise ValueError(f"synth_address 0x{self.synth_address:X} outside 7-bit range")
        ids, slots = set(), set()
        for rail in self.rails:
            slot = (rail.pot_address, rail.pot_channel)
            if rail.rail_id in ids:
                raise ValueError(f"rail {rail.rail_id} is configured twice")
            if slot in slots:
                raise ValueError(f"two rails share pot 0x{slot[0]:02X} channel {slot[1]}")
            if rail.pot_address == self.synth_address:
                raise ValueError(f"rail {rail.rail_id}: pot shares the synthesizer's "
                                 f"i2c address 0x{self.synth_address:02X}")
            try:
                plan_voltage(rail, rail.v_default)
            except (InfeasibleVoltageError, ValueError) as exc:
                raise ValueError(f"rail {rail.rail_id}: v_default does not plan ({exc})"
                                 ) from None
            ids.add(rail.rail_id)
            slots.add(slot)

    def rail(self, rail_id: int) -> RailModel:
        for rail in self.rails:
            if rail.rail_id == rail_id:
                return rail
        raise ConfigError(f"rail {rail_id} is not configured")


def default_rails() -> tuple[RailModel, ...]:
    return tuple(
        RailModel(rail_id=rid, pot_address=addr, pot_channel=ch,
                  v_default=Fraction(vd))
        for rid, addr, ch, vd in _DEFAULT_RAIL_PLAN
    )


@cache
def default_config() -> StackConfig:
    """The compiled-in configuration, built and checked once: it never
    changes, and checking its rails plans each one's default."""
    return StackConfig(constraints=PlannerConstraints(), rails=default_rails())


def parse_config(text: str) -> StackConfig:
    """Parse configuration text into a :class:`StackConfig`."""
    constraint_values: dict[str, object] = {}
    rail_values: dict[int, dict[str, object]] = {}
    synth_address = DEFAULT_SYNTH_ADDRESS
    seen: dict[str, int] = {}  # key -> line that set it

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ConfigError(f"missing value for {key}", line=lineno)
        if key in seen:
            raise ConfigError(f"{key} is already set on line {seen[key]}", line=lineno)
        seen[key] = lineno
        if key == "synth_address":
            synth_address = _parse_int(value, lineno)
            continue
        if key in _CONSTRAINT_KEYS:
            field, parser = _CONSTRAINT_KEYS[key]
            constraint_values[field] = parser(value, lineno)
            continue
        if key.startswith("rail"):
            head, _, param = key.partition("_")
            digits = head[4:]
            if param in _RAIL_KEYS and digits.isascii() and digits.isdigit():
                if digits != str(int(digits)):
                    # rail01_* would silently alias rail1_*
                    raise ConfigError(f"rail id {digits} has a leading zero",
                                      line=lineno)
                rail_id = int(digits)
                rail_values.setdefault(rail_id, {})[param] = \
                    _RAIL_KEYS[param](value, lineno)
                continue
        raise ConfigError(f"unknown key {key!r}", line=lineno)

    rails = []
    for rail_id in sorted(rail_values):
        try:
            rails.append(RailModel(rail_id=rail_id, **rail_values[rail_id]))
        except ValueError as exc:
            raise ConfigError(f"rail {rail_id}: {exc}") from exc
    try:
        return StackConfig(constraints=PlannerConstraints(**constraint_values),
                           rails=tuple(rails) or default_rails(),
                           synth_address=synth_address)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read(path: str | os.PathLike) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _packaged(name: str) -> str:
    return _read(os.path.join(os.path.dirname(__file__), "data", name))


def load_config(path: str | os.PathLike | None = None) -> StackConfig:
    """Load a config file, or :func:`default_config` when ``path`` is None."""
    return parse_config(_read(path)) if path else default_config()


def load_synth_map(path: str | os.PathLike | None = None) -> RegisterMap:
    """Load a synthesizer register map, defaulting to the shipped one."""
    return parse_register_map(_read(path) if path else _packaged("synth.map"))


def load_pot_map() -> RegisterMap:
    """Load the shipped pot register map."""
    return parse_register_map(_packaged("pot.map"))
