"""Register files for simulated I2C devices and the register-map file parser.

A register map is plain UTF-8 text.  The first section lists register
entries, one per line::

    <addr-hex>, <reset-hex>, <mask-hex>     # mask bit = 1 means writable

The second section binds named functional fields to bit ranges::

    <field-name> = <addr-hex>[<msb>:<lsb>]

``#`` starts a comment anywhere.  Addresses not listed in the entry section
default to reset 0x00 with a fully writable mask.

Parameters wider than one register are stored little-endian across a run of
fields named ``<base>_b0`` (least significant) .. ``<base>_bN``;
:meth:`RegisterMap.pack` and :meth:`RegisterMap.unpack` accept either a
plain field name or such a composite base name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import RegisterMapError

REGISTER_COUNT = 256

_ENTRY_RE = re.compile(
    r"^(0[xX][0-9a-fA-F]+|\d+)\s*,\s*(0[xX][0-9a-fA-F]+|\d+)\s*,\s*(0[xX][0-9a-fA-F]+|\d+)$"
)
_FIELD_RE = re.compile(
    r"^([A-Za-z_]\w*)\s*=\s*(0[xX][0-9a-fA-F]+|\d+)\s*\[\s*(\d+)\s*:\s*(\d+)\s*\]$"
)


@dataclass(frozen=True)
class BitField:
    """A named bit range inside one register."""

    name: str
    address: int
    msb: int
    lsb: int

    def __post_init__(self):
        if not 0 <= self.address < REGISTER_COUNT:
            raise ValueError(f"field {self.name}: address {self.address} outside 0..255")
        if not 0 <= self.lsb <= self.msb <= 7:
            raise ValueError(f"field {self.name}: bad bit range [{self.msb}:{self.lsb}]")

    @property
    def width(self) -> int:
        return self.msb - self.lsb + 1

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.lsb

    def extract(self, register_value: int) -> int:
        return (register_value & self.mask) >> self.lsb

    def place(self, field_value: int) -> int:
        return (field_value << self.lsb) & self.mask


@dataclass(frozen=True)
class MapEntry:
    address: int
    reset: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.address < REGISTER_COUNT:
            raise ValueError(f"address 0x{self.address:X} out of range")
        if not (0 <= self.reset <= 0xFF and 0 <= self.mask <= 0xFF):
            raise ValueError("reset/mask must fit one byte")


class RegisterMap:
    """Immutable register-map: entries plus the named-field index."""

    def __init__(self, entries: Iterable[MapEntry], fields: Iterable[BitField]):
        self.entries: dict[int, MapEntry] = {}
        for entry in entries:
            if entry.address in self.entries:
                raise RegisterMapError(f"duplicate register address 0x{entry.address:02X}")
            self.entries[entry.address] = entry
        self.fields: dict[str, BitField] = {}
        for field in fields:
            if field.name in self.fields:
                raise RegisterMapError(f"duplicate field name {field.name}")
            self.fields[field.name] = field
        self._validate()

    def _validate(self) -> None:
        # exhaustive bit-overlap scan over (address, bit) space
        occupied: dict[int, int] = {}
        for field in self.fields.values():
            if field.address not in self.entries:
                raise RegisterMapError(
                    f"field {field.name} refers to address 0x{field.address:02X} "
                    "missing from the entry section"
                )
            if occupied.get(field.address, 0) & field.mask:
                raise RegisterMapError(
                    f"field {field.name} overlaps another field at 0x{field.address:02X}"
                )
            occupied[field.address] = occupied.get(field.address, 0) | field.mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegisterMap):
            return NotImplemented
        return self.entries == other.entries and self.fields == other.fields

    def reset_value(self, address: int) -> int:
        entry = self.entries.get(address)
        return entry.reset if entry else 0x00

    def write_mask(self, address: int) -> int:
        entry = self.entries.get(address)
        return entry.mask if entry else 0xFF

    def field(self, name: str) -> BitField:
        try:
            return self.fields[name]
        except KeyError:
            raise RegisterMapError(f"unknown field {name}") from None

    def group(self, name: str) -> list[BitField]:
        """Resolve a field name or composite base name, least significant first."""
        if name in self.fields:
            return [self.fields[name]]
        parts = []
        while f"{name}_b{len(parts)}" in self.fields:
            parts.append(self.fields[f"{name}_b{len(parts)}"])
        if not parts:
            raise RegisterMapError(f"unknown field {name}")
        return parts

    def pack(self, name: str, value: int) -> list[tuple[int, int, int]]:
        """Split ``value`` into (address, placed-bits, bit-mask) register writes."""
        parts = self.group(name)
        total = sum(f.width for f in parts)
        if not 0 <= value < (1 << total):
            raise ValueError(f"value {value} does not fit {total}-bit field {name}")
        writes = []
        offset = 0
        for field in parts:
            chunk = (value >> offset) & ((1 << field.width) - 1)
            writes.append((field.address, field.place(chunk), field.mask))
            offset += field.width
        return writes

    def unpack(self, name: str, read: Callable[[int], int]) -> int:
        """Assemble a field or composite value using ``read(address)``."""
        value = 0
        offset = 0
        for field in self.group(name):
            value |= field.extract(read(field.address)) << offset
            offset += field.width
        return value

    def serialize(self) -> str:
        lines = ["# register entries: address, reset value, write mask"]
        for entry in self.entries.values():
            lines.append(f"0x{entry.address:02X}, 0x{entry.reset:02X}, 0x{entry.mask:02X}")
        if self.fields:
            lines.append("")
            lines.append("# named fields: name = address[msb:lsb]")
            for field in self.fields.values():
                lines.append(f"{field.name} = 0x{field.address:02X}[{field.msb}:{field.lsb}]")
        return "\n".join(lines) + "\n"

    @classmethod
    def empty(cls) -> "RegisterMap":
        """A map with no entries: every register resets to 0x00, fully writable."""
        return cls((), ())


def parse_register_map(text: str) -> RegisterMap:
    """Parse register-map text.  Raises :class:`RegisterMapError` with the
    offending line number on any syntax or validation problem."""
    entries: list[MapEntry] = []
    fields: list[BitField] = []
    seen_addresses: set[int] = set()
    seen_names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            match = _FIELD_RE.match(line)
            if not match:
                raise RegisterMapError(f"bad field binding: {line!r}", line=lineno)
            name, addr_s, msb_s, lsb_s = match.groups()
            field = _construct(BitField, lineno, name, int(addr_s, 0),
                               int(msb_s), int(lsb_s))
            if name in seen_names:
                raise RegisterMapError(f"duplicate field name {name}", line=lineno)
            seen_names.add(name)
            fields.append(field)
        elif "," in line:
            match = _ENTRY_RE.match(line)
            if not match:
                raise RegisterMapError(f"bad register entry: {line!r}", line=lineno)
            entry = _construct(MapEntry, lineno, *(int(s, 0) for s in match.groups()))
            if entry.address in seen_addresses:
                raise RegisterMapError(
                    f"duplicate register address 0x{entry.address:02X}", line=lineno
                )
            seen_addresses.add(entry.address)
            entries.append(entry)
        else:
            raise RegisterMapError(f"unrecognized line: {line!r}", line=lineno)
    return RegisterMap(entries, fields)


def _construct(cls, lineno: int, *args):
    """``cls(*args)``, with its range check reported against ``lineno``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise RegisterMapError(str(exc), line=lineno) from None


class RegisterFile:
    """256 x 8-bit register space with per-register write masks.

    Writes follow masked-update semantics: only bits with mask = 1 change,
    read-only bits are silently preserved (the wire protocol has no error
    channel to report them).  Reads are total over 0..255.
    """

    __slots__ = ("_values", "_masks", "_resets")

    def __init__(self, resets: Iterable[int] | None = None, masks: Iterable[int] | None = None):
        self._resets = list(resets) if resets is not None else [0x00] * REGISTER_COUNT
        self._masks = list(masks) if masks is not None else [0xFF] * REGISTER_COUNT
        if len(self._resets) != REGISTER_COUNT or len(self._masks) != REGISTER_COUNT:
            raise ValueError("register file needs exactly 256 resets and masks")
        self._values = list(self._resets)

    @classmethod
    def from_map(cls, regmap: RegisterMap) -> "RegisterFile":
        resets = [regmap.reset_value(a) for a in range(REGISTER_COUNT)]
        masks = [regmap.write_mask(a) for a in range(REGISTER_COUNT)]
        return cls(resets, masks)

    @staticmethod
    def _check(address: int) -> None:
        if not 0 <= address < REGISTER_COUNT:
            raise ValueError(f"register address {address} outside 0..255")

    def read(self, address: int) -> int:
        self._check(address)
        return self._values[address]

    def write(self, address: int, value: int) -> None:
        self._check(address)
        if not 0 <= value <= 0xFF:
            raise ValueError(f"register value {value} outside 0..255")
        mask = self._masks[address]
        old = self._values[address]
        self._values[address] = (old & ~mask) | (value & mask)

    def reset(self) -> None:
        self._values = list(self._resets)

    def snapshot(self) -> bytes:
        return bytes(self._values)
