"""Register files for simulated I2C devices and the register-map file parser.

A register map is plain UTF-8 text.  The first section lists register
entries, one per line::

    <addr-hex>, <reset-hex>, <mask-hex>     # mask bit = 1 means writable

The second section binds named functional fields to bit ranges::

    <field-name> = <addr-hex>[<msb>:<lsb>]

``#`` starts a comment anywhere.  Addresses not listed in the entry section
default to reset 0x00 with a fully writable mask.

Parameters wider than one register are stored little-endian across a run of
fields named ``<base>_b0`` (least significant) .. ``<base>_bN``, up to the
first missing index; :meth:`RegisterMap.pack` and :meth:`RegisterMap.unpack`
accept either a plain field name or such a composite base name.  A plain
field of the same name as a base wins.  Each name's layout is resolved once,
when the map is built.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable

from .errors import RegisterMapError
from .value import Value, setfield

REGISTER_COUNT = 256

_ENTRY_RE = re.compile(
    r"^(0[xX][0-9a-fA-F]+|\d+)\s*,\s*(0[xX][0-9a-fA-F]+|\d+)\s*,\s*(0[xX][0-9a-fA-F]+|\d+)$"
)
_FIELD_RE = re.compile(
    r"^([A-Za-z_]\w*)\s*=\s*(0[xX][0-9a-fA-F]+|\d+)\s*\[\s*(\d+)\s*:\s*(\d+)\s*\]$"
)


class BitField(Value):
    """A named bit range inside one register."""

    def __init__(self, name: str, address: int, msb: int, lsb: int):
        if not 0 <= address < REGISTER_COUNT:
            raise ValueError(f"field {name}: address {address} outside 0..255")
        if not 0 <= lsb <= msb <= 7:
            raise ValueError(f"field {name}: bad bit range [{msb}:{lsb}]")
        setfield(self, "name", name)
        setfield(self, "address", address)
        setfield(self, "msb", msb)
        setfield(self, "lsb", lsb)

    @property
    def width(self) -> int:
        return self.msb - self.lsb + 1

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.lsb


class MapEntry(Value):
    def __init__(self, address: int, reset: int, mask: int):
        if not 0 <= address < REGISTER_COUNT:
            raise ValueError(f"address 0x{address:X} out of range")
        if not (0 <= reset <= 0xFF and 0 <= mask <= 0xFF):
            raise ValueError("reset/mask must fit one byte")
        setfield(self, "address", address)
        setfield(self, "reset", reset)
        setfield(self, "mask", mask)


# where one field or composite lives, least significant part first:
# (fields, total bits, parts), each part (address, mask, lsb, offset)
_Layout = tuple[tuple[BitField, ...], int, tuple[tuple[int, int, int, int], ...]]


def _resolve(fields: tuple[BitField, ...]) -> _Layout:
    parts = []
    offset = 0
    for field in fields:
        parts.append((field.address, field.mask, field.lsb, offset))
        offset += field.width
    return fields, offset, tuple(parts)


class RegisterMap:
    """Immutable register-map: entries, the named-field index, and the
    layout of every field and composite name."""

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
        self._layouts = {name: _resolve((f,)) for name, f in self.fields.items()}
        for name in self.fields:
            base = name[:-3]
            if name.endswith("_b0") and base not in self._layouts:
                run = []
                while f"{base}_b{len(run)}" in self.fields:
                    run.append(self.fields[f"{base}_b{len(run)}"])
                self._layouts[base] = _resolve(tuple(run))

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

    def _layout(self, name: str) -> _Layout:
        try:
            return self._layouts[name]
        except KeyError:
            raise RegisterMapError(f"unknown field {name}") from None

    def group(self, name: str) -> tuple[BitField, ...]:
        """Resolve a field name or composite base name, least significant first."""
        return self._layout(name)[0]

    def pack(self, name: str, value: int) -> list[tuple[int, int, int]]:
        """Split ``value`` into (address, placed-bits, bit-mask) register writes."""
        _, width, parts = self._layout(name)
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit {width}-bit field {name}")
        return [(address, (value >> offset << lsb) & mask, mask)
                for address, mask, lsb, offset in parts]

    def unpack(self, name: str, read: Callable[[int], int]) -> int:
        """Assemble a field or composite value using ``read(address)``."""
        value = 0
        for address, mask, lsb, offset in self._layout(name)[2]:
            value |= (read(address) & mask) >> lsb << offset
        return value


def parse_register_map(text: str) -> RegisterMap:
    """Parse register-map text.  Raises :class:`RegisterMapError` with the
    offending line number on any syntax or range problem; duplicate
    addresses or field names and overlapping fields are reported by the
    :class:`RegisterMap` constructor, without one."""
    entries: list[MapEntry] = []
    fields: list[BitField] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            match = _FIELD_RE.match(line)
            if not match:
                raise RegisterMapError(f"bad field binding: {line!r}", line=lineno)
            name, addr_s, msb_s, lsb_s = match.groups()
            fields.append(_construct(BitField, lineno, name, int(addr_s, 0),
                                     int(msb_s), int(lsb_s)))
        elif "," in line:
            match = _ENTRY_RE.match(line)
            if not match:
                raise RegisterMapError(f"bad register entry: {line!r}", line=lineno)
            entries.append(_construct(MapEntry, lineno,
                                      *(int(s, 0) for s in match.groups())))
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

    def cells(self) -> tuple[list[int], list[int]]:
        """The live value list and the write masks, for a dispatcher that
        has range-checked addresses and values itself and applies the masks
        as :meth:`write` does.  The lists stay the same objects for the
        file's life: :meth:`reset` refills the values in place."""
        return self._values, self._masks

    def reset(self) -> None:
        self._values[:] = self._resets

    def snapshot(self) -> bytes:
        return bytes(self._values)
