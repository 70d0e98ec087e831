import random

import pytest
from hypothesis import given, settings, strategies as st

from clockgen import (
    BitField,
    MapEntry,
    RegisterFile,
    RegisterMap,
    RegisterMapError,
    load_synth_map,
    parse_register_map,
)
from clockgen.readout import RegisterView, field_registers

import oracles


def test_parse_single_entry():
    regmap = parse_register_map("0x1D, 0x90, 0xFF\n")
    entry = regmap.entries[0x1D]
    assert (entry.address, entry.reset, entry.mask) == (29, 144, 255)


def test_parse_address_out_of_range_reports_line():
    with pytest.raises(RegisterMapError) as info:
        parse_register_map("0x1FF, 0x00, 0xFF")
    assert info.value.line == 1
    assert "out of range" in str(info.value)


def test_parse_reports_correct_line_past_comments():
    text = "# heading\n\n0x10, 0x00, 0xFF\nnonsense here\n"
    with pytest.raises(RegisterMapError) as info:
        parse_register_map(text)
    assert info.value.line == 4


def test_parse_duplicate_address():
    with pytest.raises(RegisterMapError, match="duplicate"):
        parse_register_map("0x10, 0x00, 0xFF\n0x10, 0x01, 0xFF\n")


def test_parse_duplicate_field_name():
    text = "0x04, 0x00, 0xFF\na = 0x04[0:0]\na = 0x04[1:1]\n"
    with pytest.raises(RegisterMapError, match="duplicate field name a"):
        parse_register_map(text)


def test_parse_field_binding():
    regmap = parse_register_map("0x04, 0x00, 0x0F\nen0 = 0x04[0:0]\n")
    field = regmap.field("en0")
    assert (field.address, field.msb, field.lsb) == (4, 0, 0)
    assert field.mask == 0x01


def test_field_must_reference_listed_entry():
    with pytest.raises(RegisterMapError, match="missing from the entry"):
        parse_register_map("oops = 0x50[3:0]\n")


def test_overlapping_fields_rejected():
    text = "0x04, 0x00, 0xFF\na = 0x04[3:0]\nb = 0x04[5:3]\n"
    with pytest.raises(RegisterMapError, match="overlap"):
        parse_register_map(text)


def test_parse_bad_bit_range():
    with pytest.raises(RegisterMapError) as info:
        parse_register_map("0x04, 0x00, 0xFF\na = 0x04[0:3]\n")
    assert info.value.line == 2
    with pytest.raises(RegisterMapError) as info:
        parse_register_map("0x04, 0x00, 0xFF\na = 0x04[8:0]\n")
    assert info.value.line == 2
    with pytest.raises(RegisterMapError) as info:
        parse_register_map("0x04, 0x00, 0xFF\n0x05, 0x100, 0xFF\n")
    assert info.value.line == 2


def test_shipped_map_fields_disjoint():
    # independent exhaustive scan over (address, bit) space
    regmap = load_synth_map()
    occupied = {}
    for field in regmap.fields.values():
        for bit in range(field.lsb, field.msb + 1):
            key = (field.address, bit)
            assert key not in occupied, (field.name, occupied[key])
            occupied[key] = field.name


def test_shipped_map_has_all_field_groups():
    regmap = load_synth_map()
    prefixes = ["fb"] + [f"ms{k}" for k in range(4)]
    for prefix in prefixes:
        for param, bits in (("p1", 18), ("p2", 30), ("p3", 30)):
            group = regmap.group(f"{prefix}_{param}")
            assert sum(f.width for f in group) == bits
    for k in range(4):
        assert regmap.field(f"ms{k}_phstep").width == 8
        assert regmap.field(f"clk{k}_en").width == 1
        assert regmap.field(f"clk{k}_pdn").width == 1


def test_register_file_full_mask_write_read():
    regfile = RegisterFile()
    regfile.write(0x1D, 0x90)
    assert regfile.read(0x1D) == 0x90


def test_register_file_read_only_register():
    regmap = parse_register_map("0x00, 0x38, 0x00\n")
    regfile = RegisterFile.from_map(regmap)
    regfile.write(0x00, 0xFF)
    assert regfile.read(0x00) == 0x38


def test_register_file_partial_mask():
    regmap = parse_register_map("0x30, 0xA0, 0x0F\n")
    regfile = RegisterFile.from_map(regmap)
    regfile.write(0x30, 0xFF)
    assert regfile.read(0x30) == 0xAF


def test_register_file_reads_total_and_default_zero():
    regfile = RegisterFile.from_map(load_synth_map())
    assert regfile.read(0x06) == 0x00
    for address in range(256):
        assert 0 <= regfile.read(address) <= 0xFF
    with pytest.raises(ValueError):
        regfile.read(256)


def test_masked_write_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        mask = rng.randint(0, 0xFF)
        reset = rng.randint(0, 0xFF)
        text = f"0x42, 0x{reset:02X}, 0x{mask:02X}\n"
        regfile = RegisterFile.from_map(parse_register_map(text))
        value = rng.randint(0, 0xFF)
        regfile.write(0x42, value)
        once = regfile.read(0x42)
        regfile.write(0x42, value)
        assert regfile.read(0x42) == once
        # masked-update formula, recomputed independently
        assert once == (reset & ~mask) | (value & mask)


def test_pack_unpack_roundtrip_composites():
    regmap = load_synth_map()
    regfile = RegisterFile.from_map(regmap)
    rng = random.Random(8)
    for prefix in ["fb"] + [f"ms{k}" for k in range(4)]:
        for param, bits in (("p1", 18), ("p2", 30), ("p3", 30)):
            value = rng.randint(0, (1 << bits) - 1)
            for address, placed, mask in regmap.pack(f"{prefix}_{param}", value):
                regfile.write(address, (regfile.read(address) & ~mask) | placed)
            assert regmap.unpack(f"{prefix}_{param}", regfile.read) == value


def test_pack_rejects_oversized_value():
    regmap = load_synth_map()
    with pytest.raises(ValueError):
        regmap.pack("fb_p1", 1 << 18)


def test_unknown_field():
    with pytest.raises(RegisterMapError):
        load_synth_map().field("nope")
    with pytest.raises(RegisterMapError):
        load_synth_map().group("nope")


def test_empty_map_defaults():
    regmap = RegisterMap((), ())
    assert regmap.reset_value(0x80) == 0x00
    assert regmap.write_mask(0x80) == 0xFF


# gapped runs, a plain field that is also a run base, look-alike suffixes
_NAMES = ("x", "x_b0", "x_b1", "x_b2", "x_b3", "x_b01", "x_b00", "x_b10",
          "x_b0_b0", "y_b0", "y_b1", "y_b2", "_b0", "b0")
_QUERIES = _NAMES + ("y", "", "x_b", "x_b4", "z")


@st.composite
def _maps(draw):
    """Maps over a subset of ``_NAMES``, fields listed in shuffled order,
    each in its own half-register slot with a random bit range."""
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True))
    slots = draw(st.permutations([(a, half) for a in range(8) for half in (0, 4)]))
    fields = []
    for name, (address, half) in zip(names, slots):
        lsb = draw(st.integers(0, 3))
        msb = draw(st.integers(lsb, 3))
        fields.append(BitField(name, address, half + msb, half + lsb))
    fields = draw(st.permutations(fields))
    return RegisterMap([MapEntry(a, 0x00, 0xFF) for a in range(8)], fields)


@settings(max_examples=300, deadline=None)
@given(regmap=_maps(), data=st.data())
def test_layouts_match_the_probing_rule(regmap, data):
    """group, pack, unpack and field_registers resolve every name as the
    probing reference does, and pack/unpack round-trip through registers."""
    registers = RegisterFile()
    for address in range(8):
        registers.write(address, data.draw(st.integers(0, 0xFF)))
    resolved = []
    for name in _QUERIES:
        try:
            parts = oracles.probing_group(regmap.fields, name)
        except KeyError:
            with pytest.raises(RegisterMapError):
                regmap.group(name)
            with pytest.raises(RegisterMapError):
                regmap.pack(name, 0)
            with pytest.raises(RegisterMapError):
                regmap.unpack(name, registers.read)
            continue
        resolved.append(name)
        assert list(regmap.group(name)) == parts
        assert regmap.unpack(name, registers.read) == \
            oracles.bitwise_unpack(parts, registers.read)
        width = sum(f.width for f in parts)
        value = data.draw(st.integers(0, (1 << width) - 1))
        writes = regmap.pack(name, value)
        assert writes == oracles.bitwise_pack(parts, value)
        for address, placed, mask in writes:
            registers.write(address, (registers.read(address) & ~mask) | placed)
        assert regmap.unpack(name, registers.read) == value
        for oversized in (-1, 1 << width):
            with pytest.raises(ValueError, match=f"{width}-bit field"):
                regmap.pack(name, oversized)
    names = data.draw(st.lists(st.sampled_from(resolved))) if resolved else []
    assert field_registers(regmap, names) == sorted(
        {f.address for name in names for f in oracles.probing_group(regmap.fields, name)})


@settings(max_examples=300, deadline=None)
@given(regmap=_maps(), data=st.data())
def test_a_view_reads_every_field_as_the_probing_rule_does(regmap, data):
    """A view over the registers its fields need, in any order and among
    others, reads each field from the value list as the bit-by-bit
    reference reads it from the registers, gapped runs included."""
    names = [n for n in _QUERIES if n in regmap.fields or f"{n}_b0" in regmap.fields]
    needed = field_registers(regmap, names)
    extra = data.draw(st.lists(st.integers(0, 255).filter(lambda a: a not in needed),
                               unique=True, max_size=3))
    registers = data.draw(st.permutations(needed + extra))
    values = data.draw(st.lists(st.integers(0, 0xFF), min_size=len(registers),
                                max_size=len(registers)))
    view = RegisterView(regmap, names, registers)
    fields = view.fields(values)
    read = dict(zip(registers, values)).__getitem__
    for name in names:
        assert fields[view.slot[name]] == \
            oracles.bitwise_unpack(oracles.probing_group(regmap.fields, name), read)
