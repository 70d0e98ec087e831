import random

import pytest

from clockgen import (
    RegisterFile,
    RegisterMap,
    RegisterMapError,
    load_pot_map,
    load_synth_map,
    parse_register_map,
)


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


def test_serialize_roundtrip_shipped_maps():
    for regmap in (load_synth_map(), load_pot_map()):
        again = parse_register_map(regmap.serialize())
        assert again == regmap
        assert parse_register_map(again.serialize()) == again


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
    regmap = RegisterMap.empty()
    assert regmap.reset_value(0x80) == 0x00
    assert regmap.write_mask(0x80) == 0xFF
