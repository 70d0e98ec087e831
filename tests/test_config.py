from fractions import Fraction

import pytest

from clockgen import (
    ConfigError,
    PlannerConstraints,
    RailModel,
    SessionConfig,
    StackConfig,
    bridge_init,
    default_config,
    load_config,
    parse_config,
)

# the default rails put a pot at 0x2C, so this file breaks a whole-config rule
SYNTH_ON_POT = "synth_address = 0x2C\n"


def test_packaged_default_loads():
    config = load_config()
    assert config.constraints.f_in == 25_000_000
    assert config.constraints.vco_min == 2_200_000_000
    assert config.constraints.vco_max == 2_840_000_000
    assert config.synth_address == 0x70
    assert len(config.rails) == 5


def test_packaged_default_matches_compiled_defaults():
    # the shipped file and the compiled-in fallback must agree
    assert load_config() == default_config()


def test_five_rails_span_two_pots():
    config = load_config()
    addresses = {rail.pot_address for rail in config.rails}
    assert len(addresses) == 2
    slots = {(r.pot_address, r.pot_channel) for r in config.rails}
    assert len(slots) == 5


def test_parse_overrides_constraints():
    config = parse_config("f_in_hz = 10000000\nfb_int_max = 300\n")
    assert config.constraints.f_in == Fraction(10_000_000)
    assert config.constraints.fb_int_max == 300
    # untouched keys keep their defaults
    assert config.constraints.ms_int_max == 2048


def test_parse_hex_synth_address():
    assert parse_config("synth_address = 0x71\n").synth_address == 0x71


def test_parse_rail_definition():
    text = (
        "rail0_pot_address = 0x2E\n"
        "rail0_pot_channel = 2\n"
        "rail0_v_default = 1.2575\n"
    )
    config = parse_config(text)
    assert len(config.rails) == 1
    rail = config.rail(0)
    assert rail.pot_address == 0x2E
    assert rail.pot_channel == 2
    assert rail.v_default == Fraction("1.2575")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as info:
        parse_config("f_in_hz = 25000000\nbogus = 3\n")
    assert info.value.line == 2


def test_bad_number_reports_line():
    with pytest.raises(ConfigError) as info:
        parse_config("fb_int_max = banana\n")
    assert info.value.line == 1


def test_a_number_divided_by_zero_reports_its_line():
    with pytest.raises(ConfigError, match="expected a number, got '1/0'") as info:
        parse_config("f_in_hz = 1/0\n")
    assert info.value.line == 1
    assert str(info.value).startswith("line 1: ")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_denominator_cap_below_one_rejected(cap):
    with pytest.raises(ConfigError, match="max_denominator"):
        parse_config(f"max_denominator = {cap}\n")


def test_missing_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("f_in_hz =\n")


def test_line_without_equals_rejected():
    with pytest.raises(ConfigError):
        parse_config("just some words\n")


def test_repeated_key_names_the_first_line():
    with pytest.raises(ConfigError, match="f_in_hz is already set on line 1") as info:
        parse_config("f_in_hz = 10000000\n# comment\nf_in_hz = 20000000\n")
    assert info.value.line == 3
    with pytest.raises(ConfigError, match="already set on line 2") as info:
        parse_config("\nrail1_pot_channel = 1\nrail1_pot_channel = 2\n")
    assert info.value.line == 3


@pytest.mark.parametrize("head", ["rail01", "rail00", "rail007"])
def test_rail_id_with_leading_zero_rejected(head):
    text = f"rail1_pot_channel = 1\n{head}_pot_channel = 2\n"
    with pytest.raises(ConfigError, match="leading zero") as info:
        parse_config(text)
    assert info.value.line == 2


def test_non_ascii_rail_digits_are_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("rail\u00b2_pot_channel = 1\n")


def test_rail_zero_and_repeated_free_file_still_parse():
    config = parse_config("rail0_pot_channel = 1\nrail10_pot_channel = 2\n"
                          "f_in_hz = 20000000\n")
    assert [r.rail_id for r in config.rails] == [0, 10]
    assert config.constraints.f_in == 20_000_000


def test_duplicate_pot_slot_rejected():
    text = (
        "rail0_pot_address = 0x2C\nrail0_pot_channel = 0\n"
        "rail1_pot_address = 0x2C\nrail1_pot_channel = 0\n"
    )
    with pytest.raises(ConfigError, match="share pot"):
        parse_config(text)


def test_synth_address_range():
    with pytest.raises(ConfigError):
        parse_config("synth_address = 0x80\n")


def test_bad_constraint_combination():
    with pytest.raises(ConfigError):
        parse_config("vco_min_hz = 3000000000\nvco_max_hz = 2000000000\n")


@pytest.mark.parametrize("line, problem", [
    ("f_out_min_hz = 0", "f_out_min must be positive"),
    ("f_out_min_hz = -5", "f_out_min must be positive"),
    ("vco_min_hz = 0", "vco_min must be positive"),
    ("fb_int_min = 600", "fb_int_min > fb_int_max"),
    ("ms_int_min = 3000", "ms_int_min > ms_int_max"),
    ("fb_int_min = 0", "fb_int_min must be at least 1"),
    ("ms_int_min = -1", "ms_int_min must be at least 1"),
])
def test_degenerate_constraint_windows_rejected(line, problem):
    with pytest.raises(ConfigError, match=problem):
        parse_config(line + "\n")


def test_bad_rail_value():
    with pytest.raises(ConfigError, match="rail 0"):
        parse_config("rail0_pot_channel = 9\n")


def test_comments_and_blank_lines_ignored():
    config = parse_config("# leading comment\n\nf_in_hz = 12500000  # trailing\n")
    assert config.constraints.f_in == 12_500_000


def test_unknown_rail_lookup():
    with pytest.raises(ConfigError):
        default_config().rail(7)


def test_custom_files_drive_the_cli(tmp_path, capsys):
    from clockgen.cli import run

    conf = tmp_path / "narrow.conf"
    conf.write_text("f_out_min_hz = 50000000\nf_out_max_hz = 60000000\n")
    assert run(["--config", str(conf), "set-freq", "--channel", "0",
                "--hz", "55M"]) == 0
    capsys.readouterr()
    assert run(["--config", str(conf), "set-freq", "--channel", "0",
                "--hz", "100M"]) == 1
    assert "band" in capsys.readouterr().err


def test_custom_map_drives_the_cli(tmp_path, capsys):
    import json

    from clockgen.cli import run

    custom = tmp_path / "custom.map"
    # the shipped synth map with a different device id
    from importlib import resources
    shipped = resources.files("clockgen").joinpath("data", "synth.map")
    text = shipped.read_text("utf-8").replace("0x00, 0x38, 0x00",
                                              "0x00, 0x77, 0x00")
    custom.write_text(text)
    assert run(["--map", str(custom), "--json", "reg", "read", "0x00"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0x77


# -- whole-configuration rules, checked by StackConfig however it is built ------

def rails(*slots):
    return tuple(RailModel(rail_id=rid, pot_address=addr, pot_channel=ch)
                 for rid, addr, ch in slots)


@pytest.mark.parametrize("synth_address, rail_slots, message", [
    (0x80, [(0, 0x2C, 0)], "synth_address 0x80 outside 7-bit range"),
    (0x70, [(0, 0x2C, 0), (1, 0x2C, 0)], "two rails share pot 0x2C channel 0"),
    (0x2C, [(0, 0x2D, 0), (1, 0x2C, 3)], "rail 1: pot shares the synthesizer's"),
    (0x70, [(0, 0x2C, 0), (0, 0x2D, 0)], "rail 0 is configured twice"),
], ids=["synth-address-range", "pot-slot", "pot-on-synth", "rail-id"])
def test_stack_config_refuses_a_broken_rule(synth_address, rail_slots, message):
    with pytest.raises(ValueError, match=message):
        StackConfig(constraints=PlannerConstraints(), rails=rails(*rail_slots),
                    synth_address=synth_address)


def test_default_config_reads_no_package_resource(monkeypatch):
    import clockgen.config as config_module

    def refuse(name):
        raise AssertionError(f"read packaged {name}")

    monkeypatch.setattr(config_module, "_packaged", refuse)
    assert load_config() == load_config(None) == default_config()


def test_parse_refuses_a_pot_on_the_synth_address():
    with pytest.raises(ConfigError, match="synthesizer's i2c address 0x2C"):
        parse_config(SYNTH_ON_POT)


def test_bridge_init_over_tcp_checks_the_config_before_connecting(tmp_path,
                                                                 monkeypatch):
    import clockgen.host as host_module

    conf = tmp_path / "clash.conf"
    conf.write_text(SYNTH_ON_POT)
    opened = []
    monkeypatch.setattr(host_module, "open_session",
                        lambda *args: opened.append(args))
    with pytest.raises(ConfigError, match="synthesizer's i2c address"):
        bridge_init(SessionConfig.parse("tcp:127.0.0.1:1"), config_path=conf)
    assert opened == []


def test_config_clash_fails_alike_on_both_endpoints(tmp_path, capsys, tcp_server):
    from clockgen.cli import run

    conf = tmp_path / "clash.conf"
    conf.write_text(SYNTH_ON_POT)
    errors = []
    for transport in ("sim", f"tcp:127.0.0.1:{tcp_server.port}"):
        assert run(["--transport", transport, "--config", str(conf),
                    "enable", "--channel", "0"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "pot shares the synthesizer's i2c address" in errors[0]
    assert tcp_server.board.commands_served == 0


# -- the reference the board runs on lies in the planner's f_in window ----------

@pytest.mark.parametrize("f_in", [Fraction(10_000_000) - 1, Fraction(60_000_000)],
                         ids=["below", "above"])
def test_stack_config_refuses_a_reference_outside_its_window(f_in):
    with pytest.raises(ValueError, match=r"f_in \d+ Hz outside the reference window"):
        StackConfig(constraints=PlannerConstraints(f_in=f_in), rails=rails((0, 0x2C, 0)))


@pytest.mark.parametrize("f_in", [10_000_000, 50_000_000], ids=["min", "max"])
def test_a_reference_on_a_window_edge_loads(f_in):
    assert parse_config(f"f_in_hz = {f_in}\n").constraints.f_in == f_in


def test_parse_reports_a_reference_outside_its_window():
    with pytest.raises(ConfigError, match=r"f_in 60000000 Hz outside the reference "
                                          r"window \[10000000, 50000000\] Hz"):
        parse_config("f_in_hz = 60000000\n")


def test_a_reference_outside_its_window_fails_before_any_session(tmp_path, capsys,
                                                                 tcp_server):
    from clockgen.cli import run

    conf = tmp_path / "fin.conf"
    conf.write_text("f_in_hz = 60000000\n")
    for transport in ("sim", f"tcp:127.0.0.1:{tcp_server.port}"):
        assert run(["--transport", transport, "--config", str(conf),
                    "set-freq", "--channel", "0", "--hz", "100M"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "f_in 60000000 Hz outside the reference window" in err
    assert tcp_server.board.commands_served == 0


# -- each rail's default is a voltage boot can program ----------------------------

@pytest.mark.parametrize("v_default", [9, 1, -1], ids=["above", "below", "negative"])
def test_stack_config_refuses_a_rail_default_that_does_not_plan(v_default):
    rail = RailModel(rail_id=3, pot_address=0x2C, pot_channel=0, v_default=v_default)
    with pytest.raises(ValueError, match=r"^rail 3: v_default does not plan"):
        StackConfig(constraints=PlannerConstraints(), rails=(rail,))


def test_parse_reports_a_rail_default_outside_its_band():
    with pytest.raises(ConfigError, match=r"rail 0: v_default does not plan \(rail 0: "
                                          r"9 V outside reachable band \[1\.2575, "):
        parse_config("rail0_v_default = 9\n")


def test_a_rail_default_outside_its_band_fails_before_any_session(tmp_path, capsys,
                                                                  tcp_server):
    from clockgen.cli import run

    conf = tmp_path / "rail.conf"
    conf.write_text("rail0_v_default = 9\n")
    for transport in ("sim", f"tcp:127.0.0.1:{tcp_server.port}"):
        assert run(["--transport", transport, "--config", str(conf), "status"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "rail 0: v_default does not plan" in err
    assert tcp_server.board.commands_served == 0
