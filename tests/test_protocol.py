import ast
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import clockgen
from clockgen import (
    Action,
    BridgeCommand,
    FramingError,
    InvalidOpcodeError,
    ProtocolError,
    decode_command,
    encode_command,
)


def test_encode_write():
    cmd = BridgeCommand.write(0x70, 0x1D, 0x90)
    assert encode_command(cmd) == bytes([0xFF, 0x70, 0x1D, 0x90])


def test_encode_read_forces_zero_payload():
    cmd = BridgeCommand.read(0x70, 0x06)
    assert encode_command(cmd) == bytes([0x00, 0x70, 0x06, 0x00])


def test_encode_all_zero_write():
    cmd = BridgeCommand.write(0x00, 0x00, 0x00)
    assert encode_command(cmd) == bytes([0xFF, 0x00, 0x00, 0x00])


def test_decode_write():
    cmd = decode_command(bytes([0xFF, 0x70, 0x1D, 0x90]))
    assert cmd == BridgeCommand.write(0x70, 0x1D, 0x90)


def test_decode_read_normalizes_payload():
    cmd = decode_command(bytes([0x00, 0x70, 0x06, 0xAB]))
    assert cmd == BridgeCommand.read(0x70, 0x06)
    assert cmd.payload == 0x00
    # re-encoding fixes the payload byte, everything else round-trips
    assert encode_command(cmd) == bytes([0x00, 0x70, 0x06, 0x00])


def test_decode_invalid_opcode():
    with pytest.raises(InvalidOpcodeError):
        decode_command(bytes([0x01, 0x70, 0x06, 0x00]))


@pytest.mark.parametrize("length", [0, 1, 3, 5, 8])
def test_decode_wrong_length(length):
    with pytest.raises(FramingError):
        decode_command(bytes(length))


def test_decode_address_out_of_range():
    with pytest.raises(FramingError):
        decode_command(bytes([0xFF, 0x80, 0x00, 0x00]))


def test_command_rejects_bad_fields():
    with pytest.raises(ValueError):
        BridgeCommand.write(0x80, 0x00, 0x00)
    with pytest.raises(ValueError):
        BridgeCommand.write(0x70, 0x100, 0x00)
    with pytest.raises(ValueError):
        BridgeCommand.write(0x70, 0x00, 0x100)


def test_roundtrip_random_commands():
    rng = random.Random(101)
    for _ in range(2000):
        if rng.random() < 0.5:
            cmd = BridgeCommand.write(rng.randint(0, 0x7F), rng.randint(0, 0xFF),
                                      rng.randint(0, 0xFF))
        else:
            cmd = BridgeCommand.read(rng.randint(0, 0x7F), rng.randint(0, 0xFF))
        data = encode_command(cmd)
        assert len(data) == 4
        assert data[0] in (0x00, 0xFF)
        assert decode_command(data) == cmd


def test_encode_of_decode_fixes_only_read_payload():
    rng = random.Random(102)
    for _ in range(2000):
        frame = bytes([rng.choice([0x00, 0xFF]), rng.randint(0, 0x7F),
                       rng.randint(0, 0xFF), rng.randint(0, 0xFF)])
        out = encode_command(decode_command(frame))
        if frame[0] == 0xFF:
            assert out == frame
        else:
            assert out == frame[:3] + b"\x00"


def test_decode_is_total_over_four_byte_inputs():
    rng = random.Random(103)
    for _ in range(2000):
        frame = bytes(rng.randint(0, 0xFF) for _ in range(4))
        try:
            cmd = decode_command(frame)
        except ProtocolError:
            continue
        assert isinstance(cmd, BridgeCommand)
        assert cmd.action in (Action.READ, Action.WRITE)


def _outcome(frame):
    """What decoding ``frame`` gives: the command, or the error's type."""
    try:
        return decode_command(frame)
    except ProtocolError as exc:
        return type(exc)


def test_decode_agrees_with_the_constructors_on_every_frame():
    # every opcode class (read, write, any other) x address x register, with
    # a few payloads: the typed error decoding has always raised, or the
    # command the public constructor builds; a read is the shared instance
    for address in range(256):
        for register in range(256):
            other = 1 + (address << 8 | register) % 254
            read = (BridgeCommand.read(address, register) if address <= 0x7F
                    else FramingError)
            for payload in (0x00, 0xA5, 0xFF):
                assert _outcome(bytes((other, address, register, payload))) \
                    is InvalidOpcodeError
                assert _outcome(bytes((0x00, address, register, payload))) is read
                written = _outcome(bytes((0xFF, address, register, payload)))
                if address > 0x7F:
                    assert written is FramingError
                    continue
                expected = BridgeCommand.write(address, register, payload)
                assert type(written) is BridgeCommand
                assert vars(written) == vars(expected)
                assert written == expected and hash(written) == hash(expected)


def _imported(tree):
    """Every module a parsed ``clockgen`` module imports, or may import
    as a name, fully qualified."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["clockgen" if node.level else "",
                                          node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_only_host_and_sim_speak_the_wire():
    # planning, readout and power build no wire commands
    package = Path(clockgen.__file__).parent
    importers = {path.name for path in package.glob("*.py")
                 if "clockgen.protocol" in _imported(ast.parse(path.read_text("utf-8")))}
    assert importers == {"host.py", "sim.py", "__init__.py"}


def _called(tree):
    """The name of every function a parsed module calls, plain or as an
    attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr


def test_only_readout_decodes_divider_images():
    # status, phase recovery and the retune all read a channel through readout
    package = Path(clockgen.__file__).parent
    decoders = {"decode_divider", "divider_pair"}
    callers = {path.name for path in package.glob("*.py")
               if decoders & set(_called(ast.parse(path.read_text("utf-8"))))}
    assert callers == {"readout.py"}


def test_only_the_session_and_the_board_pump_the_board():
    # opening, pumping and releasing a board belong to InProcessSession;
    # the TCP server relays bytes through one
    package = Path(clockgen.__file__).parent
    pumps = {"ingest", "run_until_idle", "boot", "clear_queues"}
    callers = {path.name for path in package.glob("*.py")
               if pumps & set(_called(ast.parse(path.read_text("utf-8"))))}
    assert "transport.py" in callers
    assert callers <= {"transport.py", "sim.py"}


_PACKAGE = Path(clockgen.__file__).parent

# A synthesizer field name, or a piece code could join into one: a prefix
# ("fb", "ms", "clk2_") or a word ending in a field suffix ("_p1", "p3",
# "_phstep", "en", "clk0_pdn", "ms1_p2_b3").  Anchored on the suffixes, so
# config keys such as "fb_int_min" are not field names.
_FIELD_PREFIX = re.compile(r"(?:fb|ms\d*|clk\d*)_?")
_FIELD_SUFFIX = re.compile(r"\w*?(?:^|_)(?:p[123]|phstep|en|pdn)(?:_b\d+)?")


def _is_field_piece(text):
    return bool(_FIELD_PREFIX.fullmatch(text) or _FIELD_SUFFIX.fullmatch(text))


def test_only_readout_names_synthesizer_fields():
    # how a plan, a phase step and an enable bit sit in the registers is
    # readout's to know; every other module asks it
    regmap = clockgen.load_synth_map()
    names = set(regmap.fields) | {re.sub(r"_b\d+$", "", n) for n in regmap.fields}
    pieces = ["fb", "ms", "ms0", "clk", "_p1", "p2", "_p3", "_phstep", "_en", "en", "pdn"]
    assert all(map(_is_field_piece, [*names, *pieces]))
    assert not any(map(_is_field_piece, ["fb_int_min", "ms_int_max", "phase_step_limit",
                                         "max_denominator", "open", "steps"]))
    named = {}
    for path in _PACKAGE.glob("*.py"):
        if path.name != "readout.py":
            found = sorted({node.value for node in ast.walk(ast.parse(path.read_text("utf-8")))
                            if isinstance(node, ast.Constant) and isinstance(node.value, str)
                            and _is_field_piece(node.value)})
            if found:
                named[path.name] = found
    assert named == {}


def test_planner_imports_no_register_module():
    tree = ast.parse((_PACKAGE / "planner.py").read_text("utf-8"))
    top = {name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
           for name in _imported(node)}
    assert not top & {"clockgen.registers", "clockgen.readout"}


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py")
                                          if p.stem != "__init__"))
def test_module_imports_first_in_a_fresh_interpreter(module):
    # An import cycle at module level fails only in some import orders.  The
    # package's __init__ imports every module in one fixed order, so it is
    # left out: the module named imports first, and its own imports set the
    # order.
    code = ("import sys, types; package = types.ModuleType('clockgen'); "
            f"package.__path__ = [{str(_PACKAGE)!r}]; sys.modules['clockgen'] = package; "
            f"import clockgen.{module}")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
