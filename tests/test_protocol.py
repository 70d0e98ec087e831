import ast
import contextlib
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
from clockgen import protocol
from clockgen.protocol import FRAME_TABLE, decode_frames


def test_encode_write():
    cmd = BridgeCommand.write(0x70, 0x1D, 0x90)
    assert encode_command(cmd) == bytes([0xFF, 0x70, 0x1D, 0x90])


def test_encode_read_forces_zero_payload():
    cmd = BridgeCommand.read(0x70, 0x06)
    assert encode_command(cmd) == bytes([0x00, 0x70, 0x06, 0x00])


def test_a_read_built_with_a_payload_drops_it():
    cmd = BridgeCommand(Action.READ, 0x70, 6, 0x55)
    assert cmd.payload == 0x00
    assert encode_command(cmd) == bytes([0x00, 0x70, 0x06, 0x00])
    assert cmd == BridgeCommand.read(0x70, 6)


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
    # command the public constructor builds
    for address in range(256):
        for register in range(256):
            other = 1 + (address << 8 | register) % 254
            read = (BridgeCommand.read(address, register) if address <= 0x7F
                    else FramingError)
            for payload in (0x00, 0xA5, 0xFF):
                assert _outcome(bytes((other, address, register, payload))) \
                    is InvalidOpcodeError
                assert _outcome(bytes((0x00, address, register, payload))) == read
                written = _outcome(bytes((0xFF, address, register, payload)))
                if address > 0x7F:
                    assert written is FramingError
                    continue
                expected = BridgeCommand.write(address, register, payload)
                assert type(written) is BridgeCommand
                assert vars(written) == vars(expected)
                assert written == expected and hash(written) == hash(expected)


# -- the frame table ---------------------------------------------------------------

def _frames():
    """One 4-byte frame: a read (any payload byte) or a write of a valid or
    out-of-range address, or any four bytes."""
    byte = st.integers(0, 0xFF)
    return st.one_of(
        st.builds(lambda o, a, r, p: bytes((o, a, r, p)),
                  st.sampled_from([0x00, 0xFF]), byte, byte, byte),
        st.binary(min_size=4, max_size=4),
    )


def _per_frame(data):
    """``decode_command`` on each whole frame of ``data``, None where it
    raises."""
    decoded = []
    for start in range(0, len(data) - 3, 4):
        try:
            decoded.append(decode_command(data[start:start + 4]))
        except ProtocolError:
            decoded.append(None)
    return decoded


@settings(max_examples=300, deadline=None)
@given(frames=st.lists(_frames(), max_size=24), tail=st.binary(max_size=3),
       clear=st.booleans())
def test_decode_frames_matches_decode_command_per_frame(frames, tail, clear):
    if clear:
        FRAME_TABLE.clear()
    data = b"".join(frames) + tail
    decoded = decode_frames(bytearray(data))
    assert decoded == _per_frame(data)
    assert decode_frames(data) == decoded  # again, from the table
    for frame, command in zip(frames, decoded):
        if command is not None and command.action is Action.READ:
            assert command == BridgeCommand.read(frame[1], frame[2])


@contextlib.contextmanager
def _frame_table_bound(bound):
    """``FRAME_TABLE_BOUND`` set to ``bound`` on an empty table; the table
    is emptied again afterwards."""
    FRAME_TABLE.clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "FRAME_TABLE_BOUND", bound)
            yield
    finally:
        FRAME_TABLE.clear()


@settings(max_examples=50, deadline=None)
@given(bound=st.integers(2, 40), frames=st.lists(_frames(), min_size=1, max_size=120))
def test_the_frame_table_stays_within_its_bound(bound, frames):
    writes = [bytes((0xFF, 0x70, n >> 8, n & 0xFF)) for n in range(2 * bound + 1)]
    with _frame_table_bound(bound):
        for frame in writes + frames:  # more distinct write frames than the bound
            assert decode_frames(frame) == _per_frame(frame)
            assert len(FRAME_TABLE) <= bound
        read = decode_frames(bytes((0x00, 0x70, 0x06, 0x5A)))[0]
        assert read == BridgeCommand.read(0x70, 0x06) == decode_command(bytes((0, 0x70, 6, 0)))
        assert len(FRAME_TABLE) <= bound


def test_the_frame_table_stays_within_its_shipped_bound():
    bound = protocol.FRAME_TABLE_BOUND
    data = b"".join(bytes((0xFF, address, n >> 8, n & 0xFF))
                    for address in (0x70, 0x2C) for n in range(bound // 2 + 512))
    with _frame_table_bound(bound):
        assert decode_frames(data) == _per_frame(data)
        assert len(FRAME_TABLE) <= bound


@settings(max_examples=200, deadline=None)
@given(address=st.integers(0, 0x7F), register=st.integers(0, 0xFF),
       payload=st.integers(0, 0xFF))
def test_a_decoded_read_equals_the_built_read(address, register, payload):
    frame = bytes((0x00, address, register, payload))
    for _ in range(2):
        decoded = decode_frames(frame)[0]
        assert decoded == BridgeCommand.read(address, register)
        assert decode_command(frame) == decoded
        FRAME_TABLE.clear()
    built = BridgeCommand.read(address, register)
    assert decode_frames(frame)[0] == built
    assert encode_command(built) == frame[:3] + b"\x00"


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
    assert importers == {"host.py", "sim.py"}


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
