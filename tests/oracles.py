"""Independent reference implementations for checking the planners and the
register map.

Everything here deliberately takes a different route from the package code:
stdlib ``Fraction.limit_denominator`` instead of the hand-rolled mediant
descent, exhaustive scans instead of analytic inversion, brute-force sweeps
instead of staged search, per-call probing and bit-at-a-time packing instead
of precomputed field layouts, divider images inverted as ``Fraction``s
instead of on integer pairs, and the board's firmware as a plain loop over
bytes and frames instead of one pass over a decoded buffer.  Expected test
values are computed from these, not from the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

from clockgen.errors import UnsatisfiableFrequencyError
from clockgen.planner import FrequencyPlan, RationalDivider
from clockgen.power import WIPER_STEPS
from clockgen.readout import ChannelStatus, encode_divider
from clockgen.sim import DISPATCH_HISTORY


def exact_plans(f_in, f_target, cons):
    """Brute force every exact plan in the searched family.

    Sweeps all integer feedback values with the VCO in window, taking the
    exact rational output divider for each; then all integer output
    dividers, keeping those whose exact fractional feedback survives a
    bounded-denominator (Farey) search unchanged.  Returns
    (f_vco, feedback, output) triples.
    """
    plans = []
    a = math.ceil(cons.vco_min / f_in)
    while f_in * a <= cons.vco_max:
        if cons.fb_int_min <= a <= cons.fb_int_max:
            f_vco = f_in * a
            out = f_vco / f_target
            if (out.denominator <= cons.max_denominator
                    and cons.ms_int_min <= out < cons.ms_int_max + 1):
                plans.append((f_vco, Fraction(a), out))
        a += 1
    o = math.ceil(cons.vco_min / f_target)
    while f_target * o <= cons.vco_max:
        if cons.ms_int_min <= o <= cons.ms_int_max:
            f_vco = f_target * o
            fb = f_vco / f_in
            if (fb.limit_denominator(cons.max_denominator) == fb
                    and cons.fb_int_min <= fb < cons.fb_int_max + 1):
                plans.append((f_vco, fb, Fraction(o)))
        o += 1
    return plans


def farey_partner(x: Fraction, cap: int, above: bool) -> Fraction:
    """The neighbour of ``x`` in the Farey sequence of order ``cap``, above
    or below it: the fraction r/s with the largest s <= cap such that
    r·q - p·s = 1 (above) or p·s - r·q = 1 (below), for x = p/q."""
    p, q = x.numerator, x.denominator
    s = (-pow(p, -1, q) if above else pow(p, -1, q)) % q
    s += (cap - s) // q * q
    r = (1 + p * s) // q if above else (p * s - 1) // q
    partner = Fraction(r, s)
    assert (partner > x) == above and partner.denominator <= cap
    return partner


def capped_neighbors(value: Fraction, cap: int) -> list[Fraction]:
    """The fractions with denominator at most ``cap`` nearest ``value`` on
    either side, lower first: ``value`` alone when it fits the cap, else
    ``limit_denominator``'s result and its Farey partner across ``value``."""
    nearest = value.limit_denominator(cap)
    if nearest == value:
        return [value]
    return sorted([nearest, farey_partner(nearest, cap, above=nearest < value)])


def approximate_plans(f_in, f_target, cons, both_neighbors=False):
    """Candidates of the searched family for a target with no exact plan,
    by a route independent of the planner's neighbor search.

    For every integer output divider with the VCO in window, the stdlib's
    best bounded-denominator approximation of the exact feedback divider,
    or the window edges (vco / f_in) within the cap when that approximation
    leaves the window; for every integer feedback in window, the best
    approximation of the exact output divider.  With ``both_neighbors``,
    both capped neighbors (:func:`capped_neighbors`) stand in for the best
    approximation, those inside the window for the feedback: the planner's
    whole stage-3 family.  Returns (rel_error, f_vco, feedback, output) for
    each legal one.
    """
    cap = cons.max_denominator
    plans = []

    def near(value):
        if both_neighbors:
            return capped_neighbors(value, cap)
        return [value.limit_denominator(cap)]

    def legal(value, int_min, int_max):
        return (value.denominator <= cap and value >= 1
                and int_min <= value < int_max + 1)

    def add(fb, out):
        f_achieved = f_in * fb / out
        plans.append((abs(f_achieved - f_target) / f_target, f_in * fb, fb, out))

    window = (cons.vco_min / f_in, cons.vco_max / f_in)
    o = math.ceil(cons.vco_min / f_target)
    while f_target * o <= cons.vco_max:
        if cons.ms_int_min <= o <= cons.ms_int_max:
            choices = ([fb for fb in near(f_target * o / f_in)
                        if window[0] <= fb <= window[1]]
                       or [e for e in window if e.denominator <= cap])
            for fb in choices:
                if legal(fb, cons.fb_int_min, cons.fb_int_max):
                    add(fb, Fraction(o))
        o += 1
    a = math.ceil(cons.vco_min / f_in)
    while f_in * a <= cons.vco_max:
        if cons.fb_int_min <= a <= cons.fb_int_max:
            for out in near(f_in * a / f_target):
                if legal(out, cons.ms_int_min, cons.ms_int_max):
                    add(Fraction(a), out)
        a += 1
    return plans


def has_exact_plan(f_in, f_target, cons) -> bool:
    return bool(exact_plans(f_in, f_target, cons))


def exact_rank(plan):
    """Order of the exact plans of :func:`exact_plans`: integer/integer
    plans first (stage 1), then by (f_vco, feedback denominator, output
    denominator)."""
    f_vco, fb, out = plan
    return (fb.denominator != 1 or out.denominator != 1,
            f_vco, fb.denominator, out.denominator)


def approximate_rank(candidate):
    """Order of the candidates of :func:`approximate_plans`: smallest
    relative error, then lowest f_vco, feedback denominator, output
    denominator, output value."""
    error, f_vco, fb, out = candidate
    return error, f_vco, fb.denominator, out.denominator, out


def _divider(value: Fraction) -> RationalDivider:
    whole, rest = divmod(value, 1)
    return RationalDivider(whole, rest.numerator, rest.denominator)


def reference_plan(f_in, f_target, cons, channel=0, feedback=None):
    """The plan ``plan_frequency`` returns, or the error it raises (same
    type, same message), worked out by ``Fraction`` comparisons against the
    constraint fields and the brute-force families above.

    The reference input and the target are checked against their windows.
    Jointly, the plan is the first exact plan by :func:`exact_rank`, else
    the first of :func:`approximate_plans` with both neighbors by
    :func:`approximate_rank`, refused beyond 1e-9.  With ``feedback``, its
    VCO must lie in the window, and the output divider is the legal one
    nearest ``f_vco / f_target``: ``ms_int_min`` below the range, the
    largest capped fraction below ``ms_int_max + 1`` above it, else the
    nearer capped neighbor, the lower on a tie.
    """
    if not cons.f_in_min <= f_in <= cons.f_in_max:
        raise ValueError(
            f"reference input {f_in} Hz outside supported window "
            f"[{cons.f_in_min}, {cons.f_in_max}] Hz")
    if not cons.f_out_min <= f_target <= cons.f_out_max:
        raise UnsatisfiableFrequencyError(
            f"target {float(f_target):.6g} Hz outside the supported band "
            f"[{float(cons.f_out_min):.6g}, {float(cons.f_out_max):.6g}] Hz")
    limit, cap = Fraction(1, 10**9), cons.max_denominator

    def plan(fb, out):
        f_vco = f_in * fb
        f_achieved = f_vco / out
        return FrequencyPlan(f_in, f_target, _divider(fb), _divider(out), f_vco,
                             f_achieved, abs(f_achieved - f_target) / f_target, channel)

    if feedback is not None:
        fb = feedback.value
        f_vco = f_in * fb
        if not cons.vco_min <= f_vco <= cons.vco_max:
            raise ValueError(f"pinned VCO {f_vco} Hz outside the VCO window")
        low, high = cons.ms_int_min, cons.ms_int_max + 1
        ideal = f_vco / f_target
        if ideal < low:
            choices = [Fraction(low)]
        elif ideal >= high:
            choices = [high - Fraction(1, cap)]
        else:
            choices = capped_neighbors(ideal, cap)
        ranked = sorted((abs(f_vco / out - f_target) / f_target, out)
                        for out in choices if low <= out < high)
        if not ranked or ranked[0][0] > limit:
            raise UnsatisfiableFrequencyError(
                f"no output divider of the shared VCO at {f_vco} Hz reaches "
                f"{float(f_target):.6g} Hz within 1e-9 relative")
        return plan(fb, ranked[0][1])
    exact = exact_plans(f_in, f_target, cons)
    if exact:
        _f_vco, fb, out = min(exact, key=exact_rank)
        return plan(fb, out)
    candidates = approximate_plans(f_in, f_target, cons, both_neighbors=True)
    if not candidates:
        raise UnsatisfiableFrequencyError(
            f"no divider pair reaches {float(f_target):.6g} Hz inside the VCO window")
    error, _f_vco, fb, out = min(candidates, key=approximate_rank)
    if error > limit:
        raise UnsatisfiableFrequencyError(
            f"best achievable plan misses {float(f_target):.6g} Hz by "
            f"{float(error):.3g} relative")
    return plan(fb, out)


def assert_plan_valid(plan, cons):
    """Every invariant a plan must satisfy, recomputed from scratch."""
    assert cons.vco_min <= plan.f_vco <= cons.vco_max
    assert cons.fb_int_min <= plan.feedback.a <= cons.fb_int_max
    assert cons.ms_int_min <= plan.output.a <= cons.ms_int_max
    assert 1 <= plan.feedback.c <= cons.max_denominator
    assert 1 <= plan.output.c <= cons.max_denominator
    if plan.feedback.b:
        assert math.gcd(plan.feedback.b, plan.feedback.c) == 1
    if plan.output.b:
        assert math.gcd(plan.output.b, plan.output.c) == 1
    assert plan.f_vco == plan.f_in * plan.feedback.value
    assert plan.f_achieved == plan.f_vco / plan.output.value
    assert plan.rel_error == abs(plan.f_achieved - plan.f_target) / plan.f_target


def phase_steps(offset: Fraction, quantum: Fraction, limit: int = 127) -> int:
    """Exhaustive scan for the step count with minimal residual; ties go
    away from zero (the larger magnitude of the two nearest)."""
    return min(range(-limit, limit + 1),
               key=lambda s: (abs(offset - s * quantum), -abs(s)))


def rail_volts(rail, code: int) -> Fraction:
    """The regulator physics term by term, not the package's line:
    ``v_ref * (1 + R_wb / r_fixed)`` with ``R_wb = code/256 * r_ab + r_wiper``."""
    wiper = Fraction(code, WIPER_STEPS) * rail.r_ab + rail.r_wiper
    return rail.v_ref * (1 + wiper / rail.r_fixed)


def supply_code(rail, v_target: Fraction) -> int:
    """Exhaustive 256-point argmin; ties to the lower code."""
    return min(range(WIPER_STEPS),
               key=lambda code: (abs(rail.predict(code) - v_target), code))


def band_targets(rng, count: int, cons) -> list[Fraction]:
    """Seeded pseudo-random targets across the band: integer-Hz values,
    small multiples of the reference, and large-denominator rationals."""
    lo, hi = int(cons.f_out_min), int(cons.f_out_max)
    rough_denominators = (999983, 1048573, 2**20 - 3, 10**6 + 3)
    targets = []
    while len(targets) < count:
        kind = len(targets) % 4
        if kind in (0, 1):
            targets.append(Fraction(rng.randint(lo, hi)))
        elif kind == 2:
            p, q = rng.randint(1, 64), rng.randint(1, 64)
            t = cons.f_in * p / q
            if cons.f_out_min <= t <= cons.f_out_max:
                targets.append(t)
        else:
            q = rng.choice(rough_denominators)
            targets.append(Fraction(rng.randint(lo * q, hi * q), q))
    return targets


def probing_group(fields, name):
    """Resolve a field name or composite base name by probing ``fields``
    (name -> BitField): the plain field first, else ``<name>_b0``,
    ``<name>_b1``, ... up to the first missing index.  Least significant
    first; raises ``KeyError`` when neither exists."""
    if name in fields:
        return [fields[name]]
    parts = []
    while f"{name}_b{len(parts)}" in fields:
        parts.append(fields[f"{name}_b{len(parts)}"])
    if not parts:
        raise KeyError(name)
    return parts


def bitwise_pack(parts, value):
    """(address, placed-bits, bit-mask) per field of ``parts``, placing
    ``value`` one bit at a time, least significant field first."""
    writes = []
    bit = 0
    for field in parts:
        placed = mask = 0
        for position in range(field.lsb, field.msb + 1):
            placed |= (value >> bit & 1) << position
            mask |= 1 << position
            bit += 1
        writes.append((field.address, placed, mask))
    return writes


def channel_writes(regmap, channel, *, feedback=None, output=None, steps=None,
                   enable=None):
    """The packed field writes that set what is given for ``channel``, in
    this order: the feedback divider, the channel's output divider, its
    phase step and its enable bit; each field probed from the map's fields
    and packed one bit at a time.  A step outside -128..127 raises
    ``ValueError``."""
    values = []
    for prefix, divider in (("fb", feedback), (f"ms{channel}", output)):
        if divider is not None:
            values += zip((f"{prefix}_p1", f"{prefix}_p2", f"{prefix}_p3"),
                          encode_divider(divider))
    if steps is not None:
        if not -128 <= steps <= 127:
            raise ValueError(f"steps {steps} outside signed 8-bit range")
        values.append((f"ms{channel}_phstep", steps % 256))
    if enable is not None:
        values.append((f"clk{channel}_en", int(enable)))
    return [write for name, value in values
            for write in bitwise_pack(probing_group(regmap.fields, name), value)]


def write_frame(device, writes, current):
    """The write frame of packed ``writes``: each register they touch once,
    in the order they first name it, its bits the writes leave alone taken
    from ``current`` (address -> value)."""
    folded = {}
    for address, bits, mask in writes:
        folded[address] = folded.get(address, current[address]) & ~mask | bits
    return bytes(byte for address, value in folded.items()
                 for byte in (0xFF, device, address, value))


def bitwise_unpack(parts, read):
    """The value ``parts`` hold, gathered one bit at a time via ``read``."""
    value = bit = 0
    for field in parts:
        for position in range(field.lsb, field.msb + 1):
            value |= (read(field.address) >> position & 1) << bit
            bit += 1
    return value


def divider_from_image(p1, p2, p3, int_min, int_max):
    """The divider whose register image is ``(p1, p2, p3)``, as a
    ``Fraction``, or ``None`` when no legal divider has that image.

    The encoder stores ``P1 = floor(128*d) - 512``, ``P2 = (128*d*P3) mod
    P3`` and ``P3``, the denominator, so ``128*d = P1 + 512 + P2/P3``.  An
    image is legal when its fields fit their 18/30/30 bits, ``0 <= P2 < P3``,
    ``d*P3`` is a whole number and ``floor(d)`` is in range.
    """
    if not (p1 < 2**18 and p2 < 2**30 and p3 < 2**30):
        return None
    if p3 == 0 or p2 >= p3:
        return None
    d = (p1 + 512 + Fraction(p2, p3)) / 128
    if (d * p3).denominator != 1:
        return None
    if not int_min <= math.floor(d) <= int_max:
        return None
    return d


def decode_outputs(read, regmap, cons):
    """The four channels' :class:`ChannelStatus` from the synthesizer registers
    via ``read``: every field gathered bit by bit (:func:`probing_group`,
    :func:`bitwise_unpack`), every divider inverted by
    :func:`divider_from_image`, and the status in ``Fraction`` arithmetic,
    ``f_out = f_vco / output`` and ``phase = steps * (1 / f_vco)``.
    A bad feedback divider or VCO is every channel's problem; otherwise a
    bad output divider is its own channel's."""
    def field(name):
        return bitwise_unpack(probing_group(regmap.fields, name), read)

    def divider(prefix, int_min, int_max):
        return divider_from_image(*(field(f"{prefix}_{p}") for p in ("p1", "p2", "p3")),
                                  int_min, int_max)

    feedback_problem = f_vco = None
    feedback = divider("fb", cons.fb_int_min, cons.fb_int_max)
    if feedback is None:
        feedback_problem = "invalid feedback divider"
    else:
        f_vco = cons.f_in * feedback
        if not cons.vco_min <= f_vco <= cons.vco_max:
            feedback_problem = "vco frequency outside window"
    statuses = []
    for k in range(4):
        enabled = field(f"clk{k}_en") == 1 and field(f"clk{k}_pdn") == 0
        problem, f_out, phase = feedback_problem, None, None
        if problem is None:
            output = divider(f"ms{k}", cons.ms_int_min, cons.ms_int_max)
            if output is None:
                problem = "invalid output divider"
            elif enabled:
                steps = int.from_bytes(bytes([field(f"ms{k}_phstep")]), "big",
                                       signed=True)
                f_out = f_vco / output
                phase = steps * (1 / f_vco)
        statuses.append(ChannelStatus(k, enabled, f_out, phase, problem))
    return statuses


class ReferenceFirmware:
    """The simulated board's firmware, one byte and one frame at a time.

    A receive interrupt buffers each byte (an empty chunk is one interrupt
    with no byte) and, while no flag is raised, frames whole commands: a bad opcode or an address above 0x7F drops the
    frame, a valid one raises the flag at the current tick.  Each step is
    one tick: it serves the raised flag, or else frames buffered commands,
    dropping bad ones, and serves the first valid one in the same tick; a
    step that finds only bad frames drops them all.  A read answers its
    register, or 0xFF from an absent device; a write sets the writable bits.
    Commands are ``(action, address, register, payload)`` tuples, with
    ``"read"``/``"write"`` and a read's payload 0.

    The records keep the board's bound: a record that takes them past
    ``DISPATCH_HISTORY`` drops the oldest ``DISPATCH_HISTORY // 2``.  Trimmed
    a record at a time, they keep the records the board keeps trimming a
    pass at a time.

    ``devices`` maps each address to its register values and write masks,
    copied.  :meth:`state` is what a test compares a board against.
    """

    def __init__(self, devices):
        self.registers = {a: list(values) for a, (values, _masks) in devices.items()}
        self.masks = {a: list(masks) for a, (_values, masks) in devices.items()}
        self.rx, self.tx, self.records = bytearray(), bytearray(), []
        self.pending, self.flag_set_tick, self.tick = None, 0, 0
        self.served = self.dropped = self.worst = 0

    @staticmethod
    def parse(frame):
        opcode, address, register, payload = frame
        if address > 0x7F or opcode not in (0x00, 0xFF):
            return None
        if opcode == 0x00:
            return ("read", address, register, 0)
        return ("write", address, register, payload)

    def _next_frame(self):
        """Take the next whole frame off the buffer, parsed; counts a drop."""
        command = self.parse(self.rx[:4])
        del self.rx[:4]
        if command is None:
            self.dropped += 1
        return command

    def receive(self, data):
        """One receive interrupt per byte of ``data``, or one for an empty
        chunk, which frames what is already buffered."""
        for byte in data:
            self.rx.append(byte)
            self._interrupt()
        if not data:
            self._interrupt()

    def _interrupt(self):
        while self.pending is None and len(self.rx) >= 4:
            command = self._next_frame()
            if command is not None:
                self.pending, self.flag_set_tick = command, self.tick

    def step(self):
        self.tick += 1
        command = self.pending
        if command is None:
            while command is None and len(self.rx) >= 4:
                command = self._next_frame()
            if command is None:
                return  # idle, or only bad frames were buffered
            self.flag_set_tick = self.tick
        self.pending = None
        self.worst = max(self.worst, self.tick - self.flag_set_tick)
        action, address, register, payload = command
        if action == "read":
            values = self.registers.get(address)
            self.tx.append(0xFF if values is None else values[register])
        elif address in self.registers:
            mask = self.masks[address][register]
            values = self.registers[address]
            values[register] = (values[register] & ~mask) | (payload & mask)
        self.records.append((command, self.flag_set_tick, self.tick))
        if len(self.records) > DISPATCH_HISTORY:
            del self.records[:DISPATCH_HISTORY // 2]
        self.served += 1

    def run_until_idle(self):
        while self.pending is not None or len(self.rx) >= 4:
            self.step()

    def state(self):
        """Registers, drained responses, ticks, flags, buffer, records and
        counters; the flags are (write raised, read raised, command, tick)."""
        output, self.tx = bytes(self.tx), bytearray()
        pending = self.pending
        return {
            "registers": {a: bytes(values) for a, values in self.registers.items()},
            "output": output,
            "ticks": self.tick,
            "flags": (pending is not None and pending[0] == "write",
                      pending is not None and pending[0] == "read",
                      pending, self.flag_set_tick),
            "rx": bytes(self.rx),
            "records": list(self.records),
            "counters": (self.served, self.dropped, self.worst),
        }
