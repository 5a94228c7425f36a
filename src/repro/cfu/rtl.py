"""RTL-side CFU: the standard port bundle and a cycle-accurate adapter.

The port bundle follows the CFU Playground / VexRiscv CFU bus: a
valid/ready command channel carrying (funct3, funct7, in0, in1) and a
valid/ready response channel carrying the 32-bit output.
"""

from __future__ import annotations

from ..rtl import Module, Signal, Simulator, estimate
from .interface import CfuError


class CfuPorts:
    """The CPU<->CFU handshake signals."""

    def __init__(self):
        self.cmd_valid = Signal(1, name="cmd_valid")
        self.cmd_ready = Signal(1, name="cmd_ready")
        self.cmd_funct3 = Signal(3, name="cmd_funct3")
        self.cmd_funct7 = Signal(7, name="cmd_funct7")
        self.cmd_in0 = Signal(32, name="cmd_in0")
        self.cmd_in1 = Signal(32, name="cmd_in1")
        self.rsp_valid = Signal(1, name="rsp_valid")
        self.rsp_ready = Signal(1, name="rsp_ready")
        self.rsp_out = Signal(32, name="rsp_out")

    def all(self):
        return [
            self.cmd_valid, self.cmd_ready, self.cmd_funct3, self.cmd_funct7,
            self.cmd_in0, self.cmd_in1, self.rsp_valid, self.rsp_ready,
            self.rsp_out,
        ]


class RtlCfu:
    """Base class for gateware CFUs written in the RTL DSL.

    Subclasses implement :meth:`elaborate`, wiring their logic between
    ``self.ports`` inside ``self.module``.
    """

    name = "rtl-cfu"

    def __init__(self):
        self.ports = CfuPorts()
        self.module = Module(self.name)
        self.elaborate(self.module, self.ports)

    def elaborate(self, m, ports):
        raise NotImplementedError

    def resources(self):
        return estimate(self.module)

    def verilog(self):
        from ..rtl import emit_verilog

        return emit_verilog(self.module, ports=self.ports.all())


def input_slots(sim, ports):
    """The six CPU-driven ports of ``sim`` as :meth:`Simulator.input_slot`
    pairs, in :func:`handshake`'s order."""
    return tuple(sim.input_slot(signal) for signal in (
        ports.cmd_valid, ports.cmd_funct3, ports.cmd_funct7,
        ports.cmd_in0, ports.cmd_in1, ports.rsp_ready))


def handshake(sim, slots, ports, funct3, funct7, a, b, timeout, name):
    """One CFU instruction on a scalar simulator; returns ``(result,
    cycles)``, cycles counted from command acceptance to response.

    Every clock is one ``settle()`` and one ``edge()``.  The op leaves
    the simulator edge-pending: the final edge's comb pass is the next
    op's post-poke settle.
    """
    (valid, kv), (f3, k3), (f7, k7), (in0, k0), (in1, k1), (ready, kr) \
        = slots
    valid[kv] = 1
    f3[k3] = funct3 & 0x7
    f7[k7] = funct7 & 0x7F
    in0[k0] = a & 0xFFFFFFFF
    in1[k1] = b & 0xFFFFFFFF
    ready[kr] = 1
    settle, edge, peek = sim.settle, sim.edge, sim.peek
    settle()
    # Wait for the CFU to accept the command.
    waited = 0
    while not peek(ports.cmd_ready):
        edge()
        waited += 1
        if waited > timeout:
            raise CfuError(f"{name}: command never accepted")
        settle()
    # Cycle 1: command presented and accepted.  A combinational CFU
    # answers within this cycle; sequential CFUs answer after one or
    # more clock edges.
    cycles = 1
    if not peek(ports.rsp_valid):
        edge()  # the command is latched
        valid[kv] = 0
        settle()
        while not peek(ports.rsp_valid):
            edge()
            cycles += 1
            if cycles > timeout:
                raise CfuError(f"{name}: no response after {cycles} cycles")
            settle()
        cycles += 1
    result = peek(ports.rsp_out)
    edge()  # response consumed, instruction retired
    valid[kv] = 0
    return result, cycles


class RtlCfuAdapter:
    """Drives an :class:`RtlCfu` through its handshake, cycle-accurately.

    Presents the same ``execute`` protocol as :class:`CfuModel`, so the
    ISA machine (or the golden-test harness) can run against real
    gateware.  Reported latency is the measured number of clock cycles
    from command acceptance to response.

    After :meth:`execute` the simulator is edge-pending (see
    :func:`handshake`): call ``self.sim.settle()`` before peeking a
    combinational signal.
    """

    def __init__(self, rtl_cfu, timeout=4096, backend="auto"):
        self.rtl = rtl_cfu
        self.backend = backend
        self.ports = rtl_cfu.ports
        self.timeout = timeout
        self.name = f"{rtl_cfu.name} (rtl)"
        self.reset()

    def reset(self):
        # The compiled program is cached per module, so this re-inits
        # slot and memory state without re-elaborating or re-scheduling.
        self.sim = Simulator(self.rtl.module, backend=self.backend)
        self._slots = input_slots(self.sim, self.ports)

    def snapshot_state(self):
        """Capture the live simulator state (both backends)."""
        sim = self.sim
        if hasattr(sim, "_vals"):  # compiled backend: flat slot list
            return {"backend": "compiled", "vals": list(sim._vals),
                    "extra": dict(sim._extra),
                    "mems": [list(state) for state in sim._mems],
                    "time": sim.time}
        return {"backend": "interp", "env": dict(sim.env),
                "mems": {mem: list(state)
                         for mem, state in sim.mem_state.items()},
                "time": sim.time}

    def restore_state(self, state):
        """Restore a :meth:`snapshot_state` in place: signal and memory
        containers keep their identity, so resolved input slots stay
        valid."""
        sim = self.sim
        if state["backend"] == "compiled":
            if not hasattr(sim, "_vals"):
                raise ValueError("snapshot was taken on the compiled backend")
            sim._vals[:] = state["vals"]
            sim._extra.clear()
            sim._extra.update(state["extra"])
            for live, saved in zip(sim._mems, state["mems"]):
                live[:] = saved
        else:
            if hasattr(sim, "_vals"):
                raise ValueError("snapshot was taken on the interp backend")
            sim.env.clear()
            sim.env.update(state["env"])
            for mem, saved in state["mems"].items():
                sim.mem_state[mem][:] = saved
        sim.time = state["time"]

    def execute(self, funct3, funct7, a, b):
        return handshake(self.sim, self._slots, self.ports, funct3,
                         funct7, a, b, self.timeout, self.name)

    def resources(self):
        return self.rtl.resources()


class BatchRtlCfuDriver:
    """Drives N independent op sequences through one
    :class:`~repro.rtl.BatchSimulator` of an :class:`RtlCfu`.

    Scalar lanes share no state, so each runs its sequence through
    :func:`handshake` on its own simulator.  The batched program runs
    all lanes in lockstep, replaying the handshake per lane as a little
    state machine on the shared clock: present-and-wait for
    ``cmd_ready``, latch, wait for ``rsp_valid``, consume, then present
    the lane's next op immediately (:func:`handshake`'s write order).
    Per-lane results *and* cycle counts are bit-identical to the scalar
    adapter's on every backend.
    """

    def __init__(self, rtl_cfu, lanes, timeout=4096, backend="auto"):
        from ..rtl import BatchSimulator  # lazy: pulls in NumPy

        self.rtl = rtl_cfu
        self.ports = rtl_cfu.ports
        self.lanes = int(lanes)
        self.timeout = timeout
        self.sim = BatchSimulator(rtl_cfu.module, lanes=self.lanes,
                                  backend=backend)
        self.backend = self.sim.backend
        self.name = f"{rtl_cfu.name} (rtl x{self.lanes})"

    def reset(self):
        self.sim = type(self.sim)(self.rtl.module, lanes=self.lanes)

    def run(self, sequences):
        """Run one op sequence per lane; lanes may have different
        lengths (short lanes idle with ``cmd_valid`` low once done).

        Returns a list of ``[(result, cycles), ...]`` per lane.

        The lockstep handshake bookkeeping is vectorized: lane states,
        op cursors, and results live in whole-lane ndarrays, so a clock
        of N lanes costs a fixed number of array operations rather than
        a Python loop over lanes.
        """
        if len(sequences) != self.lanes:
            raise ValueError(
                f"{self.name}: {len(sequences)} sequences for "
                f"{self.lanes} lanes")
        sim, ports = self.sim, self.ports
        # Batch-level tracers observe every lane at every clock, so a
        # traced scalar-lanes simulator keeps the lockstep loop.
        if sim.backend == "scalar-lanes" and not sim._tracers:
            results = []
            for lane, (one, sequence) in enumerate(zip(sim.sims, sequences)):
                slots = input_slots(one, ports)
                name = f"{self.name}: lane {lane}"
                results.append([handshake(one, slots, ports, *op,
                                          self.timeout, name)
                                for op in sequence])
            sim.time = max(one.time for one in sim.sims)
            return results
        import numpy as np

        lanes = self.lanes
        PRESENT, WAIT_RSP, DONE = 0, 1, 2
        lengths = np.array([len(s) for s in sequences], dtype=np.int64)
        max_len = max(int(lengths.max(initial=0)), 1)
        # Per-lane op streams, padded to the longest lane.  Padding (and
        # the fields a done lane keeps gathering) replays the scalar
        # adapter's behaviour of leaving the last op's fields on the bus
        # with cmd_valid low.
        try:
            # One C-level conversion of the whole op table; an op field
            # outside int64 falls back to the per-field Python loop.
            table = np.array(
                [[field for op in sequence for field in op]
                 + [0] * (4 * (max_len - len(sequence)))
                 for sequence in sequences],
                dtype=np.int64).reshape(lanes, max_len, 4)
            op_f3 = (table[:, :, 0] & 0x7).astype(np.uint64)
            op_f7 = (table[:, :, 1] & 0x7F).astype(np.uint64)
            op_a = (table[:, :, 2] & 0xFFFFFFFF).astype(np.uint64)
            op_b = (table[:, :, 3] & 0xFFFFFFFF).astype(np.uint64)
        except OverflowError:
            op_f3 = np.zeros((lanes, max_len), dtype=np.uint64)
            op_f7 = np.zeros((lanes, max_len), dtype=np.uint64)
            op_a = np.zeros((lanes, max_len), dtype=np.uint64)
            op_b = np.zeros((lanes, max_len), dtype=np.uint64)
            for lane, sequence in enumerate(sequences):
                for index, (funct3, funct7, a, b) in enumerate(sequence):
                    op_f3[lane, index] = funct3 & 0x7
                    op_f7[lane, index] = funct7 & 0x7F
                    op_a[lane, index] = a & 0xFFFFFFFF
                    op_b[lane, index] = b & 0xFFFFFFFF
        state = np.where(lengths > 0, PRESENT, DONE).astype(np.int8)
        op_index = np.zeros(lanes, dtype=np.int64)
        # Clock at which each lane's in-flight op was accepted; the
        # per-op cycle count is recovered as clock - acc_clk + 1 at
        # consume time, so wait clocks cost no bookkeeping.
        acc_clk = np.zeros(lanes, dtype=np.int64)
        waited = np.zeros(lanes, dtype=np.int64)
        res_out = np.zeros((lanes, max_len), dtype=np.uint64)
        res_cyc = np.zeros((lanes, max_len), dtype=np.int64)
        lane_ids = np.arange(lanes)

        def poke_command():
            index = np.minimum(op_index, lengths - 1).clip(min=0)
            sim.poke(ports.cmd_valid,
                     (state == PRESENT).astype(np.uint64))
            sim.poke(ports.cmd_funct3, op_f3[lane_ids, index])
            sim.poke(ports.cmd_funct7, op_f7[lane_ids, index])
            sim.poke(ports.cmd_in0, op_a[lane_ids, index])
            sim.poke(ports.cmd_in1, op_b[lane_ids, index])

        sim.poke(ports.rsp_ready, 1)
        poke_command()
        clock = 0
        active = int(np.count_nonzero(lengths > 0))
        while active:
            sim.settle()
            ready = sim.peek_lanes(ports.cmd_ready, copy=False) != 0
            valid = sim.peek_lanes(ports.rsp_valid, copy=False) != 0
            presenting = state == PRESENT
            accepted = presenting & ready
            stalled_cmd = presenting ^ accepted
            waiting = state == WAIT_RSP
            responded = waiting & valid
            # Stall/wait counters grow by at most 1 per clock, so no
            # lane can hit the timeout before ``timeout`` total clocks —
            # skip the per-lane checks until then.
            if clock >= self.timeout:
                if (waited[stalled_cmd] >= self.timeout).any():
                    lane = int(np.flatnonzero(
                        stalled_cmd & (waited >= self.timeout))[0])
                    raise CfuError(
                        f"{self.name}: lane {lane} command never accepted")
                pending = clock - acc_clk + 1
                no_rsp = waiting & ~valid
                if (pending[no_rsp] >= self.timeout).any():
                    lane = int(np.flatnonzero(
                        no_rsp & (pending >= self.timeout))[0])
                    raise CfuError(
                        f"{self.name}: lane {lane} got no response after "
                        f"{int(pending[lane])} cycles")
            clock += 1
            if stalled_cmd.any():
                waited[stalled_cmd] += 1
            answered = accepted & valid
            consumed = answered | responded
            latched = accepted ^ answered
            # Most clocks of a multi-cycle CFU are pure waits; gate the
            # fancy-indexed bookkeeping on something actually happening
            # so a wait clock costs only the handshake classification.
            has_accepted = bool(accepted.any())
            has_consumed = bool(consumed.any())
            if has_accepted:
                acc_clk[accepted] = clock
            if has_consumed:
                out = sim.peek_lanes(ports.rsp_out, copy=False)
                hit = op_index[consumed]
                res_out[consumed, hit] = out[consumed]
                res_cyc[consumed, hit] = clock - acc_clk[consumed] + 1
            # Nothing was poked since settle(), so a bare clock edge is
            # equivalent to (and 3x cheaper than) a full tick() here.
            sim.edge()
            # Bus updates below take effect at the next settle — after
            # the edge, in handshake's write order.
            if has_accepted or has_consumed:
                if latched.any():
                    state[latched] = WAIT_RSP
                if has_consumed:
                    op_index[consumed] += 1
                    advancing = consumed & (op_index < lengths)
                    finished = consumed & ~advancing
                    state[finished] = DONE
                    state[advancing] = PRESENT
                    waited[advancing] = 0
                    active -= int(np.count_nonzero(finished))
                poke_command()
        # .tolist() converts to Python ints at C speed; zip trims each
        # lane back to its unpadded length.
        out_rows = res_out.tolist()
        cyc_rows = res_cyc.tolist()
        return [
            list(zip(out_rows[lane][:len(sequence)],
                     cyc_rows[lane][:len(sequence)]))
            for lane, sequence in enumerate(sequences)
        ]


class CombinationalCfu(RtlCfu):
    """Helper base: single-cycle CFUs that compute a pure function.

    Subclasses implement :meth:`datapath(m, ports) -> Value` returning
    the 32-bit result expression; handshake glue is provided here.
    """

    def elaborate(self, m, ports):
        m.d.comb += ports.cmd_ready.eq(1)
        m.d.comb += ports.rsp_valid.eq(ports.cmd_valid)
        m.d.comb += ports.rsp_out.eq(self.datapath(m, ports))

    def datapath(self, m, ports):
        raise NotImplementedError
