"""Batched compiled simulation: N module instances per Python step.

The compiled backend (:mod:`repro.rtl.compile`) removed per-expression
interpretation overhead, but still advances exactly *one* module
instance per ``comb``/``tick`` call.  Randomized equivalence sweeps,
golden CFU corpora, and DSE latency characterization all run many
independent instances of the *same* netlist — a per-instance Python
dispatch loop.  This module turns that instance axis into a NumPy axis:

- Every signal slot holds either a lane-uniform Python int or an
  N-lane ``uint64`` ndarray (one element per instance).  All values are
  64-bit *patterns*: intermediate expression nodes wider than 64 bits
  (e.g. the 65-bit sum of a 64-bit accumulator and a 32x32 product) are
  carried modulo 2**64, which is exact for every consumer that only
  needs the value modulo a final mask (`+ - * & | ^ << ~` and masked
  assignment).  Consumers that need exact wide values — right shifts,
  comparisons, reductions, guard/Mux truthiness — first try an interval
  analysis (:func:`_vrange`) proving the value fits a 64-bit lane; the
  rare nodes it cannot prove (a TFLM requantize reaches +/-2**63
  inclusive at its static corners) are evaluated exactly with
  object-dtype lanes of Python ints and converted back to patterns, so
  arbitrary-width netlists still batch bit-exactly.
- Guarded assignments become lane-masked selects
  (``acc = _sel(guard, value, acc)``), preserving later-assignment-wins
  and comb reset-fallback independently per lane.
- Memories become ``(lanes, depth)`` ``uint64`` arrays; sync read ports
  still observe pre-write contents (read-before-write), and write
  enables become boolean row masks.

Slot arrays are never mutated in place — ``comb``/``tick`` rebind fresh
(or aliased) arrays — so pokes can share arrays with callers safely.
Memory arrays *are* mutated in place, so every memory read copies.

``BatchSimulator(module, lanes=N)`` is the public entry point.  With
``backend="auto"`` it picks by lane count: below
:data:`BATCH_MIN_LANES` lanes, where per-clock NumPy dispatch costs
more than it saves, it runs N lockstep scalar
:class:`~repro.rtl.sim.Simulator` instances behind the same API
(``"scalar-lanes"``) and never compiles the batched program.  Their
lanes are plain simulators, so
:class:`~repro.cfu.rtl.BatchRtlCfuDriver` runs them one lane at a time
through the scalar CFU handshake, with no shared clock.  From
:data:`BATCH_MIN_LANES` up it runs the lane-parallel program, unless
the netlist cannot be batched (combinational cycle, a >64-bit signal
or memory, or a construct listed in :func:`_batch_block_reason`), in
which case it also falls back to scalar lanes.  ``backend="batched"``
forces the lane-parallel program at any lane count and raises where
it cannot be built; ``backend="scalar"`` forces scalar lanes.
Per-lane results are bit identical to the scalar compiled simulator
on every path (:mod:`tests.test_rtl_batched` is the differential
proof).

The generated source is lane-count independent (lane geometry lives in
the runtime helpers exec'd alongside it), so it is content-addressed
and persisted in the same :class:`~repro.core.codecache.CodeCache` as
the scalar backend, under a separate schema key.
"""

from __future__ import annotations

import re
import weakref

import numpy as np

from .ast import Cat, Const, Mux, Operator, Reinterpret, Repl, Signal, \
    Slice, to_signed, to_unsigned
from .compile import (
    CompileError,
    _Codegen,
    _comb_schedule,
    _elaborate,
    _sync_groups,
)
from .sim import Simulator

_M64 = (1 << 64) - 1

#: Bumped whenever the generated batched comb/tick source shape changes.
BATCH_SCHEMA = 4

#: ``backend="auto"`` runs the lane-parallel program from this many
#: lanes up and scalar lanes below it: under it, per-clock NumPy
#: dispatch costs more than one compiled comb and sync pass per lane
#: and clock.  Set from the lane curve in ``BENCH_rtl.json``
#: (``batched.lane_curve``): every shipped CFU's crossover is at or
#: below it.
BATCH_MIN_LANES = 64

#: Process-wide generator activity for the batched code generator
#: (mirrors ``compile.codegen_count`` / ``compile.cache_bind_count``).
batch_codegen_count = 0
batch_cache_bind_count = 0


class BatchCompileError(CompileError):
    """The module uses a construct the batched backend cannot vectorize."""


# --- value-range analysis -------------------------------------------------------
#
# Lane atoms carry values modulo 2**64, which is congruence-exact for
# every masked consumer.  The consumers that need *exact* values —
# right shifts, comparisons, zero tests, reductions — are still fine on
# the fast uint64 path as long as the node's true value range fits a
# 64-bit integer, even when its nominal AST width is wider: widths grow
# conservatively (a 32x32 product plus a rounding constant is nominally
# 65+ bits but rarely leaves int64).  A small interval analysis proves
# that where possible; the leftovers are evaluated exactly on the
# object-dtype path (see ``_bigs``/``_bigu``/``_pat`` below), so range
# precision only affects speed, never correctness.

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: Nodes wider than this force the scalar-lane fallback: the exact
#: object path materializes per-lane Python ints of the node's width,
#: so an unbounded width (a shift by a 64-bit amount is nominally
#: 2**64+ bits) must not reach code generation.
_MAX_NODE_WIDTH = 4096


def _fits_i64(bounds):
    lo, hi = bounds
    return _I64_MIN <= lo and hi <= _I64_MAX


def _fits_u64(bounds):
    lo, hi = bounds
    return 0 <= lo and hi <= _M64


def _default_range(node):
    if node.signed:
        return (-(1 << (node.width - 1)), (1 << (node.width - 1)) - 1)
    return (0, (1 << node.width) - 1)


def _vrange(node, memo):
    """Conservative (lo, hi) bounds on the node's numeric value.

    Refined ranges are only propagated when they fit the node's own
    width-derived range (i.e. when the evaluator's final mask provably
    does not wrap), so the result is sound regardless of shape rules.
    """
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    default = _default_range(node)
    candidate = None
    if isinstance(node, Const):
        value = to_signed(node.value, node.width) if node.signed \
            else node.value
        candidate = (value, value)
    elif isinstance(node, Operator):
        op, ops = node.op, node.ops
        if op in ("+", "-", "*", "neg"):
            alo, ahi = _vrange(ops[0], memo)
            if op == "neg":
                candidate = (-ahi, -alo)
            else:
                blo, bhi = _vrange(ops[1], memo)
                if op == "+":
                    candidate = (alo + blo, ahi + bhi)
                elif op == "-":
                    candidate = (alo - bhi, ahi - blo)
                else:
                    corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
                    candidate = (min(corners), max(corners))
        elif op in ("<<", ">>"):
            alo, ahi = _vrange(ops[0], memo)
            if isinstance(ops[1], Const):
                smin = smax = ops[1].value
            else:
                smin, smax = 0, (1 << ops[1].width) - 1
            if smax <= 4096:  # keep the interval arithmetic cheap
                if op == "<<":
                    corners = (alo << smin, alo << smax,
                               ahi << smin, ahi << smax)
                else:
                    corners = (alo >> smin, alo >> smax,
                               ahi >> smin, ahi >> smax)
                candidate = (min(corners), max(corners))
        elif op == "&":
            # AND with a provably nonnegative operand can only clear
            # bits: the result lands in [0, that operand's max] as long
            # as the operand survives the node-width mask unchanged.
            bounds = []
            for operand in ops:
                olo, ohi = _vrange(operand, memo)
                if olo >= 0 and ohi < (1 << node.width):
                    bounds.append(ohi)
            if bounds:
                candidate = (0, min(bounds))
        elif op in ("|", "^"):
            (alo, ahi), (blo, bhi) = (_vrange(ops[0], memo),
                                      _vrange(ops[1], memo))
            if alo >= 0 and blo >= 0 and ahi < (1 << node.width) \
                    and bhi < (1 << node.width):
                bits = max(ahi.bit_length(), bhi.bit_length())
                candidate = (0, (1 << bits) - 1)
    elif isinstance(node, Reinterpret) and node.value.width == node.width:
        ilo, ihi = _vrange(node.value, memo)
        if default[0] <= ilo and ihi <= default[1]:
            # Every inner value's bit pattern round-trips to the same
            # value under this node's own interpretation.
            candidate = (ilo, ihi)
    elif isinstance(node, Mux):
        tlo, thi = _vrange(node.if_true, memo)
        flo, fhi = _vrange(node.if_false, memo)
        candidate = (min(tlo, flo), max(thi, fhi))
    if candidate is not None and default[0] <= candidate[0] \
            and candidate[1] <= default[1]:
        result = candidate  # the final width mask provably never wraps
    else:
        result = default
    memo[id(node)] = result
    return result


def _node_block_reason(node):
    """Why this expression node cannot run on batched lanes at all."""
    if node.width > _MAX_NODE_WIDTH:
        return (f"expression node is {node.width} bits wide (exact "
                f"evaluation is capped at {_MAX_NODE_WIDTH})")
    if isinstance(node, Operator) and node.op in ("<<", ">>") \
            and not isinstance(node.ops[1], Const) \
            and node.ops[1].width > 64:
        return "shift amount wider than 64 bits"
    return None


def _batch_block_reason(netlist):
    """First reason the netlist cannot be batched, or None."""
    for sig in netlist.signals:
        if sig.width > 64:
            return (f"signal {sig.name} is {sig.width} bits wide "
                    f"(lane slots are 64-bit)")
    for mem in netlist.memories:
        if mem.width > 64:
            return (f"memory is {mem.width} bits wide "
                    f"(lane slots are 64-bit)")
    roots = []
    for stmt in netlist.comb_stmts + netlist.sync_stmts:
        roots.append(stmt.rhs)
        if stmt.guard is not None:
            roots.append(stmt.guard)
    for mem in netlist.memories:
        for rp in mem.read_ports:
            roots.append(rp.addr)
        for wp in mem.write_ports:
            roots.extend((wp.en, wp.addr, wp.data))
    seen, stack = set(), roots
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        reason = _node_block_reason(node)
        if reason is not None:
            return reason
        if not isinstance(node, Signal):
            stack.extend(node.operands())
    return None


# --- lane runtime ---------------------------------------------------------------


def _i64(v):
    """Reinterpret a 64-bit pattern as a signed value (two's complement)."""
    if isinstance(v, np.ndarray):
        return v.view(np.int64)
    return v - (1 << 64) if v >= (1 << 63) else v


def _b01(c):
    """Boolean (scalar or lane array) -> 0/1 pattern."""
    if isinstance(c, np.ndarray):
        return c.astype(np.uint64)
    return 1 if c else 0


def _w64(v):
    """Reduce modulo 2**64: free on uint64 lanes (native wraparound),
    one mask on lane-uniform Python ints."""
    if isinstance(v, np.ndarray):
        return v
    return v & _M64


def _sel(c, t, f):
    """Lane-wise ``t if c else f`` on patterns; ``c`` is a pattern too
    (``np.where`` treats any nonzero element as true, so no ``!= 0``)."""
    if isinstance(c, np.ndarray):
        if not isinstance(t, np.ndarray):
            t = np.uint64(t)
        if not isinstance(f, np.ndarray):
            f = np.uint64(f)
        return np.where(c, t, f)
    return t if c else f


def _par(v):
    """Parity (xor-reduce) of a 64-bit pattern."""
    v = v ^ (v >> 32)
    v = v ^ (v >> 16)
    v = v ^ (v >> 8)
    v = v ^ (v >> 4)
    v = v ^ (v >> 2)
    v = v ^ (v >> 1)
    return v & 1


def _shl(v, s):
    """``v << s`` with shifts >= 64 yielding 0 (NumPy leaves them UB)."""
    if isinstance(s, np.ndarray):
        if not isinstance(v, np.ndarray):
            v = np.uint64(v)
        return np.where(s >= 64, np.uint64(0), v << (s & np.uint64(63)))
    s = int(s)
    return 0 if s >= 64 else v << s


def _srl(v, s):
    """Logical ``v >> s`` with shifts >= 64 yielding 0."""
    if isinstance(s, np.ndarray):
        if not isinstance(v, np.ndarray):
            v = np.uint64(v)
        return np.where(s >= 64, np.uint64(0), v >> (s & np.uint64(63)))
    s = int(s)
    return 0 if s >= 64 else v >> s


def _sra(v, s):
    """Arithmetic shift of a 64-bit pattern; shifts saturate at 63
    (sign fill), matching Python's unbounded ``>>`` on the signed value."""
    v = _i64(v)
    if isinstance(s, np.ndarray):
        s = np.minimum(s, np.uint64(63)).astype(np.int64)
    else:
        s = min(int(s), 63)
    r = v >> s
    if isinstance(r, np.ndarray):
        return r.view(np.uint64)
    return r & _M64


# Exact-arithmetic escape hatch: the rare nodes whose true value range
# provably fits neither int64 nor uint64 (TFLM requantize products hit
# +/-2**63 inclusive at their static corners) are computed on
# object-dtype lanes of exact Python ints, then folded back to uint64
# patterns.  Slow per element, but such cones are a handful of nodes.


def _bigs(v):
    """Signed value of a mod-2**64 pattern, as exact Python ints."""
    if isinstance(v, np.ndarray):
        return v.view(np.int64).astype(object)
    return v - (1 << 64) if v >= (1 << 63) else v


def _bigu(v):
    """Unsigned 64-bit pattern widened to exact Python ints."""
    if isinstance(v, np.ndarray):
        return v.astype(object)
    return v


def _pat(v):
    """Exact nonnegative per-lane ints (< 2**64) back to uint64."""
    if isinstance(v, np.ndarray):
        return v.astype(np.uint64)
    return v


def _selw(c, t, f):
    """``_sel`` for the exact path: no uint64 coercion of the arms."""
    if isinstance(c, np.ndarray):
        if not isinstance(t, np.ndarray):
            t = np.full(len(c), t, dtype=object)
        if not isinstance(f, np.ndarray):
            f = np.full(len(c), f, dtype=object)
        return np.where(c, t, f)
    return t if c else f


def _parw(v, width):
    """Parity of an exact nonnegative ``width``-bit pattern."""
    span = 1
    while span < width:
        span <<= 1
    span >>= 1
    while span:
        v = v ^ (v >> span)
        span >>= 1
    return v & 1


def _lane_runtime(lanes):
    """Exec namespace for the generated source: the helpers above plus
    the two memory accessors that need the lane geometry."""
    lane_index = np.arange(lanes)

    def _mrd(m, a, depth):
        # Reads copy: memory arrays are mutated in place by _mwr.
        if isinstance(a, np.ndarray):
            return m[lane_index, a % depth]
        return m[:, int(a) % depth].copy()

    def _mwr(m, en, a, d, depth, mask):
        if isinstance(en, np.ndarray):
            sel = en != 0
            if not sel.any():
                return
            a = (a[sel] % depth) if isinstance(a, np.ndarray) \
                else int(a) % depth
            d = (d[sel] & mask) if isinstance(d, np.ndarray) else d & mask
            m[sel, a] = d
        elif en:
            d = d & mask
            if isinstance(a, np.ndarray):
                m[lane_index, a % depth] = d
            else:
                m[:, int(a) % depth] = d

    return {
        "np": np, "_i64": _i64, "_b01": _b01, "_sel": _sel, "_par": _par,
        "_shl": _shl, "_srl": _srl, "_sra": _sra, "_mrd": _mrd, "_mwr": _mwr,
        "_bigs": _bigs, "_bigu": _bigu, "_pat": _pat, "_selw": _selw,
        "_parw": _parw, "_w64": _w64,
    }


# --- code generation ------------------------------------------------------------


class _BatchCodegen(_Codegen):
    """Lowers expression trees to lane-parallel NumPy statements.

    Atoms hold 64-bit *patterns* — exact for nodes of width <= 64,
    modulo 2**64 beyond that (see the module docstring for why that is
    sufficient).  ``u()`` memoizes the pattern atom; :meth:`p` memoizes
    the sign-extended-to-64 pattern (the node's signed numeric value
    modulo 2**64), which replaces the scalar generator's Python-int
    ``num()`` conditional.

    Consumers that need *exact* values (comparisons, right shifts,
    reductions, zero tests, wide slices/guards/addresses) ask
    :meth:`big` / :meth:`bigp`, which reconstruct them from the pattern
    atoms when the interval analysis proves they fit 64 bits and
    otherwise recurse into :meth:`wide` — an object-dtype lowering that
    mirrors the interpreter's unbounded Python-int semantics node for
    node.
    """

    _SLOT_WRITE = re.compile(r"^V\[(\d+)\] = ")
    _SLOT_REF = re.compile(r"V\[(\d+)\]")
    _MEM_WRITE = re.compile(r"_mwr\(_m(\d+)")
    _MEM_REF = re.compile(r"_m(\d+)\b")

    def __init__(self, slot_of):
        super().__init__(slot_of)
        self._ranges = {}
        self._cse = {}
        self._slot_version = {}
        self._mem_version = {}

    def _rng(self, node):
        return _vrange(node, self._ranges)

    def temp(self, expr):
        """Value-numbered :meth:`_Codegen.temp`: structurally identical
        expressions (guard-priority chains rebuilt per statement, a
        field extracted by several registers) collapse to one atom.

        Node-identity memoization alone misses these because the DSL
        builds a fresh expression tree per assignment.  Keys carry the
        write version of every ``V[n]`` slot / ``_mN`` memory the
        expression reads, so a reuse never crosses an intervening
        assignment to one of its inputs.
        """
        versions = tuple(
            (slot, self._slot_version.get(slot, 0))
            for slot in sorted(
                {int(s) for s in self._SLOT_REF.findall(expr)})
        ) + tuple(
            (~index, self._mem_version.get(index, 0))
            for index in sorted(
                {int(s) for s in self._MEM_REF.findall(expr)})
        )
        key = (expr, versions)
        atom = self._cse.get(key)
        if atom is None:
            atom = self._cse[key] = super().temp(expr)
        return atom

    def emit(self, line):
        match = self._SLOT_WRITE.match(line)
        if match:
            slot = int(match.group(1))
            self._slot_version[slot] = self._slot_version.get(slot, 0) + 1
        for match in self._MEM_WRITE.finditer(line):
            index = int(match.group(1))
            self._mem_version[index] = self._mem_version.get(index, 0) + 1
        super().emit(line)

    def p(self, node):
        """Atom holding the node's numeric value as a mod-2**64 pattern."""
        if not node.signed or node.width >= 64:
            return self.u(node)
        if self._rng(node)[0] >= 0:  # provably nonneg: sign bit clear
            return self.u(node)
        key = (id(node), "p")
        atom = self._memo.get(key)
        if atom is None:
            sign = 1 << (node.width - 1)
            atom = self.temp(f"_w64(({self.u(node)} ^ {sign}) - {sign})")
            self._memo[key] = atom
        return atom

    def num(self, node):  # pragma: no cover - guard against base-class use
        raise NotImplementedError("batched codegen lowers via p(), not num()")

    def _unsigned_at(self, operand, width):
        if operand.width <= width and (not operand.signed
                                       or self._rng(operand)[0] >= 0):
            return self.u(operand)
        if operand.width == min(width, 64):
            # value mod 2**width == the pattern itself, signed or not
            return self.u(operand)
        return f"({self.p(operand)}) & {(1 << min(width, 64)) - 1}"

    def _masked(self, expr, mask, bounds):
        """``(expr) & mask``, eliding the mask when the raw (pre-mask)
        result provably already fits it (nonnegative, no high bits to
        clear).  ``bounds`` must bound the *unmasked* expression — node
        ranges from :func:`_vrange` describe the post-mask value and
        are NOT valid here.  A full 64-bit mask becomes :func:`_w64` —
        free on uint64 lanes."""
        if bounds is not None and bounds[0] >= 0 and bounds[1] <= mask:
            return expr
        if mask == _M64:
            return f"_w64({expr})"
        return f"({expr}) & {mask}"

    @staticmethod
    def _interval(op, a, b=None):
        """Interval arithmetic for an unmasked ``+ - * neg`` result."""
        if op == "neg":
            return (-a[1], -a[0])
        if op == "+":
            return (a[0] + b[0], a[1] + b[1])
        if op == "-":
            return (a[0] - b[1], a[1] - b[0])
        corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
        return (min(corners), max(corners))

    def _raw_bounds(self, op, ops):
        """Interval of the unmasked arithmetic result, from the
        (post-mask, hence atom-accurate) operand ranges."""
        if op == "neg":
            return self._interval(op, self._rng(ops[0]))
        return self._interval(op, self._rng(ops[0]), self._rng(ops[1]))

    def modexpr(self, node, K):
        """Expression correct modulo 2**K (K <= 64), as
        ``(expr, exact, computed)``.

        Mod-2**K arithmetic only depends on the low K bits of its
        operands, so ``+ - * neg`` recurse without canonicalizing
        intermediates — no sign extension, no per-node mask.  Every
        node truncates at its own width semantically, so recursion is
        only legal through a node when that wrap is invisible: its
        width is >= K (truncation preserved mod 2**K), or its raw
        result provably fits its own signed/unsigned range (the DSL
        sizes arithmetic nodes to hold the full result, so this is the
        common case — the wrap is an identity and the node's value IS
        the plain integer op of its operand values).  Other nodes fall
        back to the pattern atom when its low K bits are already the
        value's (width >= K, or provably nonnegative), else to the
        mod-2**64 :meth:`p` atom.  Composites are materialized through
        :meth:`temp`, so a subtree shared by several statements is
        computed once even though it never becomes a canonical atom.

        ``exact``, when not None, is an interval such that the *final*
        reduction ``(expr) & ((1 << K) - 1)`` may be elided whenever
        ``exact[0] >= 0 and exact[1] <= mask``: every leaf on that path
        contributed its true numeric value and a fitting interval makes
        the mod-2**64 representation equal it.  A None exact means the
        expression is only correct modulo 2**K and the caller MUST
        reduce it (``& mask`` / :func:`_w64`) before it escapes.

        ``computed`` bounds the value the emitted expression actually
        holds per lane.  Whenever a composite could leave [0, 2**64)
        it is wrapped in :func:`_w64` here — a negative or >= 2**64
        lane-uniform Python int would blow up NumPy's uint64 coercion
        the moment it meets an ndarray operand (uint64 lanes wrap
        natively, so the wrap costs them nothing).
        """
        key = (id(node), "mod", K)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Operator) and node.op in ("+", "-", "*", "neg") \
                and self._wrap_free(node, K):
            parts = [self.modexpr(operand, K) for operand in node.ops]
            if node.op == "neg":
                expr = f"-({parts[0][0]})"
            else:
                expr = f"({parts[0][0]}) {node.op} ({parts[1][0]})"
            if all(exact is not None for _, exact, _ in parts):
                exact = self._interval(node.op, *(e for _, e, _ in parts))
            else:
                exact = None
            computed = self._interval(node.op, *(c for _, _, c in parts))
            if computed[0] < 0 or computed[1] > _M64:
                expr = f"_w64({expr})"
                computed = (0, _M64)
            result = (self.temp(expr), exact, computed)
        elif not node.signed or self._rng(node)[0] >= 0:
            rng = self._rng(node)  # pattern == value, both described by rng
            result = (self.u(node), rng, rng)
        elif min(node.width, 64) >= K:
            # low K bits already correct; pattern may exceed the value
            result = (self.u(node), None, (0, (1 << min(node.width, 64)) - 1))
        else:
            result = (self.p(node), None, (0, _M64))  # value modulo 2**64
        self._memo[key] = result
        return result

    def _wrap_free(self, node, K):
        """True when the node's own truncation is invisible modulo
        2**K: width >= K, or the raw result provably fits the node's
        representable range (no wrap ever happens)."""
        if min(node.width, 64) >= K:
            return True
        raw = self._raw_bounds(node.op, node.ops)
        if node.signed:
            half = 1 << (node.width - 1)
            return raw[0] >= -half and raw[1] < half
        return raw[0] >= 0 and raw[1] < (1 << node.width)

    def _shift_bounds(self, operand, op, smin, smax):
        """Interval of the unmasked shift result for amounts in
        [smin, smax]."""
        a = self._rng(operand)
        if op == "<<":
            corners = (a[0] << smin, a[0] << smax,
                       a[1] << smin, a[1] << smax)
        else:
            corners = (a[0] >> smin, a[0] >> smax,
                       a[1] >> smin, a[1] >> smax)
        return (min(corners), max(corners))

    # --- exact (object-dtype) lowering -----------------------------------------
    def big(self, node):
        """Atom holding the node's exact numeric value per lane.

        Python ints for lane-uniform values, object-dtype ndarrays
        otherwise — never a fixed-width dtype, so downstream arithmetic
        cannot overflow.
        """
        key = (id(node), "big")
        atom = self._memo.get(key)
        if atom is None:
            bounds = self._rng(node)
            if _fits_i64(bounds):
                atom = self.temp(f"_bigs({self.p(node)})")
            elif _fits_u64(bounds):
                atom = self.temp(f"_bigu({self.u(node)})")
            else:
                atom = self.wide(node)
            self._memo[key] = atom
        return atom

    def bigp(self, node):
        """Exact unsigned bit pattern at the node's full width."""
        key = (id(node), "bigp")
        atom = self._memo.get(key)
        if atom is None:
            bounds = self._rng(node)
            if node.width <= 64 or _fits_u64(bounds):
                atom = self.temp(f"_bigu({self.u(node)})")
            else:
                mask = (1 << node.width) - 1
                value = (f"_bigs({self.p(node)})" if _fits_i64(bounds)
                         else self.wide(node))
                atom = self.temp(f"({value}) & {mask}")
            self._memo[key] = atom
        return atom

    def wide(self, node):
        """Exact value of a node whose range escapes 64 bits."""
        key = (id(node), "wide")
        atom = self._memo.get(key)
        if atom is None:
            raw = self._wide_raw(node)
            if isinstance(node, Operator) \
                    and node.op in ("+", "-", "*", "neg") \
                    and self._wrap_free(node, 65):
                # Raw arithmetic provably fits the node's own range: the
                # canonicalization (mask, then sign-extend) is an
                # identity, and each elided op here is 256 Python-int
                # operations on object-dtype lanes.
                expr = raw
            elif node.signed:
                mask = (1 << node.width) - 1
                sign = 1 << (node.width - 1)
                expr = f"((({raw}) & {mask}) ^ {sign}) - {sign}"
            else:
                expr = f"(({raw})) & {(1 << node.width) - 1}"
            atom = self.temp(expr)
            self._memo[key] = atom
        return atom

    def _wide_raw(self, node):
        """Pre-normalization exact result, mirroring ``_eval_operator``."""
        if isinstance(node, Const):
            return repr(to_signed(node.value, node.width) if node.signed
                        else node.value)
        if isinstance(node, Reinterpret):
            return self.bigp(node.value)
        if isinstance(node, Slice):
            mask = (1 << node.width) - 1
            return (f"(({self.bigp(node.value)}) >> {node.start}) & {mask}")
        if isinstance(node, Cat):
            shift, parts = 0, []
            for part in node.parts:
                atom = f"({self.bigp(part)})"
                parts.append(atom if shift == 0 else f"({atom} << {shift})")
                shift += part.width
            return " | ".join(parts) if parts else "0"
        if isinstance(node, Repl):
            atom = self.bigp(node.value)
            width = node.value.width
            parts = [f"(({atom}) << {i * width})" if i else f"({atom})"
                     for i in range(node.count)]
            return " | ".join(parts) if parts else "0"
        if isinstance(node, Mux):
            return (f"_selw({self.selexpr(node.sel)}, "
                    f"{self.big(node.if_true)}, {self.big(node.if_false)})")
        if isinstance(node, Operator):
            op, ops = node.op, node.ops
            if op in ("+", "-", "*", "&", "|", "^"):
                return f"({self.big(ops[0])}) {op} ({self.big(ops[1])})"
            if op == "neg":
                return f"-({self.big(ops[0])})"
            if op == "~":
                return f"~({self.bigp(ops[0])})"
            if op in ("<<", ">>"):
                # Shift amounts are always <= 64-bit patterns (checked
                # by _node_block_reason); _bigu keeps NumPy's uint64
                # scalars from capturing the Python-int operand.
                amount = (repr(ops[1].value) if isinstance(ops[1], Const)
                          else f"_bigu({self.u(ops[1])})")
                return f"({self.big(ops[0])}) {op} ({amount})"
        raise CompileError(f"cannot exactly evaluate wide node {node!r}")

    def _boolraw(self, node):
        """Comparison atom left as a raw bool (lane array or Python
        bool) — skips the 0/1-pattern conversion for consumers that
        take truthiness directly."""
        key = (id(node), "rawbool")
        atom = self._memo.get(key)
        if atom is None:
            op, ops = node.op, node.ops
            if _fits_u64(self._rng(ops[0])) and _fits_u64(self._rng(ops[1])):
                # Both values provably in [0, 2**64): patterns are the
                # exact values, so unsigned pattern comparison is exact.
                expr = f"({self.u(ops[0])}) {op} ({self.u(ops[1])})"
            elif _fits_i64(self._rng(ops[0])) \
                    and _fits_i64(self._rng(ops[1])):
                expr = f"_i64({self.p(ops[0])}) {op} _i64({self.p(ops[1])})"
            else:
                expr = f"({self.big(ops[0])}) {op} ({self.big(ops[1])})"
            atom = self.temp(expr)
            self._memo[key] = atom
        return atom

    def selexpr(self, node):
        """Atom usable ONLY where truthiness is consumed directly
        (``_sel``/``_selw`` select, statement guard, memory write
        enable): comparisons stay raw bools, saving the 0/1 uint64
        conversion.  Never feed the result to arithmetic."""
        if isinstance(node, Operator) \
                and node.op in ("==", "!=", "<", "<=", ">", ">="):
            return self._boolraw(node)
        return self.boolexpr(node)

    def boolexpr(self, node):
        """Atom usable as a lane condition (guard / Mux select / write
        enable): nonzero exactly when the node's full-width pattern is."""
        bounds = self._rng(node)
        # |value| < 2**64 makes pattern-mod-2**64 truthiness exact.
        if node.width <= 64 or (bounds[0] > -(1 << 64)
                                and bounds[1] < (1 << 64)):
            return self.u(node)
        key = (id(node), "bool")
        atom = self._memo.get(key)
        if atom is None:
            atom = self.temp(f"_b01(({self.big(node)}) != 0)")
            self._memo[key] = atom
        return atom

    def addr_expr(self, addr, depth):
        """Memory address atom (the runtime reduces it modulo depth)."""
        if addr.width <= 64 or _fits_u64(self._rng(addr)):
            return self.u(addr)
        key = (id(addr), "addr")
        atom = self._memo.get(key)
        if atom is None:
            atom = self.temp(f"_pat(({self.bigp(addr)}) % {depth})")
            self._memo[key] = atom
        return atom

    def _lower(self, node):
        if isinstance(node, Const):
            return repr(node.value & _M64)
        if isinstance(node, Signal):
            return self.read(node)
        if isinstance(node, Reinterpret):
            return self.u(node.value)
        if isinstance(node, Slice):
            if node.stop > 64:  # reads bits the pattern atom dropped
                mask = (1 << min(node.width, 64)) - 1
                return self.temp(f"_pat((({self.bigp(node.value)}) >> "
                                 f"{node.start}) & {mask})")
            inner = self.u(node.value)
            if node.start == 0 and node.stop == node.value.width:
                return inner
            mask = (1 << node.width) - 1
            bounds = self._rng(node.value)
            # The inner *pattern* equals the value only when nonneg.
            fits = (bounds[0] >= 0
                    and (bounds[1] >> node.start) <= mask)
            if node.start:
                expr = f"({inner}) >> {node.start}"
                return self.temp(expr if fits else f"({expr}) & {mask}")
            if fits:  # whole low field already in range: atom as-is
                return inner
            return self.temp(f"({inner}) & {mask}")
        if isinstance(node, Cat):
            shift, parts = 0, []
            for part in node.parts:
                if shift < 64:  # bits at >= 64 vanish modulo 2**64
                    atom = self.u(part)
                    parts.append(atom if shift == 0
                                 else f"(({atom}) << {shift})")
                shift += part.width
            if not parts:
                return "0"
            expr = " | ".join(parts)
            if node.width > 64:
                expr = f"_w64({expr})"
            return self.temp(expr)
        if isinstance(node, Repl):
            atom = self.u(node.value)
            width = node.value.width
            parts = [atom if i == 0 else f"(({atom}) << {i * width})"
                     for i in range(node.count) if i * width < 64]
            if not parts:
                return "0"
            expr = " | ".join(parts)
            if node.width > 64:
                expr = f"_w64({expr})"
            return self.temp(expr)
        if isinstance(node, Mux):
            sel = self.selexpr(node.sel)
            mask = (1 << min(node.width, 64)) - 1
            arms = []
            for arm in (node.if_true, node.if_false):
                if arm.signed and arm.width < min(node.width, 64) \
                        and self._rng(arm)[0] < 0:
                    if node.width >= 64:  # p() is already mod 2**64
                        arms.append(self.p(arm))
                    else:
                        arms.append(self.temp(f"({self.p(arm)}) & {mask}"))
                else:  # pattern already the value modulo the Mux width
                    arms.append(self.u(arm))
            return self.temp(f"_sel({sel}, {arms[0]}, {arms[1]})")
        if isinstance(node, Operator):
            return self._lower_operator(node)
        raise CompileError(f"cannot compile expression node {node!r}")

    def _lower_operator(self, node):
        op, ops = node.op, node.ops
        mask = (1 << min(node.width, 64)) - 1
        if op in ("+", "-", "*", "neg"):
            expr, exact, _ = self.modexpr(node, min(node.width, 64))
            masked = self._masked(expr, mask, exact)
            return masked if masked is expr else self.temp(masked)
        if op == "~":
            # The pattern atom is < 2**min(width, 64), so complement-
            # within-mask is a single xor (mask covers the operand).
            if ops[0].width <= min(node.width, 64) or node.width >= 64:
                return self.temp(f"({self.u(ops[0])}) ^ {mask}")
            return self.temp(f"(~({self.u(ops[0])})) & {mask}")
        if op in ("&", "|", "^"):
            a = self._unsigned_at(ops[0], node.width)
            b = self._unsigned_at(ops[1], node.width)
            return self.temp(f"({a}) {op} ({b})")
        if op == "<<":
            amount = ops[1]
            if isinstance(amount, Const):
                if amount.value >= 64:
                    return "0"
                return self.temp(self._masked(
                    f"({self.p(ops[0])}) << {amount.value}", mask,
                    self._shift_bounds(ops[0], "<<", amount.value,
                                       amount.value)))
            if (1 << amount.width) - 1 < 64:  # amount provably < 64
                return self.temp(self._masked(
                    f"({self.p(ops[0])}) << ({self.u(amount)})", mask,
                    self._shift_bounds(ops[0], "<<", 0,
                                       (1 << amount.width) - 1)))
            return self.temp(f"_shl({self.p(ops[0])}, {self.u(amount)}) "
                             f"& {mask}")
        if op == ">>":
            amount = ops[1]
            bounds = self._rng(ops[0])
            exact = _fits_i64(bounds) if ops[0].signed \
                else _fits_u64(bounds)
            if not exact:  # true value escapes 64 bits: shift exactly
                atom = (repr(amount.value) if isinstance(amount, Const)
                        else f"_bigu({self.u(amount)})")
                return self.temp(f"_pat((({self.big(ops[0])}) >> ({atom})) "
                                 f"& {mask})")
            if ops[0].signed:
                atom = (repr(amount.value) if isinstance(amount, Const)
                        else self.u(amount))
                if isinstance(amount, Const):
                    smin = smax = min(amount.value, 63)
                else:  # _sra saturates the shift at 63 (sign fill)
                    smin, smax = 0, min((1 << amount.width) - 1, 63)
                return self.temp(self._masked(
                    f"_sra({self.p(ops[0])}, {atom})", mask,
                    self._shift_bounds(ops[0], ">>", smin, smax)))
            if isinstance(amount, Const):
                if amount.value >= 64:
                    return "0"
                return self.temp(self._masked(
                    f"({self.u(ops[0])}) >> {amount.value}", mask,
                    self._shift_bounds(ops[0], ">>", amount.value,
                                       amount.value)))
            if (1 << amount.width) - 1 < 64:
                return self.temp(self._masked(
                    f"({self.u(ops[0])}) >> ({self.u(amount)})", mask,
                    self._shift_bounds(ops[0], ">>", 0,
                                       (1 << amount.width) - 1)))
            return self.temp(f"_srl({self.u(ops[0])}, {self.u(amount)}) "
                             f"& {mask}")
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self.temp(f"_b01({self._boolraw(node)})")
        if op == "b":
            if ops[0].width == 1:  # 1-bit pattern is already 0/1
                return self.boolexpr(ops[0])
            return self.temp(f"_b01(({self.boolexpr(ops[0])}) != 0)")
        if op == "r&":
            if ops[0].width <= 64:
                return self.temp(f"_b01(({self.u(ops[0])}) == "
                                 f"{(1 << ops[0].width) - 1})")
            return self.temp(f"_b01(({self.bigp(ops[0])}) == "
                             f"{(1 << ops[0].width) - 1})")
        if op == "r^":
            if ops[0].width <= 64:
                return self.temp(f"_par({self.u(ops[0])})")
            return self.temp(f"_pat(_parw({self.bigp(ops[0])}, "
                             f"{ops[0].width}))")
        raise CompileError(f"cannot compile operator {op!r}")

    # --- statement lowering ----------------------------------------------------
    def value_of(self, stmt):
        rhs = stmt.rhs
        lhs_mask = (1 << stmt.lhs.width) - 1
        bounds = self._rng(rhs)
        # Pattern provably equals the value and fits the target: store
        # the atom as-is, no truncation op needed.
        if bounds[0] >= 0 and bounds[1] <= lhs_mask \
                and (rhs.width <= 64 or bounds[1] < (1 << 64)):
            return self.u(rhs)
        if rhs.width == stmt.lhs.width:
            return self.u(rhs)  # truncation to own width: identity
        if isinstance(rhs, Operator) and rhs.op in ("+", "-", "*", "neg"):
            # The store truncates to lhs.width, so the whole arithmetic
            # cone only matters mod 2**lhs.width — same-width signed
            # adds/subs lose every sign extension this way.
            width = min(stmt.lhs.width, 64)
            expr, exact, _ = self.modexpr(rhs, width)
            mask = (1 << width) - 1
            if exact is not None and exact[0] >= 0 and exact[1] <= mask:
                return expr
            if width == 64:
                return self.temp(f"_w64({expr})")
            return f"({expr}) & {mask}"
        if rhs.signed:
            return f"({self.p(rhs)}) & {lhs_mask}"
        if rhs.width > stmt.lhs.width:
            return f"({self.u(rhs)}) & {lhs_mask}"
        return self.u(rhs)

    def apply(self, stmt, acc):
        """One guarded assignment: ``acc = _sel(guard, value, acc)``.

        Both arms are always evaluated (expressions are pure); the lane
        mask decides per lane, preserving later-assignment-wins.
        """
        value = self.value_of(stmt)
        if isinstance(stmt.lhs, Slice):
            target = stmt.lhs.value
            slice_mask = ((1 << stmt.lhs.width) - 1) << stmt.lhs.start
            keep = ((1 << target.width) - 1) ^ slice_mask
            shifted = value if stmt.lhs.start == 0 else \
                f"(({value}) << {stmt.lhs.start})"
            update = f"(({acc}) & {keep}) | ({shifted})"
        else:
            update = value
        if stmt.guard is None:
            self.emit(f"{acc} = {update}")
        else:
            guard = self.selexpr(stmt.guard)
            self.emit(f"{acc} = _sel({guard}, {update}, {acc})")


def _codegen_batched(netlist):
    """Lower a netlist to lane-parallel ``comb``/``tick`` source."""
    module, slot_of = netlist.module, netlist.slot_of
    memories = netlist.memories
    order, stmts_of, comb_ports, levels = _comb_schedule(
        module, memories, netlist.comb_stmts)

    comb_driven_ids = {id(sig) for sig in netlist.comb_driven}
    gen = _BatchCodegen(slot_of)
    gen.lines.append("def comb(V, M):")
    for index in range(len(memories)):
        gen.emit(f"_m{index} = M[{index}]")
    for target in order:
        ports = comb_ports.get(id(target), ())
        stmts = stmts_of.get(id(target), ())
        target_slot = slot_of[id(target)]
        if len(stmts) == 1 and not ports and stmts[0].guard is None \
                and not isinstance(stmts[0].lhs, Slice):
            gen.emit(f"V[{target_slot}] = {gen.value_of(stmts[0])}")
            continue
        acc = f"_v{target_slot}"
        initialized = False
        if id(target) in comb_driven_ids:  # comb falls back to reset
            gen.emit(f"{acc} = {target.reset}")
            initialized = True
        for mem_index, rp in ports:
            addr = gen.addr_expr(rp.addr, rp.memory.depth)
            gen.emit(f"{acc} = _mrd(_m{mem_index}, {addr}, "
                     f"{rp.memory.depth})")
            initialized = True
        if not initialized:
            gen.emit(f"{acc} = {target.reset}")
        for stmt in stmts:
            gen.apply(stmt, acc)
        gen.emit(f"V[{target_slot}] = {acc}")
    if len(gen.lines) == 1:
        gen.emit("pass")

    gen2 = _BatchCodegen(slot_of)
    gen2.lines.append("def tick(V, M):")
    for index in range(len(memories)):
        gen2.emit(f"_m{index} = M[{index}]")
    sync_targets, sync_stmts_of = _sync_groups(netlist.sync_stmts)
    for target in sync_targets:
        acc = f"_n{slot_of[id(target)]}"
        gen2.emit(f"{acc} = V[{slot_of[id(target)]}]")
        for stmt in sync_stmts_of[id(target)]:
            gen2.apply(stmt, acc)
    sync_reads = []  # (read temp, data signal)
    for mem_index, mem in enumerate(memories):
        # Sync read ports observe pre-write contents (read-before-write).
        for rp in mem.read_ports:
            if rp.domain != "sync":
                continue
            addr = gen2.addr_expr(rp.addr, mem.depth)
            name = gen2.temp(f"_mrd(_m{mem_index}, {addr}, {mem.depth})")
            sync_reads.append((name, rp.data))
        for wp in mem.write_ports:
            enable = gen2.selexpr(wp.en)
            addr = gen2.addr_expr(wp.addr, mem.depth)
            data = gen2.u(wp.data)
            gen2.emit(f"_mwr(_m{mem_index}, {enable}, {addr}, {data}, "
                      f"{mem.depth}, {(1 << mem.width) - 1})")
    for target in sync_targets:
        gen2.emit(f"V[{slot_of[id(target)]}] = _n{slot_of[id(target)]}")
    for name, data in sync_reads:  # after registers: port data wins
        gen2.emit(f"V[{slot_of[id(data)]}] = {name}")
    if len(gen2.lines) == 1:
        gen2.emit("pass")

    source = "\n".join(gen.lines + [""] + gen2.lines + [""])
    return source, levels


class BatchProgram:
    """Per-module batched schedule: lane-independent source, exec'd
    lazily per lane count (lane geometry lives in the runtime helpers)."""

    def __init__(self, module, signals, slot_of, memories, driven_ids,
                 source, levels):
        self.module = module
        self.signals = signals
        self.slot_of = slot_of
        self.resets = [sig.reset for sig in signals]
        self.memories = memories
        self.driven_ids = driven_ids
        self.source = source
        self.levels = levels
        self._fn_cache = {}

    def fns(self, lanes):
        """(comb, tick) bound to an N-lane runtime; memoized per N."""
        try:
            return self._fn_cache[lanes]
        except KeyError:
            pass
        namespace = _lane_runtime(lanes)
        exec(compile(self.source, f"<rtl-batched:{self.module.name}>",
                     "exec"), namespace)
        pair = (namespace["comb"], namespace["tick"])
        self._fn_cache[lanes] = pair
        return pair


def _compile_batched(module):
    netlist = _elaborate(module)
    reason = _batch_block_reason(netlist)
    if reason is not None:
        raise BatchCompileError(
            f"module {module.name} cannot be batched: {reason}")

    from ..core.codecache import MISS, default_cache

    global batch_codegen_count, batch_cache_bind_count
    key = netlist.key(kind="rtl-batched-module", schema=BATCH_SCHEMA)
    cached = MISS
    if key is not None:
        cached = default_cache().get(key)
        if cached is not MISS and cached.get("slots") != len(netlist.signals):
            cached = MISS  # foreign/torn entry: regenerate
    if cached is not MISS:
        source, levels = cached["source"], cached["levels"]
        batch_cache_bind_count += 1
    else:
        source, levels = _codegen_batched(netlist)
        batch_codegen_count += 1
        if key is not None:
            default_cache().put(key, {"source": source, "levels": levels,
                                      "slots": len(netlist.signals)})
    driven_ids = {id(sig)
                  for sig in netlist.comb_driven | netlist.sync_driven}
    return BatchProgram(module, netlist.signals, netlist.slot_of,
                        netlist.memories, driven_ids, source, levels)


_BATCH_PROGRAM_CACHE = weakref.WeakKeyDictionary()


def compile_module_batched(module):
    """Compile (or fetch the cached batched program for) a module."""
    try:
        return _BATCH_PROGRAM_CACHE[module]
    except KeyError:
        pass
    program = _compile_batched(module)
    _BATCH_PROGRAM_CACHE[module] = program
    return program


# --- the simulator --------------------------------------------------------------


class BatchSimulator:
    """N independent instances of one module, advanced in lockstep.

    API mirrors :class:`~repro.rtl.sim.Simulator` with a lane axis:

    - ``poke(signal, value)`` broadcasts an int to every lane;
      ``poke(signal, values)`` (sequence/ndarray of length ``lanes``)
      sets per-lane values; ``poke(signal, value, lane=k)`` one lane.
    - ``peek_lanes(signal)`` returns a fresh ``uint64`` array of the
      per-lane patterns; ``peek(signal, lane=0)`` one int.
    - ``tick()``/``settle()`` advance all lanes together; ``edge()`` is
      the hot-loop fast path — one clock edge for callers that just
      ``settle()``-ed and poked nothing since (skips ``tick()``'s
      redundant combinational passes; outputs are stale until the next
      ``settle()``).
    - ``run_until(signal, value)`` ticks until *every* lane has reached
      ``value`` and returns the per-lane cycle counts at which each lane
      first did (lanes that finish early keep ticking; their cycle count
      is frozen at first arrival).
    - ``memory_lanes(mem)`` exposes per-lane memory contents as a
      ``(lanes, depth)`` array (live on the batched backend, a snapshot
      on the fallback).

    ``backend="auto"`` (default) runs N lockstep scalar simulators
    below :data:`BATCH_MIN_LANES` lanes, without compiling the batched
    program.  From there up it uses the lane-parallel compiled program
    when the netlist can be batched and falls back to scalar lanes
    otherwise (combinational cycles, >64-bit constructs).
    ``backend="batched"`` uses the lane-parallel program at any lane
    count and raises :class:`CompileError` where it cannot be built;
    ``backend="scalar"`` forces scalar lanes.
    """

    def __new__(cls, module, lanes=1, backend="auto"):
        if cls is not BatchSimulator:
            return super().__new__(cls)
        if backend not in ("auto", "batched", "scalar"):
            raise ValueError(f"unknown batch backend {backend!r}")
        if backend == "batched" or (backend == "auto"
                                    and int(lanes) >= BATCH_MIN_LANES):
            try:
                compile_module_batched(module)
            except CompileError:
                if backend == "batched":
                    raise
            else:
                return super().__new__(_NdBatchSimulator)
        return super().__new__(_LaneFallbackSimulator)

    def __init__(self, module, lanes=1, backend="auto"):
        lanes = int(lanes)
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.module = module
        self.lanes = lanes
        self.time = 0
        self._tracers = []

    # --- shared surface --------------------------------------------------------
    def peek(self, signal, lane=0):
        return int(self.peek_lanes(signal)[lane])

    def peek_signed(self, signal, lane=0):
        from .ast import to_signed

        return to_signed(self.peek(signal, lane), signal.width)

    def add_tracer(self, tracer):
        """Register a callable(time, batch_simulator) run after every tick."""
        self._tracers.append(tracer)

    def run_until(self, signal, value=1, timeout=10_000):
        """Tick until every lane reaches ``value``; per-lane cycle counts."""
        start = self.time
        done = np.zeros(self.lanes, dtype=bool)
        cycles = np.zeros(self.lanes, dtype=np.int64)
        while True:
            newly = ~done & (self.peek_lanes(signal) == value)
            cycles[newly] = self.time - start
            done |= newly
            if done.all():
                return cycles
            if self.time - start >= timeout:
                pending = np.flatnonzero(~done).tolist()
                raise TimeoutError(
                    f"{signal.name} never reached {value} on lanes {pending}")
            self.tick()


class _NdBatchSimulator(BatchSimulator):
    """The lane-parallel compiled backend."""

    def __init__(self, module, lanes=1, backend="auto"):
        super().__init__(module, lanes, backend)
        program = compile_module_batched(module)
        self.backend = "batched"
        self.program = program
        self._slot_of = program.slot_of
        self._vals = list(program.resets)  # lane-uniform Python ints
        self._extra = {}  # pokes of signals the program never touches
        self._mems = []
        self.mem_state = {}
        for mem in program.memories:
            init = list(mem.init) + [0] * (mem.depth - len(mem.init))
            state = np.tile(np.array(init, dtype=np.uint64), (self.lanes, 1))
            self._mems.append(state)
            self.mem_state[mem] = state
        self._comb, self._tick = program.fns(self.lanes)
        self._comb(self._vals, self._mems)

    def _coerce(self, signal, value, lane, current):
        mask = (1 << signal.width) - 1
        if lane is not None:
            out = (current.copy() if isinstance(current, np.ndarray)
                   else np.full(self.lanes, current, dtype=np.uint64))
            out[lane] = to_unsigned(int(value), signal.width)
            return out
        if isinstance(value, np.ndarray):
            if value.shape != (self.lanes,):
                raise ValueError(
                    f"poke of {signal.name}: expected shape ({self.lanes},), "
                    f"got {value.shape}")
            if value.dtype == np.uint64:
                return value & np.uint64(mask)  # fresh array: no aliasing
            return np.array([to_unsigned(int(v), signal.width)
                             for v in value], dtype=np.uint64)
        if isinstance(value, (list, tuple)):
            if len(value) != self.lanes:
                raise ValueError(
                    f"poke of {signal.name}: expected {self.lanes} lane "
                    f"values, got {len(value)}")
            return np.array([to_unsigned(int(v), signal.width)
                             for v in value], dtype=np.uint64)
        return to_unsigned(int(value), signal.width)

    def poke(self, signal, value, lane=None):
        if id(signal) in self.program.driven_ids:
            raise ValueError(f"cannot poke driven signal {signal.name}")
        index = self._slot_of.get(id(signal))
        if index is None:
            current = self._extra.get(id(signal), signal.reset)
            self._extra[id(signal)] = self._coerce(signal, value, lane,
                                                   current)
        else:
            self._vals[index] = self._coerce(signal, value, lane,
                                             self._vals[index])

    def peek_lanes(self, signal, copy=True):
        index = self._slot_of.get(id(signal))
        raw = (self._vals[index] if index is not None
               else self._extra.get(id(signal), signal.reset))
        if isinstance(raw, np.ndarray):
            # copy=False hands out the live slot array: valid only for
            # read-only use before the next settle()/edge().
            return raw.copy() if copy else raw
        return np.full(self.lanes, raw, dtype=np.uint64)

    def peek(self, signal, lane=0):
        index = self._slot_of.get(id(signal))
        raw = (self._vals[index] if index is not None
               else self._extra.get(id(signal), signal.reset))
        if isinstance(raw, np.ndarray):
            return int(raw[lane])
        return int(raw)

    def memory_lanes(self, mem):
        return self.mem_state[mem]

    def settle(self):
        self._comb(self._vals, self._mems)

    def tick(self, cycles=1):
        vals, mems = self._vals, self._mems
        comb, sync = self._comb, self._tick
        for _ in range(cycles):
            comb(vals, mems)
            sync(vals, mems)
            self.time += 1
            comb(vals, mems)
            for tracer in self._tracers:
                tracer(self.time, self)

    def edge(self):
        """One clock edge, assuming combinational state is settled (no
        pokes since the last :meth:`settle`).  Skips the pre-edge comb
        pass (idempotent on settled state) and defers the post-edge one
        to the caller's next :meth:`settle` — the peek-settle-edge hot
        loop then runs ONE comb pass per clock instead of three."""
        self._tick(self._vals, self._mems)
        self.time += 1
        if self._tracers:
            self._comb(self._vals, self._mems)
            for tracer in self._tracers:
                tracer(self.time, self)


class _LaneFallbackSimulator(BatchSimulator):
    """N lockstep scalar simulators behind the batched API.

    Used below :data:`BATCH_MIN_LANES` lanes and when the netlist cannot
    be vectorized; each lane is a plain :class:`Simulator` (itself
    compiled when schedulable, interpreted otherwise), so per-lane
    semantics are identical by construction.
    """

    def __init__(self, module, lanes=1, backend="auto"):
        super().__init__(module, lanes, backend)
        self.backend = "scalar-lanes"
        self.sims = [Simulator(module) for _ in range(self.lanes)]

    def poke(self, signal, value, lane=None):
        if lane is not None:
            self.sims[lane].poke(signal, value)
            return
        if isinstance(value, (list, tuple, np.ndarray)):
            if len(value) != self.lanes:
                raise ValueError(
                    f"poke of {signal.name}: expected {self.lanes} lane "
                    f"values, got {len(value)}")
            for sim, v in zip(self.sims, value):
                sim.poke(signal, int(v))
        else:
            for sim in self.sims:
                sim.poke(signal, value)

    def peek_lanes(self, signal, copy=True):
        return np.array([sim.peek(signal) for sim in self.sims],
                        dtype=np.uint64)

    def peek(self, signal, lane=0):
        return self.sims[lane].peek(signal)

    def memory_lanes(self, mem):
        return np.array([sim.memory(mem) for sim in self.sims],
                        dtype=np.uint64)

    def settle(self):
        for sim in self.sims:
            sim.settle()

    def tick(self, cycles=1):
        for _ in range(cycles):
            for sim in self.sims:
                sim.tick()
            self.time += 1
            for tracer in self._tracers:
                tracer(self.time, self)

    def edge(self):
        """One clock edge on settled lanes, as :meth:`_NdBatchSimulator.edge`:
        one sync pass per lane, outputs stale until the next
        :meth:`settle`."""
        for sim in self.sims:
            sim.edge()
        self.time += 1
        if self._tracers:
            self.settle()
            for tracer in self._tracers:
                tracer(self.time, self)
