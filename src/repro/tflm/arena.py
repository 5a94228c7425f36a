"""Tensor arena planner: TFLM's greedy memory planner.

TFLite Micro allocates every activation in a single static arena using a
greedy-by-size offset planner over tensor lifetimes.  The KWS study's
"much of this RAM is needed by TFLite Micro for working data" constraint
comes from this arena: on Fomu the arena plus the runtime must fit in
128 kB of SRAM, which is why code and weights were pushed to flash.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Allocation:
    tensor_name: str
    offset: int
    size: int
    first_use: int
    last_use: int

    @property
    def end(self):
        return self.offset + self.size


@dataclass
class ArenaPlan:
    allocations: list = field(default_factory=list)
    arena_bytes: int = 0

    @property
    def sum_of_sizes(self):
        return sum(a.size for a in self.allocations)

    @property
    def reuse_factor(self):
        """How much memory lifetime-sharing saved (>= 1.0)."""
        return self.sum_of_sizes / self.arena_bytes if self.arena_bytes else 1.0


def tensor_lifetimes(model):
    """(first_def, last_use) operator indices per non-constant tensor."""
    lifetimes = {}
    for name in model.input_names:
        lifetimes[name] = [0, 0]
    for index, op in enumerate(model.operators):
        for name in op.inputs:
            if model.tensor(name).is_constant:
                continue
            lifetimes.setdefault(name, [index, index])[1] = index
        for name in op.outputs:
            lifetimes.setdefault(name, [index, index])[1] = index
    for name in model.output_names:
        if name in lifetimes:
            lifetimes[name][1] = len(model.operators)
    return {name: tuple(span) for name, span in lifetimes.items()}


def plan_arena(model, alignment=16):
    """Greedy-by-size first-fit offset assignment (TFLM's algorithm)."""
    lifetimes = tensor_lifetimes(model)
    requests = sorted(
        ((model.tensor(name).bytes, name) for name in lifetimes),
        key=lambda pair: (-pair[0], pair[1]),
    )
    placed = []
    for size, name in requests:
        size = -(-size // alignment) * alignment
        first, last = lifetimes[name]
        overlapping = [
            alloc for alloc in placed
            if not (alloc.last_use < first or last < alloc.first_use)
        ]
        overlapping.sort(key=lambda alloc: alloc.offset)
        offset = 0
        for alloc in overlapping:
            if offset + size <= alloc.offset:
                break
            offset = max(offset, alloc.end)
        placed.append(Allocation(name, offset, size, first, last))
    arena_bytes = max((alloc.end for alloc in placed), default=0)
    placed.sort(key=lambda alloc: alloc.first_use)
    return ArenaPlan(allocations=placed, arena_bytes=arena_bytes)
