"""Model graph representation: operators over named tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

OPCODES = (
    "CONV_2D",
    "DEPTHWISE_CONV_2D",
    "FULLY_CONNECTED",
    "AVERAGE_POOL_2D",
    "MAX_POOL_2D",
    "ADD",
    "PAD",
    "RESHAPE",
    "SOFTMAX",
    "MEAN",
)


@dataclass
class Operator:
    """One graph node: an opcode, tensor names, and prepared parameters.

    ``params`` holds everything a kernel needs at Invoke time (strides,
    precomputed requantization multipliers, activation clamps), mirroring
    TFLM's Prepare/Eval split: all floating-point work happens at model
    construction, kernels run on integers only.
    """

    opcode: str
    name: str
    inputs: list
    outputs: list
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.opcode not in OPCODES:
            raise ValueError(f"unknown opcode {self.opcode!r}")

    @property
    def macs(self):
        return self.params.get("macs", 0)

    def __repr__(self):
        return f"Operator({self.name}: {self.opcode})"


class Model:
    """An ordered operator graph with a tensor table (TFLite flatbuffer
    stand-in)."""

    def __init__(self, name, tensors, operators, input_names, output_names):
        self.name = name
        self.tensors = dict(tensors)
        self.operators = list(operators)
        self.input_names = list(input_names)
        self.output_names = list(output_names)
        self._validate()

    def _validate(self):
        defined = set(self.tensors)
        for op in self.operators:
            for tensor_name in list(op.inputs) + list(op.outputs):
                if tensor_name not in defined:
                    raise ValueError(
                        f"operator {op.name} references unknown tensor {tensor_name}"
                    )
        for name in self.input_names + self.output_names:
            if name not in defined:
                raise ValueError(f"model I/O references unknown tensor {name}")

    def tensor(self, name):
        return self.tensors[name]

    @property
    def input(self):
        return self.tensors[self.input_names[0]]

    @property
    def output(self):
        return self.tensors[self.output_names[0]]

    def total_macs(self):
        return sum(op.macs for op in self.operators)

    def weights_bytes(self):
        """Bytes of constant data (the .rodata the KWS study moves around)."""
        return sum(t.bytes for t in self.tensors.values() if t.is_constant)

    def summary(self):
        lines = [f"Model {self.name}: {len(self.operators)} ops, "
                 f"{self.total_macs():,} MACs, "
                 f"{self.weights_bytes():,} weight bytes"]
        for op in self.operators:
            out = self.tensors[op.outputs[0]]
            lines.append(
                f"  {op.name:28s} {op.opcode:20s} -> {out.shape}"
                f"  macs={op.macs:,}"
            )
        return "\n".join(lines)

    def __repr__(self):
        return f"Model({self.name}, {len(self.operators)} ops)"
