"""Tensors and their quantization metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantize import QuantParams


@dataclass
class Tensor:
    """A typed, optionally-quantized tensor in a model graph.

    ``data`` is None for activation tensors until the interpreter
    allocates/produces them; constant tensors (weights, biases) carry
    their data up front.  Layout is NHWC throughout, matching TFLite.
    """

    name: str
    shape: tuple
    dtype: type = np.int8
    quant: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))
    channel_scales: np.ndarray = None  # per-channel weight scales, or None
    data: np.ndarray = None
    is_constant: bool = False

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        if self.data is not None:
            self.data = np.asarray(self.data, dtype=self.dtype).reshape(self.shape)

    @property
    def num_elements(self):
        result = 1
        for dim in self.shape:
            result *= dim
        return result

    @property
    def bytes(self):
        return self.num_elements * np.dtype(self.dtype).itemsize

    def dequantize(self):
        if self.data is None:
            raise ValueError(f"tensor {self.name} has no data")
        if self.channel_scales is not None:
            scales = self.channel_scales.reshape(
                (1,) * (len(self.shape) - 1) + (-1,)
            )
            return self.data.astype(np.float64) * scales
        return self.quant.dequantize(self.data)

    def __repr__(self):
        kind = "const" if self.is_constant else "act"
        return f"Tensor({self.name}, {self.shape}, {np.dtype(self.dtype).name}, {kind})"
