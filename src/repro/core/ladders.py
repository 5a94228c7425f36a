"""The paper's two optimization ladders as executable step sequences.

Each :class:`LadderStep` mutates one aspect of the deployment — a
kernel swap, a CFU attachment, a CPU configuration change, a memory-map
or linker change — exactly mirroring the incremental moves of Sections
III-A (Fig. 4) and III-B (Fig. 6).  :func:`run_ladder` replays the steps,
re-estimating whole-model cycles and re-fitting the FPGA after each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..accel.kws.resources import cfu2_resources
from ..accel.mnv2.resources import stage_resources
from ..boards import ARTY_A7_35T, FOMU, fit
from ..cpu.vexriscv import ARTY_DEFAULT, VexRiscvConfig
from ..kernels.conv1x1 import LADDER_VARIANTS
from ..kernels.kws import kws_variants
from ..kernels.reference import reference_variants
from ..models import load
from ..perf.estimator import estimate_inference
from ..rtl.synth import ResourceReport
from ..soc import Soc, link


@dataclass
class DeploymentState:
    """Everything that defines a running deployment at one ladder rung."""

    model: object
    soc: Soc
    variants: object
    placement: dict = field(default_factory=dict)
    cfu_resources: ResourceReport = field(default_factory=ResourceReport)

    def system(self):
        return self.soc.system_config(placement=self.placement)

    def estimate(self):
        return estimate_inference(self.model, self.system(), self.variants)

    def fit(self):
        return fit(self.soc.board, self.soc.resources(), self.cfu_resources)


@dataclass
class LadderStep:
    name: str
    description: str
    apply: object  # callable(DeploymentState) -> DeploymentState


@dataclass
class LadderResult:
    step: LadderStep
    cycles: float
    speedup: float
    op_speedup: float
    fit: object
    estimate: object

    def row(self):
        usage = self.fit.usage
        return (f"{self.step.name:16s} {self.cycles:>14,.0f} cyc  "
                f"x{self.speedup:6.2f} overall  x{self.op_speedup:6.2f} op  "
                f"{usage.logic_cells:>6} cells {usage.dsps:>2} DSP "
                f"{'OK' if self.fit.ok else 'NO-FIT'}")


def run_ladder(steps, initial_state, op_filter=None):
    """Replay a ladder; returns the list of :class:`LadderResult`.

    ``op_filter(op_cost) -> bool`` selects the operator subset whose
    speedup Fig. 4 tracks (e.g. only 1x1 convs); overall speedup uses
    total cycles.
    """
    state = initial_state
    results = []
    base_total = base_op = None
    for step in steps:
        state = step.apply(state)
        estimate = state.estimate()
        total = estimate.total_cycles
        op_cycles = (estimate.cycles_for(op_filter)
                     if op_filter else total)
        if base_total is None:
            base_total, base_op = total, op_cycles
        results.append(LadderResult(
            step=step,
            cycles=total,
            speedup=base_total / total,
            op_speedup=base_op / op_cycles if op_cycles else float("inf"),
            fit=state.fit(),
            estimate=estimate,
        ))
    return results


# --------------------------------------------------------------------------------
# Section III-A: MobileNetV2 1x1 CONV_2D on Arty (Fig. 4)
# --------------------------------------------------------------------------------

def mnv2_initial_state(model=None):
    model = model or load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    return DeploymentState(model=model, soc=soc,
                           variants=reference_variants())


def mnv2_ladder():
    """Fig. 4's bars: baseline + the nine variant swaps."""
    def baseline(state):
        return state

    steps = [LadderStep("base", "TFLM reference kernels, stock SoC", baseline)]
    for variant_cls in LADDER_VARIANTS:
        def swap(state, cls=variant_cls):
            return replace(
                state,
                variants=reference_variants().extended(cls()),
                cfu_resources=stage_resources(cls.stage),
            )
        steps.append(LadderStep(variant_cls.name, variant_cls.__doc__ or "",
                                swap))
    return steps


def mnv2_1x1_filter(model):
    """Predicate selecting the 1x1 CONV_2D operators of a built model."""
    names = {
        op.name for op in model.operators
        if op.opcode == "CONV_2D" and op.params.get("kernel") == (1, 1)
    }
    return lambda op_cost: op_cost.op_name in names


# --------------------------------------------------------------------------------
# Section III-B: DS-CNN keyword spotting on Fomu (Fig. 6)
# --------------------------------------------------------------------------------

#: The CPU that squeezes onto Fomu after the SoC diet (Section III-B
#: "Profile"): no caches beyond a small icache, iterative multiply,
#: software division, no bypassing, no branch prediction, no hardware
#: error checking.
FOMU_BASELINE_CPU = VexRiscvConfig(
    bypassing=False,
    branch_prediction="none",
    multiplier="iterative",
    divider="none",
    shifter="iterative",
    icache_bytes=0,
    dcache_bytes=0,
    hw_error_checking=False,
)


def kws_initial_state(model=None):
    model = model or load("dscnn_kws")
    soc = Soc(FOMU, FOMU_BASELINE_CPU)
    # The SoC diet that makes VexRiscv fit at all (Section III-B).
    soc.remove_peripheral("timer")
    soc.remove_peripheral("ctrl")
    soc.remove_peripheral("rgb")
    soc.remove_peripheral("touch")
    state = DeploymentState(model=model, soc=soc,
                            variants=reference_variants())
    link(soc, model, state.placement)  # verify the image actually fits
    return state


def kws_ladder():
    """Fig. 6's bars, from the flash-XIP baseline to the SW-specialized
    CFU2 deployment."""

    def baseline(state):
        return state

    def quadspi(state):
        state.soc.upgrade_to_quad_spi()
        return state

    def sram_ops_model(state):
        placement = dict(state.placement)
        placement.update({"kernel_text": "sram", "model_weights": "sram"})
        link(state.soc, state.model, placement)
        return replace(state, placement=placement)

    def larger_icache(state):
        cpu = state.soc.cpu_config.evolve(icache_bytes=4096)
        state.soc.with_cpu(cpu)
        return state

    def fast_mult(state):
        cpu = state.soc.cpu_config.evolve(multiplier="single_cycle")
        state.soc.with_cpu(cpu)
        return state

    def mac_conv(state):
        return replace(
            state,
            variants=reference_variants().extended(*kws_variants()),
            cfu_resources=cfu2_resources(postproc=False),
        )

    def post_proc(state):
        return replace(
            state,
            variants=reference_variants().extended(*kws_variants(postproc=True)),
            cfu_resources=cfu2_resources(postproc=True),
        )

    def sw_spec(state):
        return replace(
            state,
            variants=reference_variants().extended(
                *kws_variants(postproc=True, specialized=True)
            ),
        )

    return [
        LadderStep("base", "flash-XIP baseline on the dieted SoC", baseline),
        LadderStep("quadspi", "SPI -> Quad SPI flash interface", quadspi),
        LadderStep("sram-ops-model", "conv/dw code + weights into SRAM",
                   sram_ops_model),
        LadderStep("larger-icache", "freed CSR/logic space -> 4 kB icache",
                   larger_icache),
        LadderStep("fast-mult", "iterative -> single-cycle multiply (4 DSP)",
                   fast_mult),
        LadderStep("mac-conv", "4-way SIMD MAC CFU (remaining 4 DSP)",
                   mac_conv),
        LadderStep("post-proc", "accumulator post-processing in the CFU",
                   post_proc),
        LadderStep("sw-spec", "operator specialization (constants known)",
                   sw_spec),
    ]
