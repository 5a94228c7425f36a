"""Energy model: the paper's stated future work, implemented.

"Future work involves studying the optimization space for power and
energy efficiency" (Section V).  This module extends the performance
machine with a first-order FPGA energy model so the same
deploy-profile-optimize loop (and the same Vizier studies) can target
energy instead of — or together with — latency.

The model is the standard two-part decomposition:

- **static energy** — power proportional to the configured logic
  (cells, DSPs, BRAM leak whether or not they toggle) integrated over
  the inference runtime;
- **dynamic energy** — charged per event, taken from the cost model's
  per-operator :class:`~repro.perf.cost.CostBreakdown`: compute cycles,
  control cycles, instruction fetches, CFU-busy cycles, and memory
  traffic by technology (an off-chip DDR3 or SPI flash word costs
  orders of magnitude more than an on-chip SRAM access).

Coefficients are representative 40 nm low-power FPGA figures (iCE40
class).  As with the cycle model, *relative* weights drive every
conclusion; the units are documented so absolute numbers can be
recalibrated against a measured board.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Dynamic energy per event, in nanojoules.
ENERGY_PER_EVENT_NJ = {
    "compute_cycle": 0.012,
    "control_cycle": 0.010,
    "fetch": 0.008,            # per instruction issued
    "fetch_stall_cycle": 0.004,
    "cfu_cycle": 0.045,        # wide SIMD datapaths toggle hard
    "sram_byte": 0.012,
    "bram_byte": 0.009,
    "flash_byte": 1.6,         # serial I/O pads are expensive
    "ddr3_byte": 2.8,          # off-chip I/O + controller
}

#: Static power per configured logic cell, in microwatts.
STATIC_UW_PER_CELL = 0.55
#: Static power per DSP tile / per kilobit of BRAM, in microwatts.
STATIC_UW_PER_DSP = 18.0
STATIC_UW_PER_BRAM_KBIT = 1.2
#: Fixed board overhead (regulators, oscillator, PHYs), in milliwatts.
BOARD_FLOOR_MW = 6.0


@dataclass
class EnergyBreakdown:
    """Energy totals for one inference, in microjoules."""

    compute_uj: float = 0.0
    memory_uj: float = 0.0
    fetch_uj: float = 0.0
    cfu_uj: float = 0.0
    static_uj: float = 0.0

    @property
    def total_uj(self):
        return (self.compute_uj + self.memory_uj + self.fetch_uj
                + self.cfu_uj + self.static_uj)

    def __add__(self, other):
        return EnergyBreakdown(
            self.compute_uj + other.compute_uj,
            self.memory_uj + other.memory_uj,
            self.fetch_uj + other.fetch_uj,
            self.cfu_uj + other.cfu_uj,
            self.static_uj + other.static_uj,
        )

    def summary(self):
        rows = [("compute", self.compute_uj), ("memory", self.memory_uj),
                ("fetch", self.fetch_uj), ("cfu", self.cfu_uj),
                ("static", self.static_uj)]
        lines = [f"total energy: {self.total_uj:,.1f} uJ per inference"]
        for name, value in sorted(rows, key=lambda r: -r[1]):
            share = 100 * value / self.total_uj if self.total_uj else 0.0
            lines.append(f"  {name:8s} {value:>12,.1f} uJ  {share:5.1f}%")
        return "\n".join(lines)


def static_power_mw(resources):
    """Static power of a configured design, in milliwatts."""
    return (BOARD_FLOOR_MW
            + resources.logic_cells * STATIC_UW_PER_CELL / 1000
            + resources.dsps * STATIC_UW_PER_DSP / 1000
            + (resources.bram_bits / 1024) * STATIC_UW_PER_BRAM_KBIT / 1000)


def _byte_event(tech_name):
    if "flash" in tech_name:
        return "flash_byte"
    if tech_name == "ddr3":
        return "ddr3_byte"
    if tech_name == "bram":
        return "bram_byte"
    return "sram_byte"


@dataclass
class EnergyModel:
    """Estimates inference energy from a cycle estimate + fit result."""

    coefficients: dict = field(
        default_factory=lambda: dict(ENERGY_PER_EVENT_NJ))

    def estimate(self, inference_estimate, fit_result):
        """Energy for one inference (an :class:`EnergyBreakdown`)."""
        c = self.coefficients
        system = inference_estimate.system
        total = EnergyBreakdown()
        weights_event = _byte_event(system.region("model_weights").tech.name)
        arena_event = _byte_event(system.region("arena").tech.name)

        for cost in inference_estimate.op_costs:
            events = cost.breakdown
            if events is None:
                continue
            total.compute_uj += (events.compute * c["compute_cycle"]
                                 + events.control * c["control_cycle"]) / 1000
            total.fetch_uj += (cost.instructions * c["fetch"]
                               + events.fetch * c["fetch_stall_cycle"]) / 1000
            total.cfu_uj += events.cfu * c["cfu_cycle"] / 1000
            # Data movement: ~2 bytes touched per MAC (one weight byte,
            # one activation byte) plus one output byte per 32 MACs.
            if cost.macs:
                total.memory_uj += cost.macs * (
                    c[weights_event] + c[arena_event]) / 1000
            else:
                total.memory_uj += (events.memory
                                    * c[arena_event]) / 1000

        runtime_s = inference_estimate.seconds
        total.static_uj += static_power_mw(fit_result.usage) * runtime_s * 1000
        return total


def energy_per_inference(model, system, fit_result, variants=None):
    """Convenience: estimate cycles then energy in one call.

    Returns ``(EnergyBreakdown, InferenceEstimate)``.
    """
    from .estimator import estimate_inference

    estimate = estimate_inference(model, system, variants)
    return EnergyModel().estimate(estimate, fit_result), estimate
