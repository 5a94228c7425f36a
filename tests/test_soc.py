"""SoC tests: memory map, bus, CSRs, peripherals, linker."""

import os

import pytest

from repro.boards import ARTY_A7_35T, FOMU
from repro.cpu.vexriscv import ARTY_DEFAULT, FOMU_MINIMAL
from repro.models import load
from repro.perf.memories import QSPI_FLASH, SPI_FLASH
from repro.soc import LinkError, Soc, image_sections, link
from repro.soc.bus import BusError


@pytest.fixture
def fomu_soc():
    return Soc(FOMU, FOMU_MINIMAL)


@pytest.fixture
def arty_soc():
    return Soc(ARTY_A7_35T, ARTY_DEFAULT)


def test_fomu_memory_map(fomu_soc):
    names = {region.name for region in fomu_soc.memory_map}
    assert names == {"sram", "flash", "csr"}
    assert fomu_soc.memory_map.get("sram").size == 128 * 1024
    assert fomu_soc.memory_map.get("flash").size == 2 * 1024 * 1024


def test_arty_memory_map(arty_soc):
    assert arty_soc.memory_map.get("main_ram").size == 256 * 1024 * 1024
    assert arty_soc.memory_map.get("main_ram").tech.name == "ddr3"


def test_quad_spi_upgrade(fomu_soc):
    assert fomu_soc.memory_map.get("flash").tech == SPI_FLASH
    fomu_soc.upgrade_to_quad_spi()
    assert fomu_soc.memory_map.get("flash").tech == QSPI_FLASH


def test_bus_read_write(fomu_soc):
    bus = fomu_soc.bus()
    base = fomu_soc.memory_map.get("sram").base
    bus.write32(base + 16, 0xCAFEBABE)
    assert bus.read32(base + 16) == 0xCAFEBABE
    assert bus.read8(base + 16) == 0xBE
    assert bus.read16(base + 18) == 0xCAFE
    bus.write8(base + 16, 0x11)
    assert bus.read32(base + 16) == 0xCAFEBA11


def _resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm for resident memory")
def test_ram_costs_only_touched_pages(arty_soc):
    """A region costs the host the pages firmware touches, not its size
    (what bounds warm sessions per host): a snapshot, a one-word write
    and a restore grow resident memory by far less than the 256 MiB
    ``main_ram``."""
    before = _resident_bytes()
    bus = arty_soc.bus()
    snap = bus.snapshot()
    base = arty_soc.memory_map.get("main_ram").base
    bus.write32(base + 8, 0x12345678)
    assert bus.read32(base + 8) == 0x12345678
    bus.restore(snap)                    # pre-image of an untouched page: zeros
    assert bus.read32(base + 8) == 0
    assert _resident_bytes() - before < 32 * 1024 * 1024


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_stay_private(arty_soc):
    """A forked child (DSE/multiprocessing workers) writing RAM must not
    write into its parent's copy."""
    bus = arty_soc.bus()
    addr = arty_soc.memory_map.get("main_ram").base + 64
    bus.write32(addr, 0x11111111)
    pid = os.fork()
    if pid == 0:
        try:
            bus.write32(addr, 0x22222222)
            os._exit(0 if bus.read32(addr) == 0x22222222 else 1)
        finally:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert bus.read32(addr) == 0x11111111


def test_load_past_region_end_raises(arty_soc):
    """A blob that overruns its region is refused before any byte lands;
    the region never grows and no byte leaks past its end."""
    bus = arty_soc.bus()
    flash = arty_soc.memory_map.get("flash")
    addr = flash.base + flash.size - 2
    with pytest.raises(BusError, match=f"0x{addr:08x}.*'flash'"):
        bus.load_bytes(addr, b"\x01\x02\x03\x04\x05\x06")
    assert len(bus.backing("flash").data) == flash.size
    assert bus.read16(addr) == 0
    bus.load_bytes(addr, b"\x01\x02")  # exactly to the end is fine
    assert bus.read16(addr) == 0x0201


def test_flash_is_read_only_on_bus(fomu_soc):
    bus = fomu_soc.bus()
    flash_base = fomu_soc.memory_map.get("flash").base
    bus.load_bytes(flash_base, b"\x01\x02\x03\x04")  # loader bypasses
    assert bus.read32(flash_base) == 0x04030201
    with pytest.raises(BusError):
        bus.write32(flash_base, 0)


def test_unmapped_address_raises(fomu_soc):
    bus = fomu_soc.bus()
    with pytest.raises(KeyError):
        bus.read32(0x9000_0000)


def test_csr_dispatch_uart(fomu_soc):
    bus = fomu_soc.bus()
    uart = fomu_soc.peripheral("uart")
    addr = fomu_soc.csr_bank.get("uart_rxtx").address
    for byte in b"ok":
        bus.write32(addr, byte)
    assert uart.text() == "ok"
    uart.rx_queue.extend(b"x")
    assert bus.read32(addr) == ord("x")


def test_csr_scratch_register(arty_soc):
    bus = arty_soc.bus()
    addr = arty_soc.csr_bank.get("ctrl_scratch").address
    assert bus.read32(addr) == 0x12345678
    bus.write32(addr, 0xAAAA5555)
    assert bus.read32(addr) == 0xAAAA5555


def test_read_only_csr(arty_soc):
    bus = arty_soc.bus()
    addr = arty_soc.csr_bank.get("ctrl_bus_errors").address
    bus.write32(addr, 99)
    assert bus.read32(addr) == 0


def test_remove_peripheral_frees_resources(fomu_soc):
    before = fomu_soc.resources().logic_cells
    fomu_soc.remove_peripheral("timer")
    after = fomu_soc.resources().logic_cells
    assert after < before
    with pytest.raises(KeyError):
        fomu_soc.remove_peripheral("timer")


def test_required_peripherals_not_removable(fomu_soc):
    with pytest.raises(ValueError):
        fomu_soc.remove_peripheral("uart")
    with pytest.raises(ValueError):
        fomu_soc.remove_peripheral("usb_bridge")


def test_fomu_has_usb_bridge(fomu_soc, arty_soc):
    assert any(p.name == "usb_bridge" for p in fomu_soc.peripherals)
    assert not any(p.name == "usb_bridge" for p in arty_soc.peripherals)
    assert any(p.name == "sdram" for p in arty_soc.peripherals)


def test_default_placement(fomu_soc, arty_soc):
    assert fomu_soc.default_placement()["text"] == "flash"
    assert fomu_soc.default_placement()["arena"] == "sram"
    assert arty_soc.default_placement()["text"] == "main_ram"


def test_system_config_placement_override(fomu_soc):
    system = fomu_soc.system_config(placement={"model_weights": "sram"})
    assert system.region("model_weights").name == "sram"
    assert system.region("text").name == "flash"


# --- linker --------------------------------------------------------------------------

def test_image_sections_sized_from_model():
    kws = load("dscnn_kws")
    sections = image_sections(kws)
    assert sections["model_weights"] == kws.weights_bytes()
    assert sections["arena"] > 0
    assert sections["text"] > 100 * 1024


def test_whole_image_does_not_fit_fomu_sram(fomu_soc):
    """Section III-B: 'the compiled binary image would not fit in 128kB'."""
    kws = load("dscnn_kws")
    with pytest.raises(LinkError):
        link(fomu_soc, kws, placement={
            "text": "sram", "kernel_text": "sram", "model_weights": "sram",
            "rodata_misc": "sram",
        })


def test_flash_placement_fits(fomu_soc):
    kws = load("dscnn_kws")
    layout = link(fomu_soc, kws)
    assert layout.placement["text"] == "flash"
    assert layout.region_usage["sram"] <= 128 * 1024


def test_sram_ops_and_model_step_fits(fomu_soc):
    """The 'SRAM Ops and Model' move: hot code + weights fit beside the
    arena in 128 kB."""
    kws = load("dscnn_kws")
    layout = link(fomu_soc, kws, placement={
        "kernel_text": "sram", "model_weights": "sram",
    })
    assert layout.region_usage["sram"] <= 128 * 1024


def test_mnv2_needs_external_ram(fomu_soc, arty_soc):
    mnv2 = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    layout = link(arty_soc, mnv2)  # fits DDR3 easily
    assert layout.region_usage["main_ram"] > 1024 * 1024
    with pytest.raises(LinkError):
        link(fomu_soc, mnv2)  # 3.5 MB of weights cannot fit Fomu flash+sram


def test_layout_summary_renders(fomu_soc):
    layout = link(fomu_soc, load("dscnn_kws"))
    text = layout.summary()
    assert "model_weights" in text and "flash" in text
