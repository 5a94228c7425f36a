"""The SoC interconnect: address decode over RAM regions and CSRs.

``SocBus`` implements the same byte/halfword/word protocol as
:class:`~repro.cpu.machine.SparseMemory`, so an ISA
:class:`~repro.cpu.machine.Machine` can execute directly against a SoC:
loads and stores hit real RAM backings or peripheral registers.
"""

from __future__ import annotations

from ..cpu.machine import CowPagesMixin
from ..rtl.synth import ResourceReport


class BusError(RuntimeError):
    pass


class RamBacking:
    """A bytearray-backed RAM/ROM region.

    The backing store materialises on first touch: an idle region (the
    256 MiB ``main_ram`` of a session that only ever runs from flash)
    costs no resident memory, which is what bounds how many warm
    sessions one host can hold.  Reading ``data`` allocates, so code
    that only wants to know whether the region was ever touched must
    check ``materialized`` first.
    """

    __slots__ = ("region", "writable", "_data")

    def __init__(self, region, writable=True):
        self.region = region
        self.writable = writable
        self._data = None

    @property
    def materialized(self):
        return self._data is not None

    @property
    def data(self):
        data = self._data
        if data is None:
            data = self._data = bytearray(self.region.size)
        return data

    def load(self, offset, blob):
        self.data[offset:offset + len(blob)] = blob


_PAGE_BITS = 12


class SocBus(CowPagesMixin):
    """Decodes addresses to RAM backings or the CSR bank.

    Address decode is cached per 4 KiB page: pages that lie entirely
    inside one RAM region resolve to ``(backing, region_base, name)``
    through a dict lookup instead of a linear region scan plus CSR-range
    check on every access.  Pages overlapping the CSR window or a region
    boundary are never cached and always take the full decode path, so
    peripheral side effects and bus errors behave exactly as before.

    Copy-on-write snapshots (:class:`~repro.cpu.machine.CowPagesMixin`)
    index pages in *address* space — the same ``addr >> 12`` indexes the
    translated-block page resolver uses — with page images clipped to
    the RAM regions overlapping the page, so region-boundary pages
    snapshot correctly.  CSR/peripheral state is not memory and is
    captured at the :class:`~repro.emu.renode.Emulator` level.
    """

    def __init__(self, memory_map, csr_bank=None, rom_regions=()):
        self.memory_map = memory_map
        self.csr_bank = csr_bank
        self.backings = {
            region.name: RamBacking(region, writable=region.name not in rom_regions)
            for region in memory_map
        }
        self._init_cow()
        self._page_cache = {}
        # Parallel page cache for generated code (repro.cpu.translate):
        # page -> (backing bytearray, region base, writable).  Kept in
        # lockstep with _page_cache by _resolve_page; raw tuples so hot
        # blocks index the bytearray without attribute lookups.
        self._page_data = {}
        # Per-region traffic accounting: (region, "read"|"write") ->
        # [transactions, bytes].  None (default) keeps the hot paths to
        # a single is-None branch; enable_traffic_metrics() turns it on.
        self._traffic = None
        if csr_bank is None:
            self._csr_window = None
        else:
            # Registers may still be added to the bank after the bus is
            # built, so treat the whole region holding the bank (or a
            # generous window past its base) as uncacheable.
            try:
                region = memory_map.find(csr_bank.base)
                self._csr_window = (region.base, region.end)
            except KeyError:
                self._csr_window = (csr_bank.base, csr_bank.base + (1 << 20))

    def backing(self, name):
        return self.backings[name]

    def release(self):
        """Drop every materialised region; the bus is not used again."""
        self._page_cache.clear()
        self._page_data.clear()
        for backing in self.backings.values():
            backing._data = None

    # --- copy-on-write hooks (CowPagesMixin) -----------------------------------------
    def _cow_all_pages(self):
        pages = set()
        for backing in self.backings.values():
            region = backing.region
            pages.update(range(region.base >> _PAGE_BITS,
                               ((region.end - 1) >> _PAGE_BITS) + 1))
        return pages

    def _cow_page_image(self, index):
        lo = index << _PAGE_BITS
        hi = lo + (1 << _PAGE_BITS)
        pieces = []
        for name, backing in sorted(self.backings.items()):
            region = backing.region
            start = max(lo, region.base)
            end = min(hi, region.end)
            if start < end:
                offset = start - region.base
                if backing.materialized:
                    blob = bytes(backing.data[offset:offset + end - start])
                else:
                    # Never touched: the pre-image is zeros, and taking
                    # it must not materialise the whole region.
                    blob = bytes(end - start)
                pieces.append((name, offset, blob))
        return pieces or None

    def _cow_restore_page(self, index, saved):
        if saved is None:
            return  # bus pages always exist; nothing was allocated lazily
        for name, offset, blob in saved:
            self.backings[name].data[offset:offset + len(blob)] = blob

    # --- traffic metrics ---------------------------------------------------------
    def enable_traffic_metrics(self):
        """Start counting per-region read/write transactions and bytes."""
        if self._traffic is None:
            self._traffic = {}
        return self

    def _count(self, region_name, direction, nbytes):
        traffic = self._traffic
        cell = traffic.get((region_name, direction))
        if cell is None:
            cell = traffic[(region_name, direction)] = [0, 0]
        cell[0] += 1
        cell[1] += nbytes

    def traffic(self):
        """``{(region, direction): (transactions, bytes)}`` so far."""
        if self._traffic is None:
            return {}
        return {key: tuple(value) for key, value in self._traffic.items()}

    def export_metrics(self, registry, **labels):
        """Feed the traffic counters into a
        :class:`~repro.core.metrics.MetricsRegistry`."""
        for (region, direction), (count, nbytes) in sorted(self.traffic().items()):
            registry.counter("bus_transactions", region=region,
                             direction=direction, **labels).add(count)
            registry.counter("bus_bytes", region=region,
                             direction=direction, **labels).add(nbytes)
        return registry

    def load_bytes(self, addr, blob):
        if blob and self._cow_protected:
            for page in range(addr >> _PAGE_BITS,
                              ((addr + len(blob) - 1) >> _PAGE_BITS) + 1):
                if page in self._cow_protected:
                    self._cow_record(page)
        backing, offset = self._locate(addr)
        backing.data[offset:offset + len(blob)] = blob

    def _locate(self, addr):
        region = self.memory_map.find(addr)
        return self.backings[region.name], addr - region.base

    def _resolve_page(self, addr):
        """Cache and return ``(backing, base, region_name)`` for addr's
        page, or None when the page must use the slow path."""
        page = addr >> _PAGE_BITS
        lo = page << _PAGE_BITS
        hi = lo + (1 << _PAGE_BITS)
        if self._csr_window is not None:
            csr_lo, csr_hi = self._csr_window
            if lo < csr_hi and csr_lo < hi:
                return None
        region = self.memory_map.find(addr)
        if region.base <= lo and hi <= region.end:
            backing = self.backings[region.name]
            entry = (backing, region.base, region.name)
            self._page_cache[page] = entry
            self._page_data[page] = (backing.data, region.base,
                                     backing.writable)
            return entry
        return None

    # --- byte/halfword/word protocol ------------------------------------------------
    def read8(self, addr):
        entry = (self._page_cache.get(addr >> _PAGE_BITS)
                 or self._resolve_page(addr))
        if entry is not None:
            backing, base, name = entry
            if self._traffic is not None:
                self._count(name, "read", 1)
            return backing.data[addr - base]
        if self.csr_bank is not None and self.csr_bank.contains(addr):
            if self._traffic is not None:
                self._count("csr", "read", 1)
            word = self.csr_bank.read32(addr & ~3)
            return (word >> (8 * (addr & 3))) & 0xFF
        backing, offset = self._locate(addr)
        if self._traffic is not None:
            self._count(backing.region.name, "read", 1)
        return backing.data[offset]

    def write8(self, addr, value):
        if self._cow_protected and (addr >> _PAGE_BITS) in self._cow_protected:
            self._cow_record(addr >> _PAGE_BITS)
        entry = (self._page_cache.get(addr >> _PAGE_BITS)
                 or self._resolve_page(addr))
        if entry is not None:
            backing, base, name = entry
            if not backing.writable:
                raise BusError(f"write to read-only region at 0x{addr:08x}")
            if self._traffic is not None:
                self._count(name, "write", 1)
            backing.data[addr - base] = value & 0xFF
            return
        if self.csr_bank is not None and self.csr_bank.contains(addr):
            if self._traffic is not None:
                self._count("csr", "write", 1)
            self.csr_bank.write32(addr & ~3, value & 0xFF)
            return
        backing, offset = self._locate(addr)
        if not backing.writable:
            raise BusError(f"write to read-only region at 0x{addr:08x}")
        if self._traffic is not None:
            self._count(backing.region.name, "write", 1)
        backing.data[offset] = value & 0xFF

    def read16(self, addr):
        return self.read8(addr) | self.read8(addr + 1) << 8

    def write16(self, addr, value):
        self.write8(addr, value)
        self.write8(addr + 1, value >> 8)

    def read32(self, addr):
        entry = (self._page_cache.get(addr >> _PAGE_BITS)
                 or self._resolve_page(addr))
        if entry is not None:
            backing, base, name = entry
            offset = addr - base
            data = backing.data
            if offset + 4 <= len(data):
                if self._traffic is not None:
                    self._count(name, "read", 4)
                return int.from_bytes(data[offset:offset + 4], "little")
            return self.read16(addr) | self.read16(addr + 2) << 16
        if self.csr_bank is not None and self.csr_bank.contains(addr):
            if self._traffic is not None:
                self._count("csr", "read", 4)
            return self.csr_bank.read32(addr & ~3)
        backing, offset = self._locate(addr)
        if offset + 4 <= len(backing.data):
            if self._traffic is not None:
                self._count(backing.region.name, "read", 4)
            return int.from_bytes(backing.data[offset:offset + 4], "little")
        return self.read16(addr) | self.read16(addr + 2) << 16

    def write32(self, addr, value):
        if self._cow_protected:
            # The backing is contiguous across pages, so a misaligned
            # word store can touch two address pages: record both.
            page = addr >> _PAGE_BITS
            if page in self._cow_protected:
                self._cow_record(page)
            last = (addr + 3) >> _PAGE_BITS
            if last != page and last in self._cow_protected:
                self._cow_record(last)
        entry = (self._page_cache.get(addr >> _PAGE_BITS)
                 or self._resolve_page(addr))
        if entry is not None:
            backing, base, name = entry
            if not backing.writable:
                raise BusError(f"write to read-only region at 0x{addr:08x}")
            offset = addr - base
            data = backing.data
            if offset + 4 <= len(data):
                if self._traffic is not None:
                    self._count(name, "write", 4)
                data[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
            else:
                self.write16(addr, value)
                self.write16(addr + 2, value >> 16)
            return
        if self.csr_bank is not None and self.csr_bank.contains(addr):
            if self._traffic is not None:
                self._count("csr", "write", 4)
            self.csr_bank.write32(addr & ~3, value & 0xFFFFFFFF)
            return
        backing, offset = self._locate(addr)
        if not backing.writable:
            raise BusError(f"write to read-only region at 0x{addr:08x}")
        if offset + 4 <= len(backing.data):
            if self._traffic is not None:
                self._count(backing.region.name, "write", 4)
            backing.data[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
        else:
            self.write16(addr, value)
            self.write16(addr + 2, value >> 16)


def interconnect_resources(num_slaves):
    """Wishbone decoder/arbiter cost grows with the slave count."""
    return ResourceReport(luts=120 + 35 * num_slaves, ffs=60 + 10 * num_slaves)
