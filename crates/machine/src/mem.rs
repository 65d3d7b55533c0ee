//! Sparse paged memory with region protection and read stamping.
//!
//! Pages are allocated lazily (a 3 GiB address space costs nothing until
//! touched). Every user-mode access is checked against the
//! [`AddressSpaceMap`]; a reference outside any mapping, into kernel space,
//! or violating permissions raises a fault that the machine turns into
//! SIGSEGV — which is how corrupted pointers and return addresses crash,
//! the dominant manifestation in the paper's memory-injection tables.
//!
//! *Read stamping* is the one record of when memory was last read: every
//! 4-byte granule remembers the caller-set stamp of the last time it was
//! **read** — by a guest load, a consumed instruction word, or the host on
//! the guest's behalf — in every region, on the TLB-hit path too. Two
//! clocks drive the stamp:
//!
//! - a campaign's golden pass stamps with epoch-interval indices. A
//!   granule whose stamp is `<= k` is never read again after epoch
//!   boundary `k`, which is what lets a trial that differs from the
//!   golden run only in such granules be declared the golden run again
//!   (see [`Memory::converged_on`]);
//! - a traced run ([`crate::MachineConfig::trace`]) stamps with the
//!   retired-block clock + 1, which is the measurement the paper took with
//!   Valgrind to produce the working-set curves of Tables 5–7.

use crate::layout::{AddressSpaceMap, Mapping, Region, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Low bits of an address within its page.
const PAGE_MASK: u32 = PAGE_SIZE - 1;

/// Software-TLB size. Direct-mapped on the page number; 512 slots cover
/// a 2 MiB working set. The superblock fast path leans on TLB hits hard
/// enough that conflict evictions (a strided grid sweep repeatedly
/// knocking out the stack page's slot) showed up as whole percents of
/// run time at 64 slots; 512 makes them rare at a memcpy-able flush
/// cost.
const TLB_ENTRIES: usize = 512;

/// One software-TLB slot: a cached translation from a page base to the
/// raw backing page, with the mapping's permissions and the in-page
/// validity bound baked in so a hit is a mask + compare, not a
/// `HashMap` lookup + `AddressSpaceMap` walk + `Arc::make_mut`.
#[derive(Clone, Copy)]
struct TlbEntry {
    /// Page base this entry translates. Page bases are always
    /// `PAGE_SIZE`-aligned, so `u32::MAX` can never be a real base and
    /// doubles as the invalid marker.
    base: u32,
    /// Raw pointer to the backing [`Page`] allocation.
    ptr: *mut Page,
    /// Exclusive in-page bound: only offsets `[0, hi)` lie inside the
    /// mapping (region ends are not page-aligned, so the last page of a
    /// mapping is partial). Accesses reaching `hi` take the slow path,
    /// which reports the exact fault address at the mapping end.
    hi: u32,
    read: bool,
    /// Cached *write* permission: true only if the entry was filled
    /// from an exclusively-owned (COW-unshared) page.
    write: bool,
    exec: bool,
    /// [`Tlb::gen`] value at write-fill time; a write hit additionally
    /// requires this to match, so bumping the generation revokes every
    /// cached write permission at once (see [`Memory::snapshot`]).
    write_gen: u64,
    /// Region of the backing mapping (diagnostics / tests).
    region: Region,
}

impl TlbEntry {
    const INVALID: TlbEntry = TlbEntry {
        base: u32::MAX,
        ptr: std::ptr::null_mut(),
        hi: 0,
        read: false,
        write: false,
        exec: false,
        write_gen: 0,
        region: Region::Text,
    };
}

/// The software TLB: a small direct-mapped cache over [`Memory`]'s page
/// table. Entries are filled on slow-path accesses and invalidated on
/// anything that can move, re-protect or re-share the backing page:
/// `page_mut` (COW duplication and first-touch materialisation),
/// [`Memory::map_mut`] (brk growth), and [`Memory::snapshot`] (pages
/// become COW-shared: the write generation is bumped, revoking all cached
/// write permissions).
struct Tlb {
    entries: [TlbEntry; TLB_ENTRIES],
    /// Write-permission generation, bumped by [`Memory::snapshot`]
    /// (which takes `&self`, hence the atomic; relaxed ordering is
    /// enough because cross-thread handoff of a `Memory` already
    /// synchronises).
    generation: AtomicU64,
    enabled: bool,
    /// The value read hits write into their stamp row (see
    /// [`crate::Machine::set_read_stamp`]).
    stamp: u32,
    /// Read stamping only: per slot, the read-stamp row of the page the
    /// slot's entry translates (null if the page is unreadable), so a
    /// read hit stamps with one store instead of a map lookup. Empty
    /// while stamping is off — kept out of [`TlbEntry`] so the entries
    /// every run hammers stay 32 bytes.
    stamp_rows: Vec<*mut StampPage>,
}

// SAFETY: the raw pointers in `entries` target the heap allocations of
// `Arc<Page>`s (and those in `stamp_rows`, of boxed stamp rows) owned by
// the same `Memory` that owns this `Tlb`; they are only dereferenced from
// `Memory`'s own `&self`/`&mut self` methods (stamp rows from `&mut self`
// only), so aliasing follows `Memory`'s borrow discipline, and the
// allocations they point to live (at a stable address) for as long as
// the owning page table / stamp map holds them.
unsafe impl Send for Tlb {}
// SAFETY: `&Tlb` exposes no operation that dereferences the pointers or
// mutates entries; the only shared-access mutation is the atomic
// generation counter.
unsafe impl Sync for Tlb {}

impl Tlb {
    fn new(enabled: bool) -> Self {
        Tlb {
            entries: [TlbEntry::INVALID; TLB_ENTRIES],
            generation: AtomicU64::new(1),
            enabled,
            stamp: 0,
            stamp_rows: Vec::new(),
        }
    }

    #[inline]
    fn slot(addr: u32) -> usize {
        ((addr / PAGE_SIZE) as usize) & (TLB_ENTRIES - 1)
    }

    fn flush(&mut self) {
        self.entries = [TlbEntry::INVALID; TLB_ENTRIES];
    }
}

/// One backing page. Pages are reference-counted so that snapshots and
/// the worlds forked from them share unmodified pages copy-on-write:
/// cloning the page table is O(pages) pointer copies, and a page is
/// duplicated only when one of the sharers writes to it.
pub type Page = [u8; PAGE_SIZE as usize];

/// A memory access fault (turned into SIGSEGV by the machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting address.
    pub addr: u32,
    /// What the access attempted.
    pub kind: AccessKind,
}

/// The kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    Exec,
}

/// Granules (4-byte units) per page.
const PAGE_GRANULES: usize = (PAGE_SIZE / 4) as usize;

/// One page's worth of read stamps.
type StampPage = [u32; PAGE_GRANULES];

/// Per-granule read stamps of one run: for every 4-byte granule, the
/// stamp that was current (see [`crate::Machine::set_read_stamp`]) the
/// last time
/// the granule was read; 0 for a granule never read. Rows exist only for
/// pages that were read at all.
///
/// Stamps are `u32`: the campaign stamps with epoch-interval indices,
/// one per held epoch snapshot, so the value cannot wrap before the
/// snapshots themselves exhaust memory — even at one epoch per round. A
/// traced run stamps with the block clock, which never exceeds the
/// instruction budget; tracing refuses budgets that do not fit.
#[derive(Debug, Clone, Default)]
pub struct ReadStamps {
    /// Page number → position in `rows`.
    index: HashMap<u32, usize>,
    /// Boxed so a row's address survives `rows` growing (TLB entries
    /// point at rows).
    rows: Vec<Box<StampPage>>,
}

impl ReadStamps {
    /// The stamp of the granule containing `addr` (0 = never read).
    pub fn get(&self, addr: u32) -> u32 {
        self.row(addr / PAGE_SIZE)
            .map_or(0, |r| r[((addr & PAGE_MASK) / 4) as usize])
    }

    /// Every read granule as `(granule address, stamp)`, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.index.iter().flat_map(move |(&page, &i)| {
            self.rows[i]
                .iter()
                .enumerate()
                .filter(|(_, &s)| s != 0)
                .map(move |(g, &s)| (page * PAGE_SIZE + 4 * g as u32, s))
        })
    }

    fn row(&self, page: u32) -> Option<&StampPage> {
        self.index.get(&page).map(|&i| &*self.rows[i])
    }

    fn row_mut(&mut self, page: u32) -> &mut StampPage {
        let rows = &mut self.rows;
        let i = *self.index.entry(page).or_insert_with(|| {
            rows.push(Box::new([0; PAGE_GRANULES]));
            rows.len() - 1
        });
        &mut self.rows[i]
    }

    /// Stamp every granule overlapping `[addr, addr + len)`.
    fn stamp(&mut self, addr: u32, len: u32, stamp: u32) {
        let end = addr.saturating_add(len.max(1) - 1);
        let mut a = addr;
        loop {
            let page_end = a | PAGE_MASK;
            let hi = end.min(page_end);
            let row = self.row_mut(a / PAGE_SIZE);
            for g in (a & PAGE_MASK) / 4..=(hi & PAGE_MASK) / 4 {
                row[g as usize] = stamp;
            }
            if hi == end {
                return;
            }
            a = page_end + 1;
        }
    }
}

/// The process memory: lazily allocated copy-on-write pages plus the
/// region map.
pub struct Memory {
    map: AddressSpaceMap,
    pages: HashMap<u32, Arc<Page>>,
    /// Trace mode (see [`crate::MachineConfig::trace`]): the machine
    /// keeps read stamping on with its block clock as the stamp, forks
    /// included.
    traced: bool,
    /// Bytes currently backed by pages (for diagnostics).
    resident_pages: usize,
    /// Checked user-mode loads + stores retired (not fetches, not
    /// privileged peeks/pokes). Counted once per accessor call on both
    /// the TLB-hit and slow paths, so the count is execution-path
    /// independent — the mem-stall fault's surcharge clock.
    accesses: u64,
    /// Read stamps, present only while stamping is on (a campaign's
    /// golden pass). Not state: snapshots neither carry nor compare it.
    stamps: Option<Box<ReadStamps>>,
    /// Translation fast path (see [`Tlb`]).
    tlb: Tlb,
}

impl Memory {
    /// Create memory over an address-space map.
    pub fn new(map: AddressSpaceMap) -> Self {
        Memory {
            map,
            pages: HashMap::new(),
            traced: false,
            resident_pages: 0,
            accesses: 0,
            stamps: None,
            tlb: Tlb::new(true),
        }
    }

    /// The region map.
    pub fn map(&self) -> &AddressSpaceMap {
        &self.map
    }

    /// Mutable region map access (heap growth). Flushes the TLB: cached
    /// entries bake in mapping bounds that a layout change invalidates.
    pub fn map_mut(&mut self) -> &mut AddressSpaceMap {
        self.tlb.flush();
        &mut self.map
    }

    /// Enter trace mode: the fast path goes off, so the machine runs
    /// instruction by instruction and advances the stamp with its block
    /// clock (see [`crate::Machine::step`]).
    pub(crate) fn set_traced(&mut self) {
        self.traced = true;
        self.set_fastpath(false);
    }

    /// Whether this memory is in trace mode.
    #[inline]
    pub(crate) fn traced(&self) -> bool {
        self.traced
    }

    /// Enable or disable the translation fast path. Disabling flushes,
    /// so every subsequent access takes the slow (fully-checked) path —
    /// the `--no-fastpath` baseline for equivalence tests and benches.
    pub fn set_fastpath(&mut self, enabled: bool) {
        self.tlb.enabled = enabled;
        self.tlb.flush();
    }

    /// Whether the translation fast path is enabled.
    pub fn fastpath(&self) -> bool {
        self.tlb.enabled
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.resident_pages
    }

    /// Checked user-mode loads + stores retired so far (see the field
    /// doc: identical on the fast and slow execution paths).
    pub fn data_accesses(&self) -> u64 {
        self.accesses
    }

    /// Turn read stamping on (if it is not already) and make `stamp`
    /// the value every subsequent read writes into its granules'
    /// [`ReadStamps`] entry. Driven through
    /// [`crate::Machine::set_read_stamp`], which owns the fetch side.
    pub(crate) fn set_read_stamp(&mut self, stamp: u32) {
        if self.stamps.is_none() {
            self.stamps = Some(Box::default());
            // Cached entries predate stamping and have no stamp row.
            self.tlb.flush();
            self.tlb.stamp_rows = vec![std::ptr::null_mut(); TLB_ENTRIES];
        }
        self.tlb.stamp = stamp;
    }

    /// Whether read stamping is on (the machine consults this to decide
    /// if dispatched blocks need their fetches stamped).
    #[inline]
    pub(crate) fn read_stamping(&self) -> bool {
        self.stamps.is_some()
    }

    /// The value reads currently stamp with.
    pub(crate) fn read_stamp(&self) -> u32 {
        self.tlb.stamp
    }

    /// Turn read stamping off and hand back what was collected.
    pub(crate) fn take_read_stamps(&mut self) -> Option<ReadStamps> {
        // The TLB's row pointers target the rows being handed away.
        self.tlb.stamp_rows = Vec::new();
        self.stamps.take().map(|b| *b)
    }

    /// Count `[addr, addr + len)` as read now (no-op unless stamping).
    /// The accessors below call it themselves; the machine calls it for
    /// instruction words it executes out of decoded caches.
    #[inline]
    pub(crate) fn stamp_read(&mut self, addr: u32, len: u32) {
        if let Some(s) = self.stamps.as_deref_mut() {
            s.stamp(addr, len, self.tlb.stamp);
        }
    }

    /// Writable view of the page containing `addr`, materialising it if
    /// absent and un-sharing it (copy-on-write) if a snapshot holds it.
    ///
    /// Always invalidates the page's TLB slot first: `Arc::make_mut` may
    /// replace the backing allocation (COW duplication), and a page maps
    /// to exactly one direct-mapped slot, so clearing that slot removes
    /// any cached translation to the old allocation.
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        self.tlb.entries[Tlb::slot(addr)] = TlbEntry::INVALID;
        let key = addr / PAGE_SIZE;
        let resident = &mut self.resident_pages;
        let arc = self.pages.entry(key).or_insert_with(|| {
            *resident += 1;
            Arc::new([0u8; PAGE_SIZE as usize])
        });
        Arc::make_mut(arc)
    }

    fn check(&self, addr: u32, len: u32, kind: AccessKind) -> Result<Mapping, MemFault> {
        let m = self.map.lookup(addr).ok_or(MemFault { addr, kind })?;
        let ok = match kind {
            AccessKind::Read => m.perms.read,
            AccessKind::Write => m.perms.write,
            AccessKind::Exec => m.perms.exec,
        };
        if !ok {
            return Err(MemFault { addr, kind });
        }
        // An access spanning past the mapping's end faults at the first
        // byte outside it.
        let end = addr.checked_add(len).ok_or(MemFault { addr, kind })?;
        if end > m.end {
            return Err(MemFault { addr: m.end, kind });
        }
        Ok(*m)
    }

    // --- TLB fast path ---------------------------------------------------

    /// Fast-path read: a hit yields a borrow of `len` bytes entirely
    /// inside one cached, readable, in-bounds page. Misses (including
    /// any access reaching the in-page bound `hi`) return `None` and
    /// fall to the checked slow path.
    #[inline]
    fn tlb_read(&self, addr: u32, len: usize) -> Option<&[u8]> {
        let off = (addr & PAGE_MASK) as usize;
        let e = &self.tlb.entries[Tlb::slot(addr)];
        if e.base == addr & !PAGE_MASK && e.read && off + len <= e.hi as usize {
            // SAFETY: `ptr` targets the heap allocation of an
            // `Arc<Page>` still held by `self.pages` — every operation
            // that could replace or re-share that allocation
            // (`page_mut`, `map_mut`) invalidates the entry first — and
            // we only read through it.
            let page: &Page = unsafe { &*e.ptr };
            Some(&page[off..off + len])
        } else {
            None
        }
    }

    /// The read hit of a *stamping* run. While stamping is on, entries
    /// are filled without `read` permission, so the inlined
    /// [`Self::tlb_read`] every run shares always misses and stays
    /// exactly as cheap as it was; the outlined load paths come here
    /// first instead. A slot's stamp row is non-null iff its entry's page
    /// is readable, which is what stands in for the `read` bit.
    fn tlb_read_stamped(&mut self, addr: u32, len: usize) -> Option<&[u8]> {
        let off = (addr & PAGE_MASK) as usize;
        let slot = Tlb::slot(addr);
        let row = *self.tlb.stamp_rows.get(slot)?;
        let e = &self.tlb.entries[slot];
        if e.base == addr & !PAGE_MASK && !row.is_null() && off + len <= e.hi as usize {
            // SAFETY: a fill stores the row of the page it translates
            // beside the entry (or null), so a valid entry's non-null
            // row is a boxed row owned by `self.stamps`; rows are never
            // dropped while stamping is on, and `take_read_stamps`
            // clears `stamp_rows` before handing them away. `&mut self`
            // makes this the only live reference into the row.
            let row = unsafe { &mut *row };
            for g in &mut row[off / 4..=(off + len - 1) / 4] {
                *g = self.tlb.stamp;
            }
            // SAFETY: as in `tlb_read`.
            let page: &Page = unsafe { &*e.ptr };
            Some(&page[off..off + len])
        } else {
            None
        }
    }

    /// Fast-path write: like [`Self::tlb_read`] but the entry must also
    /// carry write permission from a COW-exclusive fill whose write
    /// generation is still current (snapshots revoke it by bumping the
    /// generation).
    #[inline]
    fn tlb_write(&mut self, addr: u32, len: usize) -> Option<&mut [u8]> {
        let off = (addr & PAGE_MASK) as usize;
        let e = &self.tlb.entries[Tlb::slot(addr)];
        if e.base == addr & !PAGE_MASK
            && e.write
            && off + len <= e.hi as usize
            && e.write_gen == self.tlb.generation.load(Ordering::Relaxed)
        {
            // SAFETY: as in `tlb_read`, the pointer is live; writing is
            // sound because the entry was filled from an exclusively
            // owned page (`Arc::get_mut` succeeded) and the generation
            // check proves no snapshot has re-shared it since.
            let page: &mut Page = unsafe { &mut *e.ptr };
            Some(&mut page[off..off + len])
        } else {
            None
        }
    }

    /// Install a read-only entry for `addr`'s page after a slow-path
    /// load or fetch through mapping `m`. No-ops when the fast path is
    /// off, the mapping starts mid-page, or the page is not materialised.
    fn tlb_fill_read(&mut self, addr: u32, m: &Mapping) {
        if !self.tlb.enabled {
            return;
        }
        let base = addr & !PAGE_MASK;
        if base < m.start {
            return;
        }
        let Some(arc) = self.pages.get(&(addr / PAGE_SIZE)) else {
            return;
        };
        self.tlb.entries[Tlb::slot(addr)] = TlbEntry {
            base,
            ptr: Arc::as_ptr(arc) as *mut Page,
            hi: (m.end - base).min(PAGE_SIZE),
            read: m.perms.read && self.stamps.is_none(),
            write: false,
            exec: m.perms.exec,
            write_gen: 0,
            region: m.region,
        };
        self.cache_stamp_row(addr, m);
    }

    /// Install a read+write entry for `addr`'s page after a slow-path
    /// store through mapping `m`. Fills only from an exclusively owned
    /// page (`Arc::get_mut`), recording the current write generation —
    /// the preceding `raw_write` un-shared the page via `page_mut`, so
    /// exclusivity normally holds.
    fn tlb_fill_write(&mut self, addr: u32, m: &Mapping) {
        if !self.tlb.enabled {
            return;
        }
        let base = addr & !PAGE_MASK;
        if base < m.start {
            return;
        }
        let Some(arc) = self.pages.get_mut(&(addr / PAGE_SIZE)) else {
            return;
        };
        let Some(page) = Arc::get_mut(arc) else {
            return;
        };
        self.tlb.entries[Tlb::slot(addr)] = TlbEntry {
            base,
            ptr: page,
            hi: (m.end - base).min(PAGE_SIZE),
            read: m.perms.read && self.stamps.is_none(),
            write: m.perms.write,
            exec: m.perms.exec,
            write_gen: self.tlb.generation.load(Ordering::Relaxed),
            region: m.region,
        };
        self.cache_stamp_row(addr, m);
    }

    /// Read stamping only: a TLB entry for `addr`'s page (in mapping
    /// `m`) was just filled; remember the page's stamp row beside it —
    /// null for an unreadable page (see [`Self::tlb_read_stamped`]).
    fn cache_stamp_row(&mut self, addr: u32, m: &Mapping) {
        if let Some(s) = self.stamps.as_deref_mut() {
            self.tlb.stamp_rows[Tlb::slot(addr)] = if m.perms.read {
                s.row_mut(addr / PAGE_SIZE)
            } else {
                std::ptr::null_mut()
            };
        }
    }

    /// TLB diagnostics for tests: `(page base, region, writable-now)`
    /// cached for `addr`, if its slot holds a matching valid entry.
    #[doc(hidden)]
    pub fn tlb_probe(&self, addr: u32) -> Option<(u32, Region, bool)> {
        let e = &self.tlb.entries[Tlb::slot(addr)];
        if e.base != u32::MAX && e.base == addr & !PAGE_MASK {
            let writable = e.write && e.write_gen == self.tlb.generation.load(Ordering::Relaxed);
            Some((e.base, e.region, writable))
        } else {
            None
        }
    }

    // --- raw byte plumbing (no checks) ----------------------------------

    fn raw_read(&self, addr: u32, out: &mut [u8]) {
        // Reads never materialise (or un-share) a page: an absent page
        // reads as zeros, exactly as if it were backed.
        let off = (addr % PAGE_SIZE) as usize;
        if off + out.len() <= PAGE_SIZE as usize {
            // Fast path: the access stays within one page.
            match self.pages.get(&(addr / PAGE_SIZE)) {
                Some(page) => out.copy_from_slice(&page[off..off + out.len()]),
                None => out.fill(0),
            }
            return;
        }
        let mut a = addr;
        for b in out.iter_mut() {
            let off = (a % PAGE_SIZE) as usize;
            *b = self.pages.get(&(a / PAGE_SIZE)).map_or(0, |p| p[off]);
            a = a.wrapping_add(1);
        }
    }

    fn raw_write(&mut self, addr: u32, data: &[u8]) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + data.len() <= PAGE_SIZE as usize {
            let page = self.page_mut(addr);
            page[off..off + data.len()].copy_from_slice(data);
            return;
        }
        let mut a = addr;
        for &b in data {
            let off = (a % PAGE_SIZE) as usize;
            self.page_mut(a)[off] = b;
            a = a.wrapping_add(1);
        }
    }

    // --- checked user-mode accesses --------------------------------------

    /// Copy `buf.len()` bytes from `addr` into the caller's buffer with
    /// protection checks and read stamping — the allocation-free
    /// replacement for the old `Vec`-returning `load`.
    pub fn load_into(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), MemFault> {
        self.accesses += 1;
        let len = buf.len() as u32;
        self.check(addr, len, AccessKind::Read)?;
        self.stamp_read(addr, len);
        self.raw_read(addr, buf);
        Ok(())
    }

    /// Load exactly `N` bytes as a fixed-size array (no heap traffic).
    pub fn load_exact<const N: usize>(&mut self, addr: u32) -> Result<[u8; N], MemFault> {
        let mut b = [0u8; N];
        self.load_into(addr, &mut b)?;
        Ok(b)
    }

    /// Check + stamp a `len`-byte load and append the bytes to `out`.
    /// Grows `out` but reuses its capacity, so sinks that call this in a
    /// loop (console, output file) stop allocating once warm.
    pub fn load_append(&mut self, addr: u32, len: u32, out: &mut Vec<u8>) -> Result<(), MemFault> {
        self.accesses += 1;
        self.check(addr, len, AccessKind::Read)?;
        self.stamp_read(addr, len);
        let start = out.len();
        out.resize(start + len as usize, 0);
        self.raw_read(addr, &mut out[start..]);
        Ok(())
    }

    /// Load a 32-bit little-endian word. The TLB hit is inlined into
    /// callers (the superblock loop in particular); the miss path is
    /// outlined and cold.
    #[inline]
    pub fn load_u32(&mut self, addr: u32) -> Result<u32, MemFault> {
        self.accesses += 1;
        if let Some(src) = self.tlb_read(addr, 4) {
            return Ok(u32::from_le_bytes(src.try_into().unwrap()));
        }
        self.load_u32_slow(addr)
    }

    #[cold]
    fn load_u32_slow(&mut self, addr: u32) -> Result<u32, MemFault> {
        if let Some(src) = self.tlb_read_stamped(addr, 4) {
            return Ok(u32::from_le_bytes(src.try_into().unwrap()));
        }
        let m = self.check(addr, 4, AccessKind::Read)?;
        self.stamp_read(addr, 4);
        let mut b = [0u8; 4];
        self.raw_read(addr, &mut b);
        self.tlb_fill_read(addr, &m);
        Ok(u32::from_le_bytes(b))
    }

    /// Load a byte.
    #[inline]
    pub fn load_u8(&mut self, addr: u32) -> Result<u8, MemFault> {
        self.accesses += 1;
        if let Some(src) = self.tlb_read(addr, 1) {
            return Ok(src[0]);
        }
        self.load_u8_slow(addr)
    }

    #[cold]
    fn load_u8_slow(&mut self, addr: u32) -> Result<u8, MemFault> {
        if let Some(src) = self.tlb_read_stamped(addr, 1) {
            return Ok(src[0]);
        }
        let m = self.check(addr, 1, AccessKind::Read)?;
        self.stamp_read(addr, 1);
        let mut b = [0u8; 1];
        self.raw_read(addr, &mut b);
        self.tlb_fill_read(addr, &m);
        Ok(b[0])
    }

    /// Load a 64-bit float.
    #[inline]
    pub fn load_f64(&mut self, addr: u32) -> Result<f64, MemFault> {
        self.accesses += 1;
        if let Some(src) = self.tlb_read(addr, 8) {
            return Ok(f64::from_le_bytes(src.try_into().unwrap()));
        }
        self.load_f64_slow(addr)
    }

    #[cold]
    fn load_f64_slow(&mut self, addr: u32) -> Result<f64, MemFault> {
        if let Some(src) = self.tlb_read_stamped(addr, 8) {
            return Ok(f64::from_le_bytes(src.try_into().unwrap()));
        }
        let m = self.check(addr, 8, AccessKind::Read)?;
        self.stamp_read(addr, 8);
        let mut b = [0u8; 8];
        self.raw_read(addr, &mut b);
        self.tlb_fill_read(addr, &m);
        Ok(f64::from_le_bytes(b))
    }

    /// Store a 32-bit word.
    #[inline]
    pub fn store_u32(&mut self, addr: u32, v: u32) -> Result<(), MemFault> {
        self.accesses += 1;
        if let Some(dst) = self.tlb_write(addr, 4) {
            dst.copy_from_slice(&v.to_le_bytes());
            return Ok(());
        }
        self.store_u32_slow(addr, v)
    }

    #[cold]
    fn store_u32_slow(&mut self, addr: u32, v: u32) -> Result<(), MemFault> {
        let m = self.check(addr, 4, AccessKind::Write)?;
        self.raw_write(addr, &v.to_le_bytes());
        self.tlb_fill_write(addr, &m);
        Ok(())
    }

    /// Store a byte.
    #[inline]
    pub fn store_u8(&mut self, addr: u32, v: u8) -> Result<(), MemFault> {
        self.accesses += 1;
        if let Some(dst) = self.tlb_write(addr, 1) {
            dst[0] = v;
            return Ok(());
        }
        self.store_u8_slow(addr, v)
    }

    #[cold]
    fn store_u8_slow(&mut self, addr: u32, v: u8) -> Result<(), MemFault> {
        let m = self.check(addr, 1, AccessKind::Write)?;
        self.raw_write(addr, &[v]);
        self.tlb_fill_write(addr, &m);
        Ok(())
    }

    /// Store a 64-bit float.
    #[inline]
    pub fn store_f64(&mut self, addr: u32, v: f64) -> Result<(), MemFault> {
        self.accesses += 1;
        if let Some(dst) = self.tlb_write(addr, 8) {
            dst.copy_from_slice(&v.to_le_bytes());
            return Ok(());
        }
        self.store_f64_slow(addr, v)
    }

    #[cold]
    fn store_f64_slow(&mut self, addr: u32, v: f64) -> Result<(), MemFault> {
        let m = self.check(addr, 8, AccessKind::Write)?;
        self.raw_write(addr, &v.to_le_bytes());
        self.tlb_fill_write(addr, &m);
        Ok(())
    }

    /// Fetch two instruction words for the decoder (exec permission). The
    /// second word may lie outside the mapping (the instruction may be 1
    /// word long); it reads as 0 in that case and the decoder's
    /// `Truncated` error surfaces only if the opcode wanted an immediate.
    /// Only the first word is stamped as read here: whether the lookahead
    /// word matters is the decoder's call, so the caller stamps what was
    /// consumed.
    pub fn fetch_words(&mut self, addr: u32) -> Result<[u32; 2], MemFault> {
        // Fast path: both words inside one cached executable page. The
        // last instructions of a mapping (where word 1 may be outside
        // it) always miss `hi` and keep the read-as-0 slow semantics.
        {
            let off = (addr & PAGE_MASK) as usize;
            let e = &self.tlb.entries[Tlb::slot(addr)];
            if e.base == addr & !PAGE_MASK && e.exec && off + 8 <= e.hi as usize {
                // SAFETY: see `tlb_read` — the entry is live and only read.
                let p = unsafe { &*e.ptr };
                let words = [
                    u32::from_le_bytes(p[off..off + 4].try_into().unwrap()),
                    u32::from_le_bytes(p[off + 4..off + 8].try_into().unwrap()),
                ];
                self.stamp_read(addr, 4);
                return Ok(words);
            }
        }
        let m = self.check(addr, 4, AccessKind::Exec)?;
        self.stamp_read(addr, 4);
        let mut b = [0u8; 4];
        self.raw_read(addr, &mut b);
        let w0 = u32::from_le_bytes(b);
        let w1 = if self.check(addr + 4, 4, AccessKind::Exec).is_ok() {
            let mut b1 = [0u8; 4];
            self.raw_read(addr + 4, &mut b1);
            u32::from_le_bytes(b1)
        } else {
            0
        };
        self.tlb_fill_read(addr, &m);
        Ok([w0, w1])
    }

    // --- privileged access (loader, fault injector, MPI library) --------

    /// Read bytes with no protection check and no read stamping.
    pub fn peek(&self, addr: u32, out: &mut [u8]) {
        self.raw_read(addr, out);
    }

    /// Read one byte, privileged.
    pub fn peek_u8(&self, addr: u32) -> u8 {
        let mut b = [0u8; 1];
        self.raw_read(addr, &mut b);
        b[0]
    }

    /// Read a u32, privileged.
    pub fn peek_u32(&self, addr: u32) -> u32 {
        let mut b = [0u8; 4];
        self.raw_read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Read bytes on the guest's behalf — the MPI library copying a send
    /// buffer out, the allocator checking a chunk header. Unchecked like
    /// [`Self::peek`], but the program's behaviour depends
    /// on what it returns, so it counts as a *read* for read stamping
    /// (the injector's and tests' own peeks do not).
    pub fn guest_read(&mut self, addr: u32, out: &mut [u8]) {
        self.stamp_read(addr, out.len() as u32);
        self.raw_read(addr, out);
    }

    /// Write bytes with no protection check — the `ptrace`-style poke the
    /// fault injector uses to corrupt text, data and message buffers.
    pub fn poke(&mut self, addr: u32, data: &[u8]) {
        self.raw_write(addr, data);
    }

    /// Write a u32, privileged.
    pub fn poke_u32(&mut self, addr: u32, v: u32) {
        self.raw_write(addr, &v.to_le_bytes());
    }

    /// Flip one bit at `addr` (privileged) and return the new byte value.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> u8 {
        debug_assert!(bit < 8);
        let b = self.peek_u8(addr) ^ (1 << bit);
        self.poke(addr, &[b]);
        b
    }

    // --- convergence -----------------------------------------------------

    /// Is this memory the golden run's memory at epoch boundary `k`, up
    /// to granules the golden run never reads again?
    ///
    /// `snap` is the golden memory captured at the boundary and `stamps`
    /// the golden run's read stamps, stamped with epoch-interval indices
    /// (interval `i` ends at boundary `i`). Everything but page contents
    /// must match exactly; a granule whose contents differ is *excused*
    /// iff its stamp is `<= k` — the golden run's last read of it, if
    /// any, lies before the boundary. Returns the number of excused
    /// granules, or `None` on any other difference. Pages still
    /// physically shared with the snapshot are skipped without a byte
    /// compared.
    pub fn converged_on(&self, snap: &MemorySnapshot, stamps: &ReadStamps, k: u32) -> Option<u64> {
        const ZERO: Page = [0u8; PAGE_SIZE as usize];
        if self.accesses != snap.accesses || !maps_eq(&self.map, &snap.map) {
            return None;
        }
        let mut excused = 0u64;
        let mut diff = |page: u32, a: &Page, b: &Page| -> bool {
            if a == b {
                return true;
            }
            let row = stamps.row(page);
            for g in 0..PAGE_GRANULES {
                if a[4 * g..4 * g + 4] != b[4 * g..4 * g + 4] {
                    if row.is_some_and(|r| r[g] > k) {
                        return false;
                    }
                    excused += 1;
                }
            }
            true
        };
        for (&page, a) in &self.pages {
            let same = match snap.pages.get(&page) {
                Some(b) => Arc::ptr_eq(a, b) || diff(page, a, b),
                None => diff(page, a, &ZERO),
            };
            if !same {
                return None;
            }
        }
        for (&page, b) in &snap.pages {
            if !self.pages.contains_key(&page) && !diff(page, &ZERO, b) {
                return None;
            }
        }
        Some(excused)
    }

    // --- snapshots --------------------------------------------------------

    /// Capture the full memory state. Pages are shared with the live
    /// memory copy-on-write, so this is O(resident pages) pointer
    /// clones, not a byte copy.
    ///
    /// Every page is COW-shared with the snapshot afterwards, so all
    /// cached TLB write permissions are revoked by bumping the write
    /// generation (read entries stay valid: the shared allocations do
    /// not move, and reading shared pages is fine).
    pub fn snapshot(&self) -> MemorySnapshot {
        self.tlb.generation.fetch_add(1, Ordering::Relaxed);
        MemorySnapshot {
            map: self.map.clone(),
            pages: self.pages.clone(),
            traced: self.traced,
            resident_pages: self.resident_pages,
            accesses: self.accesses,
            fastpath: self.tlb.enabled,
        }
    }
}

/// A captured [`Memory`] state: the region map plus a COW page table.
/// Cloning a snapshot, and materialising memories from it, shares pages
/// until someone writes to them.
#[derive(Clone)]
pub struct MemorySnapshot {
    map: AddressSpaceMap,
    pages: HashMap<u32, Arc<Page>>,
    resident_pages: usize,
    /// Data-access counter at capture time; restored forks continue the
    /// count so the mem-stall surcharge clock survives snapshot/restore.
    /// Excluded from equality like `resident_pages`: it is a clock, not
    /// memory content.
    accesses: u64,
    /// Whether the source memory had the translation fast path on;
    /// forks inherit it. Excluded from equality (like
    /// `resident_pages`): it is an execution-strategy knob, not state —
    /// the fast-vs-slow bit-identity tests compare snapshots across it.
    fastpath: bool,
    /// Whether the source memory was in trace mode; forks inherit it and
    /// the machine turns their stamping back on. Excluded from equality
    /// like `fastpath`.
    traced: bool,
}

impl MemorySnapshot {
    /// Materialise a live [`Memory`] from this snapshot (a fork: pages
    /// stay shared until written). The fork starts with a cold TLB —
    /// restore/fork is one of the invalidation boundaries.
    pub fn to_memory(&self) -> Memory {
        Memory {
            map: self.map.clone(),
            pages: self.pages.clone(),
            traced: self.traced,
            resident_pages: self.resident_pages,
            accesses: self.accesses,
            stamps: None,
            tlb: Tlb::new(self.fastpath),
        }
    }

    /// Number of resident pages captured.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// How many pages of `self` are *physically* shared (same backing
    /// allocation) with `other` — the COW property tests use this to
    /// prove forks share storage rather than deep-copying.
    pub fn pages_shared_with(&self, other: &MemorySnapshot) -> usize {
        self.pages
            .iter()
            .filter(|(k, p)| other.pages.get(k).is_some_and(|q| Arc::ptr_eq(p, q)))
            .count()
    }

    /// Hold `like`'s copy of every page whose bytes equal this
    /// snapshot's page at the same address, so that snapshots of equal
    /// memory keep one copy of it. What the snapshot reads is unchanged:
    /// a shared page is copied before it is written, like every page.
    pub fn share_pages(&mut self, like: &MemorySnapshot) {
        for (k, p) in self.pages.iter_mut() {
            if let Some(q) = like.pages.get(k) {
                if !Arc::ptr_eq(p, q) && **p == **q {
                    *p = Arc::clone(q);
                }
            }
        }
    }

    /// Logical content equality: two snapshots are equal when every
    /// mapped byte reads the same, regardless of which pages happen to
    /// be materialised (an absent page reads as zeros).
    fn content_eq(&self, other: &MemorySnapshot) -> bool {
        const ZERO: Page = [0u8; PAGE_SIZE as usize];
        let keys = self.pages.keys().chain(other.pages.keys());
        for k in keys {
            let a = self.pages.get(k).map_or(&ZERO, |p| p.as_ref());
            let b = other.pages.get(k).map_or(&ZERO, |p| p.as_ref());
            if a != b {
                return false;
            }
        }
        true
    }
}

/// Do two address-space maps describe the same extents?
fn maps_eq(a: &AddressSpaceMap, b: &AddressSpaceMap) -> bool {
    a.iter().eq(b.iter())
}

impl PartialEq for MemorySnapshot {
    fn eq(&self, other: &Self) -> bool {
        // The address-space maps must describe the same extents; the
        // resident-page count is an allocation detail and is ignored.
        maps_eq(&self.map, &other.map) && self.content_eq(other)
    }
}

impl std::fmt::Debug for MemorySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySnapshot")
            .field("resident_pages", &self.pages.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Perms, TEXT_BASE};

    fn mem() -> Memory {
        let mut map = AddressSpaceMap::new();
        map.add(Mapping {
            start: TEXT_BASE,
            end: TEXT_BASE + 0x2000,
            region: Region::Text,
            perms: Perms::RX,
        });
        map.add(Mapping {
            start: TEXT_BASE + 0x2000,
            end: TEXT_BASE + 0x4000,
            region: Region::Data,
            perms: Perms::RW,
        });
        Memory::new(map)
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = mem();
        let a = TEXT_BASE + 0x2000;
        m.store_u32(a, 0xdeadbeef).unwrap();
        assert_eq!(m.load_u32(a).unwrap(), 0xdeadbeef);
        m.store_f64(a + 8, -2.5).unwrap();
        assert_eq!(m.load_f64(a + 8).unwrap(), -2.5);
        m.store_u8(a + 16, 0xab).unwrap();
        assert_eq!(m.load_u8(a + 16).unwrap(), 0xab);
    }

    #[test]
    fn unaligned_and_page_spanning_access() {
        let mut m = mem();
        let a = TEXT_BASE + 0x2000 + 4094; // spans a page boundary
        m.store_u32(a, 0x11223344).unwrap();
        assert_eq!(m.load_u32(a).unwrap(), 0x11223344);
    }

    #[test]
    fn write_to_text_faults() {
        let mut m = mem();
        let err = m.store_u32(TEXT_BASE, 1).unwrap_err();
        assert_eq!(err.kind, AccessKind::Write);
        assert_eq!(err.addr, TEXT_BASE);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = mem();
        assert!(m.load_u32(0x1000).is_err());
        assert!(m.load_u32(0xC000_0000).is_err()); // kernel space
        assert!(m.load_u32(0xffff_fffc).is_err());
    }

    #[test]
    fn access_spanning_mapping_end_faults() {
        let mut m = mem();
        let last = TEXT_BASE + 0x4000 - 2;
        let err = m.load_u32(last).unwrap_err();
        assert_eq!(err.addr, TEXT_BASE + 0x4000);
    }

    #[test]
    fn exec_from_data_faults() {
        let mut m = mem();
        let err = m.fetch_words(TEXT_BASE + 0x2000).unwrap_err();
        assert_eq!(err.kind, AccessKind::Exec);
    }

    #[test]
    fn poke_bypasses_protection() {
        let mut m = mem();
        m.poke_u32(TEXT_BASE, 0xfeedface);
        assert_eq!(m.peek_u32(TEXT_BASE), 0xfeedface);
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        let mut m = mem();
        m.poke(TEXT_BASE, &[0b1010_1010]);
        let nb = m.flip_bit(TEXT_BASE, 0);
        assert_eq!(nb, 0b1010_1011);
        let nb = m.flip_bit(TEXT_BASE, 7);
        assert_eq!(nb, 0b0010_1011);
    }

    #[test]
    fn load_into_and_exact_match_typed_loads() {
        let mut m = mem();
        let a = TEXT_BASE + 0x2000;
        m.store_u32(a, 0x04030201).unwrap();
        m.store_u32(a + 4, 0x08070605).unwrap();
        let mut buf = [0u8; 6];
        m.load_into(a, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        let b: [u8; 4] = m.load_exact(a + 2).unwrap();
        assert_eq!(b, [3, 4, 5, 6]);
        let mut out = vec![0xff];
        m.load_append(a, 3, &mut out).unwrap();
        assert_eq!(out, vec![0xff, 1, 2, 3]);
        // Faulting variants report the same addresses as the old load.
        let last = TEXT_BASE + 0x4000 - 2;
        let err = m.load_into(last, &mut buf).unwrap_err();
        assert_eq!(err.addr, TEXT_BASE + 0x4000);
        let err = m.load_append(0x1000, 4, &mut out).unwrap_err();
        assert_eq!(err.addr, 0x1000);
        assert_eq!(out.len(), 4, "failed append must not grow the buffer");
    }

    #[test]
    fn tlb_fills_on_store_and_load() {
        let mut m = mem();
        let a = TEXT_BASE + 0x2000;
        assert_eq!(m.tlb_probe(a), None);
        m.store_u32(a, 7).unwrap();
        assert_eq!(m.tlb_probe(a), Some((a, Region::Data, true)));
        // A warm TLB still reports spanning faults at the mapping end.
        let last = TEXT_BASE + 0x4000 - 2;
        m.store_u8(last, 1).unwrap();
        let err = m.load_u32(last).unwrap_err();
        assert_eq!(err.addr, TEXT_BASE + 0x4000);
        // Text fetches fill a read/exec entry without write permission.
        m.poke_u32(TEXT_BASE, 0);
        m.fetch_words(TEXT_BASE).unwrap();
        assert_eq!(
            m.tlb_probe(TEXT_BASE),
            Some((TEXT_BASE, Region::Text, false))
        );
    }

    #[test]
    fn snapshot_revokes_cached_write_permission() {
        let mut m = mem();
        let a = TEXT_BASE + 0x2000;
        m.store_u32(a, 1).unwrap();
        assert_eq!(m.tlb_probe(a), Some((a, Region::Data, true)));
        let snap = m.snapshot();
        // The page is now COW-shared: the cached write entry must be dead.
        assert_eq!(m.tlb_probe(a), Some((a, Region::Data, false)));
        // Writing again takes the slow path, un-shares, and must not
        // leak into the snapshot.
        m.store_u32(a, 2).unwrap();
        assert_eq!(m.load_u32(a).unwrap(), 2);
        assert_eq!(snap.to_memory().load_u32(a).unwrap(), 1);
    }

    #[test]
    fn forked_memory_starts_cold_and_stays_isolated() {
        let mut m = mem();
        let a = TEXT_BASE + 0x2000;
        m.store_u32(a, 5).unwrap();
        let snap = m.snapshot();
        let mut fork = snap.to_memory();
        assert_eq!(fork.tlb_probe(a), None, "forks start with a cold TLB");
        fork.store_u32(a, 9).unwrap();
        assert_eq!(m.load_u32(a).unwrap(), 5);
        assert_eq!(fork.load_u32(a).unwrap(), 9);
    }

    #[test]
    fn poke_and_map_change_invalidate_entries() {
        let mut m = mem();
        let a = TEXT_BASE + 0x2000;
        m.store_u32(a, 1).unwrap();
        assert!(m.tlb_probe(a).is_some());
        // A privileged poke rewrites through page_mut, killing the slot.
        m.poke_u32(a, 0xffff_ffff);
        assert_eq!(m.tlb_probe(a), None);
        assert_eq!(m.load_u32(a).unwrap(), 0xffff_ffff);
        // Any layout change flushes everything.
        m.store_u32(a, 3).unwrap();
        assert!(m.tlb_probe(a).is_some());
        let _ = m.map_mut();
        assert_eq!(m.tlb_probe(a), None);
    }

    #[test]
    fn fastpath_off_suppresses_fills() {
        let mut m = mem();
        let a = TEXT_BASE + 0x2000;
        m.set_fastpath(false);
        assert!(!m.fastpath());
        m.store_u32(a, 1).unwrap();
        assert_eq!(m.tlb_probe(a), None);
        assert_eq!(m.load_u32(a).unwrap(), 1);
    }

    #[test]
    fn snapshot_equality_ignores_fastpath_flag() {
        let mut fast = mem();
        let mut slow = mem();
        slow.set_fastpath(false);
        let a = TEXT_BASE + 0x2000;
        fast.store_u32(a, 42).unwrap();
        slow.store_u32(a, 42).unwrap();
        assert_eq!(fast.snapshot(), slow.snapshot());
    }

    #[test]
    fn resident_pages_grow_lazily() {
        let mut m = mem();
        assert_eq!(m.resident_pages(), 0);
        m.store_u8(TEXT_BASE + 0x2000, 1).unwrap();
        assert_eq!(m.resident_pages(), 1);
        m.store_u8(TEXT_BASE + 0x2001, 1).unwrap();
        assert_eq!(m.resident_pages(), 1);
        m.store_u8(TEXT_BASE + 0x3000, 1).unwrap();
        assert_eq!(m.resident_pages(), 2);
    }

    // --- read stamping ----------------------------------------------------

    fn stamped(m: &mut Memory) -> std::collections::BTreeMap<u32, u32> {
        m.take_read_stamps()
            .expect("stamping was on")
            .iter()
            .collect()
    }

    /// A mixed read workload over text and data, including unaligned and
    /// page-spanning loads, repeated so the fast path serves TLB hits.
    fn read_workload(m: &mut Memory) {
        let d = TEXT_BASE + 0x2000;
        for i in 0..64u32 {
            m.store_u32(d + 4 * i, i).unwrap();
        }
        m.poke_u32(TEXT_BASE, 0);
        for (stamp, pass) in [(3u32, 0u32), (9, 1)] {
            m.set_read_stamp(stamp);
            for i in (pass * 8..64).step_by(3) {
                m.load_u32(d + 4 * i).unwrap();
            }
            m.load_u8(d + 4 * 40 + 1 + pass).unwrap();
            m.load_f64(d + 4 * 50 + 2).unwrap(); // unaligned: 3 granules
            m.load_u32(d + 0x1000 - 2).unwrap(); // spans two pages
            m.fetch_words(TEXT_BASE + 8 * pass).unwrap();
            let mut buf = [0u8; 6];
            m.load_into(d + 4 * 60, &mut buf).unwrap();
        }
    }

    #[test]
    fn tlb_hit_stamps_equal_slow_path_stamps() {
        let mut fast = mem();
        let mut slow = mem();
        slow.set_fastpath(false);
        read_workload(&mut fast);
        read_workload(&mut slow);
        assert!(
            fast.tlb_probe(TEXT_BASE + 0x2000).is_some(),
            "hits happened"
        );
        let (f, s) = (stamped(&mut fast), stamped(&mut slow));
        assert_eq!(f, s);
        // Later reads overwrite earlier stamps; untouched granules stay 0.
        let d = TEXT_BASE + 0x2000;
        assert_eq!(f[&d], 3, "read in the first pass only");
        assert_eq!(f[&(d + 4 * 11)], 9, "read in the second pass only");
        assert_eq!(f[&(d + 0x1000 - 4)], 9);
        assert_eq!(f[&(d + 0x1000)], 9, "second page of the spanning load");
        assert!(!f.contains_key(&(d + 4)));
    }

    #[test]
    fn stores_peeks_and_faulting_loads_do_not_stamp_but_guest_reads_do() {
        let mut m = mem();
        let d = TEXT_BASE + 0x2000;
        m.set_read_stamp(5);
        m.store_u32(d, 1).unwrap();
        m.store_u8(d + 9, 1).unwrap();
        assert_eq!(m.peek_u32(d), 1);
        assert!(m.load_u32(0x1000).is_err());
        let mut b = [0u8; 8];
        m.guest_read(d + 16, &mut b);
        let s = m.take_read_stamps().unwrap();
        assert_eq!(s.get(d), 0);
        assert_eq!(s.get(d + 8), 0);
        assert_eq!((s.get(d + 16), s.get(d + 20), s.get(d + 24)), (5, 5, 0));
        assert!(!m.read_stamping(), "taking the stamps turns stamping off");
    }

    #[test]
    fn stamps_are_wide_enough_for_one_epoch_per_round() {
        // A u16 would wrap after 65,536 epochs and make an old read look
        // recent or — worse — a recent one look old.
        let mut m = mem();
        let d = TEXT_BASE + 0x2000;
        for stamp in [u16::MAX as u32, u16::MAX as u32 + 1, 70_000, u32::MAX] {
            m.set_read_stamp(stamp);
            m.load_u32(d).unwrap(); // slow path first, TLB hit after
            assert_eq!(m.read_stamp(), stamp);
        }
        m.set_read_stamp(70_000);
        m.load_u32(d + 4).unwrap();
        let s = m.take_read_stamps().unwrap();
        assert_eq!(s.get(d), u32::MAX);
        assert_eq!(s.get(d + 4), 70_000);
    }

    #[test]
    fn snapshots_do_not_carry_stamps() {
        let mut m = mem();
        m.set_read_stamp(1);
        m.load_u32(TEXT_BASE + 0x2000).unwrap();
        let fork = m.snapshot().to_memory();
        assert!(!fork.read_stamping());
        assert!(m.read_stamping());
    }

    #[test]
    fn convergence_excuses_only_granules_never_read_again() {
        let d = TEXT_BASE + 0x2000;
        let mut golden = mem();
        for i in 0..8u32 {
            golden.store_u32(d + 4 * i, i).unwrap();
        }
        golden.store_u32(d + 0x1000, 77).unwrap();
        // Golden reads granule 1 in interval 2 and granule 2 in interval 5.
        golden.set_read_stamp(2);
        golden.load_u32(d + 4).unwrap();
        golden.set_read_stamp(5);
        golden.load_u32(d + 8).unwrap();
        let stamps = golden.take_read_stamps().unwrap();
        let snap = golden.snapshot();

        let trial = snap.to_memory();
        assert_eq!(trial.converged_on(&snap, &stamps, 0), Some(0), "identical");

        // Never-read granule: excused at any boundary.
        let mut t = snap.to_memory();
        t.poke_u32(d + 12, 0xdead);
        assert_eq!(t.converged_on(&snap, &stamps, 0), Some(1));
        // Last read in interval 2: live until boundary 2, dead from it on.
        let mut t = snap.to_memory();
        t.flip_bit(d + 5, 3);
        assert_eq!(t.converged_on(&snap, &stamps, 1), None);
        assert_eq!(t.converged_on(&snap, &stamps, 2), Some(1));
        // Still to be read in interval 5 when standing at boundary 4.
        t.poke_u32(d + 8, 1);
        assert_eq!(t.converged_on(&snap, &stamps, 4), None);
        assert_eq!(t.converged_on(&snap, &stamps, 5), Some(2));

        // A page only one side has materialised compares against zeros.
        let mut t = snap.to_memory();
        t.poke_u32(d + 0x1800, 1);
        assert_eq!(t.converged_on(&snap, &stamps, 0), Some(1));
        t.poke_u32(d + 0x1800, 0);
        assert_eq!(t.converged_on(&snap, &stamps, 0), Some(0));

        // Anything but page contents must match exactly.
        let mut t = snap.to_memory();
        t.load_u32(d).unwrap();
        assert_eq!(t.converged_on(&snap, &stamps, 9), None, "access clock");
        let mut t = snap.to_memory();
        t.map_mut().add(Mapping {
            start: TEXT_BASE + 0x8000,
            end: TEXT_BASE + 0x9000,
            region: Region::Heap,
            perms: Perms::RW,
        });
        assert_eq!(t.converged_on(&snap, &stamps, 9), None, "address map");
    }
}
