//! The malloc runtime, reproducing the paper's wrapped allocator (§3.2).
//!
//! The paper interposed glibc's malloc via allocation hooks, making every
//! chunk 8 bytes larger; the extra bytes hold a 32-bit identifier marking
//! the chunk as a *user* or *MPI* allocation plus the chunk size. The fault
//! injector scans the heap for chunks whose identifier says "user" and
//! flips a bit inside one.
//!
//! We implement that scheme directly: chunk headers live **inside the
//! simulated heap memory** (so a fault can corrupt a header, and a
//! corrupted header genuinely confuses both `free` and the injector's
//! scan), while an authoritative Rust-side map keeps the allocator itself
//! deterministic.

use crate::layout::{align_up, Region};
use crate::mem::Memory;
use std::collections::BTreeMap;

/// Identifier stored in the first header word of a live user chunk.
pub const MAGIC_USER: u32 = 0x55AA_0001;
/// Identifier for a live MPI-library chunk.
pub const MAGIC_MPI: u32 = 0x55AA_0002;
/// Identifier for a freed chunk.
pub const MAGIC_FREE: u32 = 0x55AA_00FE;
/// Header size: identifier + size, as in the paper.
pub const HEADER_SIZE: u32 = 8;

/// Who requested an allocation — decides the header identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocTag {
    /// Application code.
    User,
    /// The MPI library (allocation made while inside an MPI routine).
    Mpi,
}

impl AllocTag {
    /// The identifier written into the chunk header.
    pub fn magic(self) -> u32 {
        match self {
            AllocTag::User => MAGIC_USER,
            AllocTag::Mpi => MAGIC_MPI,
        }
    }
}

/// Heap-integrity failures (corrupted or invalid chunk metadata). The
/// machine escalates these to abnormal termination, as glibc would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// `free` of a pointer that is not a live chunk.
    InvalidFree(u32),
    /// The in-memory header no longer matches the allocator's records —
    /// heap corruption detected.
    CorruptHeader { chunk: u32, found_magic: u32 },
    /// The arena cannot satisfy the request.
    OutOfMemory { requested: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    Free,
    Live(AllocTag),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    /// Total bytes including the header.
    size: u32,
    state: ChunkState,
}

/// A live-chunk descriptor exposed to the fault injector and profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Address of the 8-byte header.
    pub header: u32,
    /// Address returned to the caller (header + 8).
    pub payload: u32,
    /// Payload bytes.
    pub payload_size: u32,
    /// User or MPI.
    pub tag: AllocTag,
}

/// First-fit allocator with coalescing over the simulated heap region.
/// `Clone` captures the authoritative chunk map for world snapshots (the
/// in-memory headers ride along with the memory pages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapAllocator {
    base: u32,
    /// Current break (end of the used arena).
    brk: u32,
    /// Hard limit (end of the heap mapping's maximum extent).
    limit: u32,
    /// Chunks keyed by header address (both free and live).
    chunks: BTreeMap<u32, Chunk>,
    /// High-water mark of the break, reported as the paper's "stable
    /// heap size" in Table 1 profiles.
    peak_brk: u32,
}

impl HeapAllocator {
    /// Create an allocator over `[base, limit)`.
    pub fn new(base: u32, limit: u32) -> Self {
        assert!(base < limit);
        HeapAllocator {
            base,
            brk: base,
            limit,
            chunks: BTreeMap::new(),
            peak_brk: base,
        }
    }

    /// The heap base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Current break (one past the last byte in use).
    pub fn brk(&self) -> u32 {
        self.brk
    }

    /// Peak break over the run — the "stable point" heap size of Table 1.
    pub fn peak_bytes(&self) -> u32 {
        self.peak_brk - self.base
    }

    /// Allocate `size` bytes tagged `tag`; returns the payload address.
    /// Grows the heap mapping (brk) as needed.
    pub fn alloc(&mut self, mem: &mut Memory, size: u32, tag: AllocTag) -> Result<u32, HeapError> {
        let need = align_up(size.max(1), 8) + HEADER_SIZE;
        // First fit over free chunks.
        let mut found = None;
        for (&addr, ch) in &self.chunks {
            if ch.state == ChunkState::Free && ch.size >= need {
                found = Some((addr, ch.size));
                break;
            }
        }
        let header = if let Some((addr, have)) = found {
            // Split if the remainder can hold another chunk.
            if have - need >= HEADER_SIZE + 8 {
                self.chunks.insert(
                    addr,
                    Chunk {
                        size: need,
                        state: ChunkState::Live(tag),
                    },
                );
                self.chunks.insert(
                    addr + need,
                    Chunk {
                        size: have - need,
                        state: ChunkState::Free,
                    },
                );
                self.write_header(mem, addr + need, MAGIC_FREE, have - need);
            } else {
                self.chunks.insert(
                    addr,
                    Chunk {
                        size: have,
                        state: ChunkState::Live(tag),
                    },
                );
            }
            addr
        } else {
            // Extend the break.
            let addr = self.brk;
            let new_brk = addr
                .checked_add(need)
                .filter(|&b| b <= self.limit)
                .ok_or(HeapError::OutOfMemory { requested: size })?;
            if !mem.map_mut().grow(Region::Heap, new_brk) {
                return Err(HeapError::OutOfMemory { requested: size });
            }
            self.brk = new_brk;
            self.peak_brk = self.peak_brk.max(new_brk);
            self.chunks.insert(
                addr,
                Chunk {
                    size: need,
                    state: ChunkState::Live(tag),
                },
            );
            addr
        };
        self.write_header(mem, header, tag.magic(), self.chunks[&header].size);
        Ok(header + HEADER_SIZE)
    }

    /// Free the chunk whose payload starts at `ptr`. Validates both the
    /// Rust-side record and the in-memory header; a mismatch means the
    /// header was corrupted (e.g. by an injected fault) and is reported as
    /// heap corruption, which the machine escalates like a glibc abort.
    pub fn free(&mut self, mem: &mut Memory, ptr: u32) -> Result<(), HeapError> {
        let header = ptr.wrapping_sub(HEADER_SIZE);
        let tag = match self.chunks.get(&header) {
            Some(Chunk {
                state: ChunkState::Live(tag),
                ..
            }) => *tag,
            _ => return Err(HeapError::InvalidFree(ptr)),
        };
        // A read on the program's behalf: `free` acts on what it finds.
        let mut magic = [0u8; 4];
        mem.guest_read(header, &mut magic);
        let found_magic = u32::from_le_bytes(magic);
        if found_magic != tag.magic() {
            return Err(HeapError::CorruptHeader {
                chunk: header,
                found_magic,
            });
        }
        let size = self.chunks[&header].size;
        self.chunks.insert(
            header,
            Chunk {
                size,
                state: ChunkState::Free,
            },
        );
        self.write_header(mem, header, MAGIC_FREE, size);
        self.coalesce(mem, header);
        Ok(())
    }

    fn coalesce(&mut self, mem: &mut Memory, addr: u32) {
        // Merge with the next chunk if free.
        let size = self.chunks[&addr].size;
        if let Some(next) = self.chunks.get(&(addr + size)).copied() {
            if next.state == ChunkState::Free {
                self.chunks.remove(&(addr + size));
                self.chunks.insert(
                    addr,
                    Chunk {
                        size: size + next.size,
                        state: ChunkState::Free,
                    },
                );
                self.write_header(mem, addr, MAGIC_FREE, size + next.size);
            }
        }
        // Merge with the previous chunk if free.
        if let Some((&prev_addr, prev)) = self.chunks.range(..addr).next_back() {
            if prev.state == ChunkState::Free && prev_addr + prev.size == addr {
                let merged = prev.size + self.chunks[&addr].size;
                self.chunks.remove(&addr);
                self.chunks.insert(
                    prev_addr,
                    Chunk {
                        size: merged,
                        state: ChunkState::Free,
                    },
                );
                self.write_header(mem, prev_addr, MAGIC_FREE, merged);
            }
        }
    }

    fn write_header(&self, mem: &mut Memory, header: u32, magic: u32, size: u32) {
        mem.poke_u32(header, magic);
        mem.poke_u32(header + 4, size - HEADER_SIZE);
    }

    /// All live chunks, by ascending address. The `tag` field reflects the
    /// allocator's authoritative records; the injector reads the in-memory
    /// identifier instead when emulating the paper's scan.
    pub fn live_chunks(&self) -> Vec<ChunkInfo> {
        self.chunks
            .iter()
            .filter_map(|(&addr, ch)| match ch.state {
                ChunkState::Live(tag) => Some(ChunkInfo {
                    header: addr,
                    payload: addr + HEADER_SIZE,
                    payload_size: ch.size - HEADER_SIZE,
                    tag,
                }),
                ChunkState::Free => None,
            })
            .collect()
    }

    /// Total live payload bytes with the given tag.
    pub fn live_bytes(&self, tag: AllocTag) -> u64 {
        self.live_chunks()
            .iter()
            .filter(|c| c.tag == tag)
            .map(|c| c.payload_size as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{AddressSpaceMap, Mapping, Perms};

    const HEAP_BASE: u32 = 0x0a00_0000;
    const HEAP_LIMIT: u32 = 0x0a10_0000;

    fn setup() -> (Memory, HeapAllocator) {
        let mut map = AddressSpaceMap::new();
        map.add(Mapping {
            start: HEAP_BASE,
            end: HEAP_BASE + 0x1000,
            region: Region::Heap,
            perms: Perms::RW,
        });
        (Memory::new(map), HeapAllocator::new(HEAP_BASE, HEAP_LIMIT))
    }

    #[test]
    fn alloc_writes_tagged_header() {
        let (mut mem, mut h) = setup();
        let p = h.alloc(&mut mem, 100, AllocTag::User).unwrap();
        assert_eq!(mem.peek_u32(p - 8), MAGIC_USER);
        assert_eq!(mem.peek_u32(p - 4), 104); // aligned payload size
        let q = h.alloc(&mut mem, 64, AllocTag::Mpi).unwrap();
        assert_eq!(mem.peek_u32(q - 8), MAGIC_MPI);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (mut mem, mut h) = setup();
        let mut spans: Vec<(u32, u32)> = Vec::new();
        for i in 1..40u32 {
            let p = h.alloc(&mut mem, i * 12 % 257 + 1, AllocTag::User).unwrap();
            let sz = mem.peek_u32(p - 4);
            for &(s, e) in &spans {
                assert!(p + sz <= s || p - 8 >= e, "overlap");
            }
            spans.push((p - 8, p + sz));
        }
    }

    #[test]
    fn free_and_reuse() {
        let (mut mem, mut h) = setup();
        let p = h.alloc(&mut mem, 256, AllocTag::User).unwrap();
        h.free(&mut mem, p).unwrap();
        assert_eq!(mem.peek_u32(p - 8), MAGIC_FREE);
        let q = h.alloc(&mut mem, 200, AllocTag::User).unwrap();
        assert_eq!(q, p, "freed chunk should be reused first-fit");
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let (mut mem, mut h) = setup();
        let a = h.alloc(&mut mem, 64, AllocTag::User).unwrap();
        let b = h.alloc(&mut mem, 64, AllocTag::User).unwrap();
        let c = h.alloc(&mut mem, 64, AllocTag::User).unwrap();
        h.free(&mut mem, a).unwrap();
        h.free(&mut mem, c).unwrap();
        h.free(&mut mem, b).unwrap(); // merges all three
                                      // One big allocation should now fit in the merged space.
        let big = h.alloc(&mut mem, 200, AllocTag::User).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn invalid_free_detected() {
        let (mut mem, mut h) = setup();
        assert_eq!(
            h.free(&mut mem, 0x0a00_0010),
            Err(HeapError::InvalidFree(0x0a00_0010))
        );
        let p = h.alloc(&mut mem, 16, AllocTag::User).unwrap();
        h.free(&mut mem, p).unwrap();
        // Double free.
        assert!(matches!(
            h.free(&mut mem, p),
            Err(HeapError::InvalidFree(_))
        ));
    }

    #[test]
    fn corrupted_header_detected_on_free() {
        // An injected bit flip in the chunk identifier makes free() abort,
        // the heap-corruption crash path.
        let (mut mem, mut h) = setup();
        let p = h.alloc(&mut mem, 32, AllocTag::User).unwrap();
        mem.flip_bit(p - 8, 3);
        let err = h.free(&mut mem, p).unwrap_err();
        assert!(matches!(err, HeapError::CorruptHeader { .. }));
    }

    #[test]
    fn heap_grows_and_respects_limit() {
        let (mut mem, mut h) = setup();
        // Grow well past the initial 4 KiB mapping.
        let mut ptrs = Vec::new();
        for _ in 0..64 {
            ptrs.push(h.alloc(&mut mem, 1024, AllocTag::User).unwrap());
        }
        assert!(h.brk() > HEAP_BASE + 0x1000);
        assert_eq!(h.peak_bytes(), h.brk() - HEAP_BASE);
        // Exhaust the arena.
        let err = h.alloc(&mut mem, 0x0100_0000, AllocTag::User).unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory { .. }));
        // Stores inside grown area work.
        mem.store_u32(*ptrs.last().unwrap(), 42).unwrap();
    }

    #[test]
    fn live_chunks_and_byte_accounting() {
        let (mut mem, mut h) = setup();
        let a = h.alloc(&mut mem, 100, AllocTag::User).unwrap();
        let _b = h.alloc(&mut mem, 50, AllocTag::Mpi).unwrap();
        let chunks = h.live_chunks();
        assert_eq!(chunks.len(), 2);
        assert_eq!(h.live_bytes(AllocTag::User), 104);
        assert_eq!(h.live_bytes(AllocTag::Mpi), 56);
        h.free(&mut mem, a).unwrap();
        assert_eq!(h.live_bytes(AllocTag::User), 0);
    }

    #[test]
    fn zero_sized_alloc_gets_distinct_pointer() {
        let (mut mem, mut h) = setup();
        let a = h.alloc(&mut mem, 0, AllocTag::User).unwrap();
        let b = h.alloc(&mut mem, 0, AllocTag::User).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn free_counts_its_header_check_as_a_read() {
        // `free` acts on the identifier it finds, so a golden run's read
        // stamps must show the header word live until the free.
        let (mut mem, mut h) = setup();
        let p = h.alloc(&mut mem, 32, AllocTag::User).unwrap();
        let q = h.alloc(&mut mem, 32, AllocTag::User).unwrap();
        mem.set_read_stamp(4);
        h.free(&mut mem, p).unwrap();
        let stamps = mem.take_read_stamps().unwrap();
        assert_eq!(stamps.get(p - HEADER_SIZE), 4, "checked identifier");
        assert_eq!(stamps.get(p - 4), 0, "size word is only ever written");
        assert_eq!(stamps.get(q - HEADER_SIZE), 0, "chunk never freed");
    }
}
