//! Flat 64-bit memory model shared by the reference interpreter and the
//! performance simulator.
//!
//! The address space is divided into fixed regions (all little-endian):
//!
//! | Region   | Range                               | Notes                      |
//! |----------|-------------------------------------|----------------------------|
//! | NULL     | `[0, PAGE_SIZE)`                    | never mapped (NaT page)    |
//! | funcs    | `FUNC_ADDR_BASE + 16*FuncId`        | call targets only          |
//! | globals  | `[GLOBAL_BASE, globals_end)`        | from program layout        |
//! | heap     | `[HEAP_BASE, brk)`                  | bump allocation            |
//! | stack    | `[STACK_TOP - STACK_MAX, STACK_TOP)`| grows downward             |
//!
//! Accesses outside every region *fault*: a non-speculative access traps
//! (program error), while a speculative load defers to NaT — on the paper's
//! general-speculation model such "wild loads" also traverse the page-table
//! hierarchy at great expense (Sec. 4.3), which the simulator charges to
//! kernel cycles.

use crate::types::FuncId;
use std::sync::Arc;

/// Page size for both the memory map and the simulated DTLB.
pub const PAGE_SIZE: u64 = 4096;
/// Base of the global-variable region.
pub const GLOBAL_BASE: u64 = 0x1000_0000;
/// Base of the heap region.
pub const HEAP_BASE: u64 = 0x2000_0000;
/// Heap region hard limit.
pub const HEAP_MAX: u64 = 0x6000_0000;
/// Top of the downward-growing stack.
pub const STACK_TOP: u64 = 0x7FF0_0000;
/// Maximum stack size in bytes.
pub const STACK_MAX: u64 = 16 << 20;
/// Base of the (unmapped) function-address region.
pub const FUNC_ADDR_BASE: u64 = 0x0F00_0000;

/// The runtime "address" of a function, used for indirect calls.
pub fn func_addr(f: FuncId) -> u64 {
    FUNC_ADDR_BASE + 16 * f.0 as u64
}

/// Recover a function id from an address produced by [`func_addr`].
pub fn func_from_addr(addr: u64) -> Option<FuncId> {
    if (FUNC_ADDR_BASE..GLOBAL_BASE).contains(&addr) && (addr - FUNC_ADDR_BASE).is_multiple_of(16) {
        Some(FuncId(((addr - FUNC_ADDR_BASE) / 16) as u32))
    } else {
        None
    }
}

/// A memory access fault (address outside every valid region).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting address.
    pub addr: u64,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory fault at {:#x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// One simulated page.
type Page = [u8; PAGE_SIZE as usize];

/// Base of the stack region (the lowest valid stack address).
const STACK_BASE: u64 = STACK_TOP - STACK_MAX;

/// Lazily-populated flat page table for one contiguous region: page
/// lookup is a subtract, a shift, and an index — no hashing. Missing
/// entries read as zero.
#[derive(Clone, Debug, Default)]
struct PageTable {
    pages: Vec<Option<Arc<Page>>>,
}

impl PageTable {
    #[inline]
    fn get(&self, index: u64) -> Option<&Page> {
        match self.pages.get(index as usize) {
            Some(Some(p)) => Some(p),
            _ => None,
        }
    }

    /// The page at `index`, materializing it (and the table up to it) on
    /// first write. Copy-on-write: a shared page is cloned before any
    /// mutation.
    fn get_mut(&mut self, index: u64) -> &mut Page {
        let i = index as usize;
        if i >= self.pages.len() {
            self.pages.resize(i + 1, None);
        }
        Arc::make_mut(self.pages[i].get_or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize])))
    }
}

/// Sparse paged memory with region-validity checking.
///
/// Each region (globals, heap, stack) has its own flat page table, so
/// the load/store hot path is branch + index rather than a hash lookup.
/// Pages are reference-counted copy-on-write: `clone` shares every page
/// and a later write re-materializes only the touched page, so interval
/// snapshots in `epic_sim::sample` cost O(resident pages) pointer bumps
/// rather than a deep copy.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    globals: PageTable,
    heap: PageTable,
    stack: PageTable,
    /// Current heap break; [`HEAP_BASE`]`..brk` is valid heap.
    pub brk: u64,
    /// End of the global region (set from the program's layout).
    pub globals_end: u64,
}

impl Memory {
    /// The page table owning `addr` and the page index within it.
    /// `None` for addresses outside every storage region (NULL page,
    /// function addresses, unmapped gaps). Storage regions are *static*
    /// bounds — validity (`brk`, `globals_end`) is checked separately.
    #[inline]
    fn table(&self, addr: u64) -> Option<(&PageTable, u64)> {
        if (HEAP_BASE..HEAP_MAX).contains(&addr) {
            Some((&self.heap, (addr - HEAP_BASE) / PAGE_SIZE))
        } else if (STACK_BASE..STACK_TOP).contains(&addr) {
            Some((&self.stack, (addr - STACK_BASE) / PAGE_SIZE))
        } else if (GLOBAL_BASE..HEAP_BASE).contains(&addr) {
            Some((&self.globals, (addr - GLOBAL_BASE) / PAGE_SIZE))
        } else {
            None
        }
    }

    /// Mutable variant of [`Memory::table`].
    #[inline]
    fn table_mut(&mut self, addr: u64) -> Option<(&mut PageTable, u64)> {
        if (HEAP_BASE..HEAP_MAX).contains(&addr) {
            Some((&mut self.heap, (addr - HEAP_BASE) / PAGE_SIZE))
        } else if (STACK_BASE..STACK_TOP).contains(&addr) {
            Some((&mut self.stack, (addr - STACK_BASE) / PAGE_SIZE))
        } else if (GLOBAL_BASE..HEAP_BASE).contains(&addr) {
            Some((&mut self.globals, (addr - GLOBAL_BASE) / PAGE_SIZE))
        } else {
            None
        }
    }

    /// One-shot region classification for the access fast path:
    /// `(table, region base, valid start, valid end)`. Folds the
    /// [`Memory::table`] dispatch and both [`Memory::is_valid`] probes
    /// of an access into a single range-check chain.
    #[inline]
    fn region(&self, addr: u64) -> Option<(&PageTable, u64, u64, u64)> {
        if (HEAP_BASE..HEAP_MAX).contains(&addr) {
            Some((&self.heap, HEAP_BASE, HEAP_BASE, self.brk))
        } else if (STACK_BASE..STACK_TOP).contains(&addr) {
            Some((&self.stack, STACK_BASE, STACK_TOP - STACK_MAX, STACK_TOP))
        } else if (GLOBAL_BASE..HEAP_BASE).contains(&addr) {
            Some((&self.globals, GLOBAL_BASE, GLOBAL_BASE, self.globals_end))
        } else {
            None
        }
    }

    /// Mutable variant of [`Memory::region`].
    #[inline]
    fn region_mut(&mut self, addr: u64) -> Option<(&mut PageTable, u64, u64, u64)> {
        if (HEAP_BASE..HEAP_MAX).contains(&addr) {
            Some((&mut self.heap, HEAP_BASE, HEAP_BASE, self.brk))
        } else if (STACK_BASE..STACK_TOP).contains(&addr) {
            Some((
                &mut self.stack,
                STACK_BASE,
                STACK_TOP - STACK_MAX,
                STACK_TOP,
            ))
        } else if (GLOBAL_BASE..HEAP_BASE).contains(&addr) {
            Some((
                &mut self.globals,
                GLOBAL_BASE,
                GLOBAL_BASE,
                self.globals_end,
            ))
        } else {
            None
        }
    }
}

impl Memory {
    /// Fresh memory with an empty heap and no globals.
    pub fn new() -> Memory {
        Memory {
            brk: HEAP_BASE,
            globals_end: GLOBAL_BASE,
            ..Memory::default()
        }
    }

    /// Initialize globals from a program (which must already have had
    /// [`crate::Program::assign_layout`] run).
    pub fn init_globals(&mut self, prog: &crate::Program) {
        let mut end = GLOBAL_BASE;
        for g in &prog.globals {
            end = end.max(g.addr + g.size);
            for (i, &byte) in g.init.iter().enumerate() {
                self.write_byte(g.addr + i as u64, byte);
            }
        }
        self.globals_end = (end + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
    }

    /// Is `addr` within some valid region (mappable on demand)?
    pub fn is_valid(&self, addr: u64) -> bool {
        (GLOBAL_BASE..self.globals_end).contains(&addr)
            || (HEAP_BASE..self.brk).contains(&addr)
            || (STACK_TOP - STACK_MAX..STACK_TOP).contains(&addr)
    }

    /// Is `addr` in the architected NULL page? (The simulator gives these a
    /// cheap 2-cycle NaT response rather than a full page walk.)
    pub fn is_null_page(addr: u64) -> bool {
        addr < PAGE_SIZE
    }

    /// Bump-allocate `n` bytes from the heap (16-byte aligned), returning
    /// the base address.
    ///
    /// # Panics
    /// Panics if the heap region is exhausted (workloads are sized to fit).
    pub fn alloc(&mut self, n: u64) -> u64 {
        let base = self.brk;
        let n = (n.max(1) + 15) & !15;
        self.brk += n;
        assert!(self.brk <= HEAP_MAX, "simulated heap exhausted");
        base
    }

    fn write_byte(&mut self, addr: u64, byte: u8) {
        if let Some((t, pi)) = self.table_mut(addr) {
            t.get_mut(pi)[(addr % PAGE_SIZE) as usize] = byte;
        }
    }

    fn read_byte(&self, addr: u64) -> u8 {
        match self.table(addr) {
            Some((t, pi)) => t.get(pi).map_or(0, |p| p[(addr % PAGE_SIZE) as usize]),
            None => 0,
        }
    }

    /// Read `size` bytes at `addr`, zero-extended.
    ///
    /// # Errors
    /// Faults if any accessed byte lies outside a valid region.
    pub fn read(&self, addr: u64, size: u64) -> Result<u64, MemFault> {
        for i in 0..size {
            if !self.is_valid(addr.wrapping_add(i)) {
                return Err(MemFault {
                    addr: addr.wrapping_add(i),
                });
            }
        }
        let mut v = 0u64;
        for i in (0..size).rev() {
            v = (v << 8) | self.read_byte(addr.wrapping_add(i)) as u64;
        }
        Ok(v)
    }

    /// Write the low `size` bytes of `val` at `addr`.
    ///
    /// # Errors
    /// Faults if any accessed byte lies outside a valid region.
    pub fn write(&mut self, addr: u64, size: u64, val: u64) -> Result<(), MemFault> {
        for i in 0..size {
            if !self.is_valid(addr.wrapping_add(i)) {
                return Err(MemFault {
                    addr: addr.wrapping_add(i),
                });
            }
        }
        for i in 0..size {
            self.write_byte(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
        Ok(())
    }

    /// [`Memory::read`] with a single-page fast path: one validity range
    /// check and one page lookup for the common case of an access that
    /// does not straddle a page boundary. Region gaps are all far wider
    /// than the 8-byte maximum access, so first-and-last-byte validity
    /// implies every intermediate byte is valid.
    ///
    /// # Errors
    /// Identical accept/reject behavior to [`Memory::read`].
    #[inline]
    pub fn read_fast(&self, addr: u64, size: u64) -> Result<u64, MemFault> {
        let off = addr % PAGE_SIZE;
        if off + size <= PAGE_SIZE && size > 0 {
            if let Some((t, base, lo, hi)) = self.region(addr) {
                // same-page access + page-aligned region boundaries mean
                // first-and-last-byte validity covers every byte
                if addr >= lo && addr + (size - 1) < hi {
                    let page = t.get((addr - base) / PAGE_SIZE);
                    let o = off as usize;
                    return Ok(match (page, size) {
                        (Some(p), 8) => {
                            u64::from_le_bytes(p[o..o + 8].try_into().expect("8 bytes"))
                        }
                        (Some(p), 4) => {
                            u32::from_le_bytes(p[o..o + 4].try_into().expect("4 bytes")).into()
                        }
                        (Some(p), _) => {
                            let mut v = 0u64;
                            for i in (0..size).rev() {
                                v = (v << 8) | u64::from(p[o + i as usize]);
                            }
                            v
                        }
                        (None, _) => 0,
                    });
                }
            }
        }
        self.read(addr, size)
    }

    /// [`Memory::write`] with the same single-page fast path as
    /// [`Memory::read_fast`].
    ///
    /// # Errors
    /// Identical accept/reject behavior to [`Memory::write`].
    #[inline]
    pub fn write_fast(&mut self, addr: u64, size: u64, val: u64) -> Result<(), MemFault> {
        let off = addr % PAGE_SIZE;
        if off + size <= PAGE_SIZE && size > 0 {
            if let Some((t, base, lo, hi)) = self.region_mut(addr) {
                if addr >= lo && addr + (size - 1) < hi {
                    let page = t.get_mut((addr - base) / PAGE_SIZE);
                    let o = off as usize;
                    match size {
                        8 => page[o..o + 8].copy_from_slice(&val.to_le_bytes()),
                        4 => page[o..o + 4].copy_from_slice(&(val as u32).to_le_bytes()),
                        _ => {
                            for i in 0..size {
                                page[o + i as usize] = (val >> (8 * i)) as u8;
                            }
                        }
                    }
                    return Ok(());
                }
            }
        }
        self.write(addr, size, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_mem() -> Memory {
        Memory::new()
    }

    #[test]
    fn round_trip_all_sizes() {
        let mut m = stack_mem();
        let a = STACK_TOP - 64;
        for size in [1u64, 2, 4, 8] {
            m.write(a, size, 0xDEAD_BEEF_CAFE_F00D).unwrap();
            let v = m.read(a, size).unwrap();
            let mask = if size == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * size)) - 1
            };
            assert_eq!(v, 0xDEAD_BEEF_CAFE_F00D & mask);
        }
    }

    #[test]
    fn cross_page_access() {
        let mut m = stack_mem();
        let a = STACK_TOP - PAGE_SIZE - 4; // straddles a page boundary
        m.write(a, 8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.read(a, 8).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn wild_access_faults() {
        let mut m = stack_mem();
        assert_eq!(m.read(0x1234, 8), Err(MemFault { addr: 0x1234 }));
        assert!(m.write(0x8000_0000, 8, 1).is_err());
        assert!(m.read(0, 1).is_err()); // NULL page
        assert!(Memory::is_null_page(8));
    }

    #[test]
    fn heap_alloc_extends_validity() {
        let mut m = stack_mem();
        assert!(!m.is_valid(HEAP_BASE));
        let p = m.alloc(100);
        assert_eq!(p, HEAP_BASE);
        assert!(m.is_valid(p + 99));
        assert!(!m.is_valid(p + 112)); // rounded to 112? 100 -> 112 aligned
        let q = m.alloc(1);
        assert_eq!(q, HEAP_BASE + 112);
    }

    #[test]
    fn func_addr_round_trip() {
        let f = FuncId(7);
        assert_eq!(func_from_addr(func_addr(f)), Some(f));
        assert_eq!(func_from_addr(0x42), None);
        assert_eq!(func_from_addr(func_addr(f) + 1), None);
    }

    #[test]
    fn fast_paths_match_slow_paths() {
        let mut m = stack_mem();
        m.alloc(64);
        let probes = [
            STACK_TOP - 64,
            STACK_TOP - PAGE_SIZE - 4, // straddles a page boundary
            HEAP_BASE + 60,            // last bytes run past brk
            0x1234,                    // wild
            0,                         // NULL page
        ];
        for &a in &probes {
            for size in [1u64, 2, 4, 8] {
                let mut slow = stack_mem();
                slow.alloc(64);
                let ws = slow.write(a, size, 0x1122_3344_5566_7788);
                let wf = m.write_fast(a, size, 0x1122_3344_5566_7788);
                assert_eq!(ws, wf, "write {a:#x} size {size}");
                assert_eq!(
                    slow.read(a, size),
                    m.read_fast(a, size),
                    "read {a:#x} size {size}"
                );
            }
        }
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut m = stack_mem();
        m.write(STACK_TOP - 8, 8, 111).unwrap();
        let snap = m.clone();
        m.write(STACK_TOP - 8, 8, 222).unwrap();
        assert_eq!(snap.read(STACK_TOP - 8, 8).unwrap(), 111);
        assert_eq!(m.read(STACK_TOP - 8, 8).unwrap(), 222);
    }

    #[test]
    fn uninitialized_valid_memory_reads_zero() {
        let m = stack_mem();
        assert_eq!(m.read(STACK_TOP - 8, 8).unwrap(), 0);
    }
}
