//! Program images and symbol tables.
//!
//! A [`ProgramImage`] is what the FL linker produces and what a machine
//! loads: application text/data/BSS, the MPI library's text/data (mapped in
//! the shared-library region, Figure 1), an entry point, and the symbol
//! table. The symbol table is the machine-readable equivalent of the
//! `{symbolic name, address}` lists the paper extracted with `objdump`/`nm`
//! to build its fault dictionary — and, exactly as in §3.2, symbols are
//! marked by origin so library objects can be excluded from injection.

use crate::layout::{align_up, Region, LIB_BASE, PAGE_SIZE, TEXT_BASE};

/// One entry of the symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbolic name (function or global variable).
    pub name: String,
    /// Virtual address.
    pub addr: u32,
    /// Extent in bytes.
    pub size: u32,
    /// Which section the symbol lives in.
    pub region: Region,
    /// True for MPI-library symbols (removed from the fault dictionary).
    pub library: bool,
}

/// A fully linked program: the application plus the MPI library stub.
#[derive(Debug, Clone, Default)]
pub struct ProgramImage {
    /// Application machine code, loaded at [`TEXT_BASE`].
    pub text: Vec<u8>,
    /// Initialised application globals, loaded just above the text.
    pub data: Vec<u8>,
    /// Zero-initialised application globals.
    pub bss_size: u32,
    /// MPI library code, loaded at [`LIB_BASE`].
    pub lib_text: Vec<u8>,
    /// MPI library globals.
    pub lib_data: Vec<u8>,
    /// Entry point (address of `main`'s startup shim).
    pub entry: u32,
    /// Combined application + library symbol table.
    pub symbols: Vec<Symbol>,
    /// Initial heap mapping size in bytes (the brk can grow beyond this
    /// up to the library region).
    pub heap_reserve: u32,
}

impl ProgramImage {
    /// Base address of the application data section.
    pub fn data_base(&self) -> u32 {
        align_up(TEXT_BASE + self.text.len() as u32, PAGE_SIZE)
    }

    /// Base address of the BSS.
    pub fn bss_base(&self) -> u32 {
        align_up(self.data_base() + self.data.len() as u32, PAGE_SIZE)
    }

    /// Base address of the heap.
    pub fn heap_base(&self) -> u32 {
        align_up(self.bss_base() + self.bss_size, PAGE_SIZE)
    }

    /// Base address of the library data section.
    pub fn lib_data_base(&self) -> u32 {
        align_up(LIB_BASE + self.lib_text.len() as u32, PAGE_SIZE)
    }

    /// Application (non-library) symbols in a region — the raw material of
    /// the paper's fault dictionary.
    pub fn app_symbols(&self, region: Region) -> impl Iterator<Item = &Symbol> {
        self.symbols
            .iter()
            .filter(move |s| !s.library && s.region == region)
    }

    /// Look up the symbol covering an address (for diagnostics).
    pub fn symbol_at(&self, addr: u32) -> Option<&Symbol> {
        self.symbols
            .iter()
            .filter(|s| s.size > 0 && addr >= s.addr && addr - s.addr < s.size)
            .min_by_key(|s| s.size)
    }

    /// Link-time pre-decode: eagerly decode both text sections into a
    /// campaign-shareable [`crate::SharedCode`] store. Build this once
    /// per image and pass it to [`crate::Machine::load_shared`] so every
    /// machine — across ranks, worlds and snapshot forks — shares one
    /// decode of the image's text, and the blocks and superblocks any of
    /// them assembled.
    pub fn pre_decode(&self) -> crate::SharedCode {
        crate::SharedCode::build(self)
    }

    /// Section sizes for the Table 1 profile: (text, data, bss) in bytes,
    /// application sections only.
    pub fn section_sizes(&self) -> (u32, u32, u32) {
        (
            self.text.len() as u32,
            self.data.len() as u32,
            self.bss_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ProgramImage {
        ProgramImage {
            text: vec![0u8; 0x1800],
            data: vec![1u8; 0x400],
            bss_size: 0x2000,
            lib_text: vec![0u8; 0x200],
            lib_data: vec![0u8; 0x100],
            entry: TEXT_BASE,
            symbols: vec![
                Symbol {
                    name: "main".into(),
                    addr: TEXT_BASE,
                    size: 64,
                    region: Region::Text,
                    library: false,
                },
                Symbol {
                    name: "grid".into(),
                    addr: 0x0804_b000,
                    size: 0x2000,
                    region: Region::Bss,
                    library: false,
                },
                Symbol {
                    name: "MPI_Send".into(),
                    addr: LIB_BASE,
                    size: 32,
                    region: Region::LibText,
                    library: true,
                },
            ],
            heap_reserve: 0x1000,
        }
    }

    #[test]
    fn section_bases_are_page_aligned_and_ordered() {
        let img = demo();
        assert_eq!(img.data_base() % PAGE_SIZE, 0);
        assert!(img.data_base() >= TEXT_BASE + img.text.len() as u32);
        assert!(img.bss_base() >= img.data_base() + img.data.len() as u32);
        assert!(img.heap_base() >= img.bss_base() + img.bss_size);
        assert!(img.heap_base() < LIB_BASE);
    }

    #[test]
    fn app_symbols_exclude_library() {
        let img = demo();
        let names: Vec<_> = img
            .app_symbols(Region::Text)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["main"]);
        assert_eq!(img.app_symbols(Region::LibText).count(), 0);
    }

    #[test]
    fn symbol_at_finds_covering_symbol() {
        let img = demo();
        assert_eq!(img.symbol_at(TEXT_BASE + 10).unwrap().name, "main");
        assert_eq!(img.symbol_at(0x0804_b100).unwrap().name, "grid");
        assert!(img.symbol_at(0x0700_0000).is_none());
    }

    #[test]
    fn section_sizes_reported() {
        let img = demo();
        assert_eq!(img.section_sizes(), (0x1800, 0x400, 0x2000));
    }
}
