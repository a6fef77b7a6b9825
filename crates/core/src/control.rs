//! The Widx control block (paper Section 4.3).
//!
//! "The application binary must contain a Widx control block, composed
//! of constants and instructions for each of the Widx dispatcher,
//! walker, and output producer units. To configure Widx, the processor
//! initializes memory-mapped registers inside Widx with the starting
//! address ... and length of the Widx control block. Widx then issues a
//! series of loads to consecutive virtual addresses ... to load the
//! instructions and internal registers for each of its units."
//!
//! Binary format (all fields little-endian u64 unless noted):
//!
//! ```text
//! +0   magic  "WIDXCTL1"
//! +8   unit-section count
//! then per section:
//!   +0   unit class      (0 = dispatcher, 1 = walker, 2 = producer)
//!   +8   instruction count N
//!   +16  initialized-register count R
//!   +24  N encoded instruction words (u32 each)
//!   ...  R (register index u64, value u64) pairs
//! ```

use widx_isa::{Program, RegImage, UnitClass};
use widx_sim::mem::{MemorySystem, RegionAllocator, VAddr};
use widx_sim::Cycle;

/// Control-block magic value (`WIDXCTL1` as little-endian bytes).
pub const MAGIC: u64 = u64::from_le_bytes(*b"WIDXCTL1");

/// Error deserializing a control block from memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlBlockError {
    /// The magic word did not match.
    BadMagic(u64),
    /// A unit class tag was invalid.
    BadClass(u64),
    /// An instruction word failed to decode or verify.
    BadProgram(String),
    /// A register index was out of range.
    BadRegister(u64),
}

impl std::fmt::Display for ControlBlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlBlockError::BadMagic(m) => write!(f, "bad control block magic {m:#x}"),
            ControlBlockError::BadClass(c) => write!(f, "bad unit class tag {c}"),
            ControlBlockError::BadProgram(e) => write!(f, "bad unit program: {e}"),
            ControlBlockError::BadRegister(r) => write!(f, "bad register index {r}"),
        }
    }
}

impl std::error::Error for ControlBlockError {}

fn class_tag(class: UnitClass) -> u64 {
    match class {
        UnitClass::Dispatcher => 0,
        UnitClass::Walker => 1,
        UnitClass::Producer => 2,
    }
}

fn class_from_tag(tag: u64) -> Option<UnitClass> {
    match tag {
        0 => Some(UnitClass::Dispatcher),
        1 => Some(UnitClass::Walker),
        2 => Some(UnitClass::Producer),
        _ => None,
    }
}

/// Serializes `programs` into a fresh region of simulated memory;
/// returns the control block's base address and byte length.
///
/// # Panics
///
/// Panics if a program fails to encode (it was already verified, so
/// only pathological branch distances can trigger this).
pub fn write_control_block(
    mem: &mut MemorySystem,
    alloc: &mut RegionAllocator,
    programs: &[&Program],
) -> (VAddr, u64) {
    let mut bytes: Vec<u8> = Vec::new();
    let put64 = |bytes: &mut Vec<u8>, v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    put64(&mut bytes, MAGIC);
    put64(&mut bytes, programs.len() as u64);
    for p in programs {
        put64(&mut bytes, class_tag(p.class()));
        let words = p.encode_words().expect("verified programs encode");
        put64(&mut bytes, words.len() as u64);
        put64(&mut bytes, p.init().len() as u64);
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for (reg, value) in p.init().iter() {
            put64(&mut bytes, reg.index() as u64);
            put64(&mut bytes, value);
        }
    }
    let region = alloc.alloc_blocks("widx.control", bytes.len() as u64);
    mem.write_bytes(region.base(), &bytes);
    (region.base(), bytes.len() as u64)
}

/// Result of loading a control block: the decoded programs plus the
/// configuration-load latency Widx pays before starting (the paper:
/// "the latency cost of configuring Widx is amortized over the millions
/// of hash table probes").
#[derive(Clone, Debug)]
pub struct LoadedControlBlock {
    /// Decoded, verified unit programs in section order.
    pub programs: Vec<Program>,
    /// Cycle at which configuration completed.
    pub ready_at: Cycle,
}

/// Loads a control block through the memory system with timed accesses.
///
/// # Errors
///
/// Returns [`ControlBlockError`] on a malformed block.
pub fn load_control_block(
    mem: &mut MemorySystem,
    base: VAddr,
    start: Cycle,
) -> Result<LoadedControlBlock, ControlBlockError> {
    let mut cursor = base;
    let mut now = start;
    // Sequential timed u64 loads, as the paper describes.
    let read64 = |mem: &mut MemorySystem, cursor: &mut VAddr, now: &mut Cycle| -> u64 {
        let (v, r) = mem.load(*cursor, 8, *now);
        *now = r.ready;
        *cursor = cursor.offset(8);
        v
    };
    let magic = read64(mem, &mut cursor, &mut now);
    if magic != MAGIC {
        return Err(ControlBlockError::BadMagic(magic));
    }
    let sections = read64(mem, &mut cursor, &mut now);
    let mut programs = Vec::new();
    for _ in 0..sections {
        let class = class_from_tag(read64(mem, &mut cursor, &mut now))
            .ok_or(ControlBlockError::BadClass(u64::MAX))?;
        let n_inst = read64(mem, &mut cursor, &mut now) as usize;
        let n_regs = read64(mem, &mut cursor, &mut now) as usize;
        let mut words = Vec::with_capacity(n_inst);
        for _ in 0..n_inst {
            let (v, r) = mem.load(cursor, 4, now);
            now = r.ready;
            cursor = cursor.offset(4);
            words.push(v as u32);
        }
        let mut init = RegImage::new();
        for _ in 0..n_regs {
            let idx = read64(mem, &mut cursor, &mut now);
            let value = read64(mem, &mut cursor, &mut now);
            let reg = u8::try_from(idx)
                .ok()
                .and_then(widx_isa::Reg::try_new)
                .ok_or(ControlBlockError::BadRegister(idx))?;
            init.set(reg, value);
        }
        let program = Program::decode_words(class, &words, init)
            .map_err(|e| ControlBlockError::BadProgram(e.to_string()))?;
        programs.push(program);
    }
    Ok(LoadedControlBlock {
        programs,
        ready_at: now,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigRegisters;
    use crate::programs;
    use widx_db::hash::HashRecipe;
    use widx_db::index::NodeLayout;
    use widx_sim::config::SystemConfig;
    use widx_workloads::memimg;

    fn setup() -> (MemorySystem, RegionAllocator, crate::programs::ProgramSet) {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let pairs: Vec<(u64, u64)> = (0..10u64).map(|k| (k, k)).collect();
        let image = memimg::materialize(
            &mut mem,
            &mut alloc,
            &HashRecipe::robust64(),
            16,
            &pairs,
            &[1, 2],
            NodeLayout::direct8(),
        );
        let registers = ConfigRegisters::hash_probe(&image);
        let set = programs::program_set(&image, &registers, 4, false);
        (mem, alloc, set)
    }

    #[test]
    fn round_trip_through_memory() {
        let (mut mem, mut alloc, set) = setup();
        let (base, len) = write_control_block(
            &mut mem,
            &mut alloc,
            &[&set.dispatcher, &set.walker, &set.producer],
        );
        assert!(len > 0);
        let loaded = load_control_block(&mut mem, base, 0).expect("well-formed block");
        assert_eq!(loaded.programs.len(), 3);
        assert_eq!(loaded.programs[0], set.dispatcher);
        assert_eq!(loaded.programs[1], set.walker);
        assert_eq!(loaded.programs[2], set.producer);
        // Configuration costs real (but modest) time.
        assert!(loaded.ready_at > 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut mem, mut alloc, set) = setup();
        let (base, _) = write_control_block(&mut mem, &mut alloc, &[&set.walker]);
        mem.write_u64(base, 0xdead);
        assert!(matches!(
            load_control_block(&mut mem, base, 0),
            Err(ControlBlockError::BadMagic(0xdead))
        ));
    }

    #[test]
    fn corrupted_register_index_rejected() {
        let (mut mem, mut alloc, set) = setup();
        let (base, len) = write_control_block(&mut mem, &mut alloc, &[&set.producer]);
        // The producer block ends with (reg, value) pairs; smash the last
        // pair's register index.
        let idx_addr = base.offset(len as i64 - 16);
        mem.write_u64(idx_addr, 99);
        assert!(matches!(
            load_control_block(&mut mem, base, 0),
            Err(ControlBlockError::BadRegister(99))
        ));
    }
}
