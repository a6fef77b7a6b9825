//! Program Widx for a custom schema, the Section 4.2 workflow: write
//! the walker in Widx assembly, verify it, ship all three programs
//! through an in-memory control block, and run the offload.
//!
//! ```text
//! cargo run --release --example custom_schema
//! ```

use widx_repro::accel::config::{ConfigRegisters, WidxConfig};
use widx_repro::accel::control::{load_control_block, write_control_block};
use widx_repro::accel::programs;
use widx_repro::db::hash::{HashRecipe, HashStep};
use widx_repro::db::index::{HashIndex, NodeLayout};
use widx_repro::isa::{asm, UnitClass};
use widx_repro::sim::config::SystemConfig;
use widx_repro::sim::mem::{MemorySystem, RegionAllocator};
use widx_repro::workloads::memimg;

fn main() {
    // A custom hash recipe for this schema (every step is one Widx
    // instruction; constants are pre-loaded registers).
    let recipe = HashRecipe::new(
        "custom",
        vec![
            HashStep::XorShr(17),
            HashStep::AddConst(0x2545_F491_4F6C_DD1D),
            HashStep::XorShl(13),
            HashStep::XorShr(7),
        ],
    );

    // Hand-written walker for the direct 8-byte layout, in Widx asm.
    let walker_src = "
; walker: (key, bucket addr) pairs in; (key, payload) matches out
.reg r20 = 0xffffffffffffffff    ; poison / NULL id
item:
    add r1, in, 0                ; key
    add r2, in, 0                ; bucket address
    cmp r9, r1, r20
    ble r9, 0, walk              ; not poison -> walk
    add out, r20, 0              ; forward poison
    add out, r0, 0
    halt
walk:
    ld.w r3, [r2+0]              ; header count
    ble r3, 0, item              ; empty bucket
    ld.d r4, [r2+8]              ; header key
    cmp r9, r4, r1
    ble r9, 0, hnext
    ld.d r5, [r2+16]             ; payload
    add out, r1, 0
    add out, r5, 0
hnext:
    ld.d r6, [r2+24]             ; first overflow node
chain:
    ble r6, 0, item              ; NULL -> next item
    ld.d r4, [r6+0]
    cmp r9, r4, r1
    ble r9, 0, cnext
    ld.d r5, [r6+8]
    add out, r1, 0
    add out, r5, 0
cnext:
    ld.d r6, [r6+16]
    ba chain
";
    let walker = asm::assemble(UnitClass::Walker, walker_src).expect("walker assembles");
    println!(
        "hand-written walker: {} instructions, verified for the W unit class",
        walker.len()
    );

    // Build + materialize a small workload.
    let pairs: Vec<(u64, u64)> = (0..4000u64).map(|k| (k * 7, k)).collect();
    let index = HashIndex::build(recipe.clone(), 4096, pairs.iter().copied());
    let probes: Vec<u64> = (0..1000u64).map(|i| i * 7 * 4).collect();
    let mut mem = MemorySystem::new(SystemConfig::default());
    let mut alloc = RegionAllocator::new();
    let image = memimg::materialize(
        &mut mem,
        &mut alloc,
        &recipe,
        4096,
        &pairs,
        &probes,
        NodeLayout::direct8(),
    );

    // Generate the dispatcher/producer to match, swap in our walker,
    // and round-trip everything through a real control block in
    // simulated memory (Section 4.3's configuration interface).
    let cfg = WidxConfig::with_walkers(4);
    let registers = ConfigRegisters::hash_probe(&image);
    let mut set = programs::program_set(&image, &registers, cfg.walkers, false);
    set.walker = walker;
    let (base, len) = write_control_block(
        &mut mem,
        &mut alloc,
        &[&set.dispatcher, &set.walker, &set.producer],
    );
    let loaded = load_control_block(&mut mem, base, 0).expect("control block loads");
    println!(
        "control block: {len} bytes at {base}, configuration loaded in {} cycles",
        loaded.ready_at
    );
    assert_eq!(
        loaded.programs[1], set.walker,
        "walker survives the control block"
    );

    // Run the offload with the custom program set.
    let mut widx = widx_repro::accel::widx::Widx::new(&set, &cfg, loaded.ready_at);
    let stats = widx.run(&mut mem);
    let oracle: usize = probes.iter().map(|p| index.lookup_all(*p).len()).sum();
    println!(
        "offload complete: {} tuples, {} matches (oracle {oracle}), {:.1} cycles/tuple",
        stats.tuples,
        stats.matches,
        stats.cycles_per_tuple()
    );
    assert_eq!(stats.matches as usize, oracle);
}
