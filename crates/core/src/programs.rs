//! Canonical Widx unit programs.
//!
//! The paper's programming API (Section 4.2): "a database system
//! developer must specify three functions: one for key hashing, another
//! for the node walk, and the last one for emitting the results". These
//! generators produce exactly those three programs for a given hash
//! recipe, node layout, and materialized index image — covering every
//! schema the evaluation uses (4-byte direct keys for the join kernel,
//! 8-byte MonetDB-style indirect keys for the DSS queries).
//!
//! Register conventions:
//!
//! | Unit | Registers |
//! |---|---|
//! | dispatcher | `r1` input cursor, `r2` input end, `r3` hash value, `r4` saved key, `r5` bucket mask, `r6` bucket base, `r16..` hash constants, `r26` poison |
//! | walker | `r1` probe key, `r2` node address, `r3` count, `r4` node key, `r5` payload, `r6` next pointer, `r9` flag, `r20` poison |
//! | producer | `r1` output cursor, `r3` key, `r4` payload, `r9` flag, `r20` poison, `r21` live-walker count |

use widx_db::hash::{HashRecipe, HashStep};
use widx_db::index::{KeyKind, NodeLayout};
use widx_isa::{Program, ProgramBuilder, Reg, Shift, Src, UnitClass, Width};
use widx_workloads::memimg::IndexImage;

use crate::POISON_KEY;

fn width_of(bytes: usize) -> Width {
    match bytes {
        1 => Width::B,
        2 => Width::H,
        4 => Width::W,
        8 => Width::D,
        other => panic!("unsupported access width {other}"),
    }
}

/// First register used for hash constants.
const CONST_BASE: u8 = 16;

/// Compiles one hash step onto `x` (in place), allocating constant
/// registers through `alloc`.
fn emit_hash_step(b: &mut ProgramBuilder, x: Reg, step: HashStep, alloc: &mut Vec<u64>) {
    let mut const_reg = |b: &mut ProgramBuilder, value: u64| -> Reg {
        if let Some(pos) = alloc.iter().position(|v| *v == value) {
            return Reg::new(CONST_BASE + pos as u8);
        }
        alloc.push(value);
        let reg = Reg::new(CONST_BASE + (alloc.len() - 1) as u8);
        assert!(reg.index() < 26, "hash recipe uses too many constants");
        b.init_reg(reg, value);
        reg
    };
    match step {
        HashStep::XorConst(c) => {
            let r = const_reg(b, c);
            b.xor(x, x, Src::Reg(r));
        }
        HashStep::AddConst(c) => {
            let r = const_reg(b, c);
            b.add(x, x, Src::Reg(r));
        }
        HashStep::AndConst(c) => {
            let r = const_reg(b, c);
            b.and(x, x, Src::Reg(r));
        }
        HashStep::XorShr(a) => {
            b.xor_shf(x, x, x, Shift::right(a));
        }
        HashStep::XorShl(a) => {
            b.xor_shf(x, x, x, Shift::left(a));
        }
        HashStep::AddShl(a) => {
            b.add_shf(x, x, x, Shift::left(a));
        }
        HashStep::AddShr(a) => {
            b.add_shf(x, x, x, Shift::right(a));
        }
    }
}

/// Builds the dispatcher program: the key-iterator loop of Listing 1
/// with the hash function inlined, streaming `(key, bucket address)`
/// pairs to the walkers and poison pairs at end-of-input.
///
/// # Panics
///
/// Panics if the recipe needs more constant registers than available.
#[must_use]
pub fn dispatcher_program(
    recipe: &HashRecipe,
    image: &IndexImage,
    walkers: usize,
    touch_ahead: bool,
) -> Program {
    let kw = image.layout.key_width;
    let mut b = ProgramBuilder::new(UnitClass::Dispatcher);
    b.init_reg(Reg::R1, image.input_base.get());
    b.init_reg(
        Reg::R2,
        image.input_base.get() + image.input_count * kw as u64,
    );
    b.init_reg(Reg::R5, image.bucket_count - 1);
    b.init_reg(Reg::R6, image.bucket_base.get());
    b.init_reg(Reg::R26, POISON_KEY);
    let mut consts = Vec::new();

    let top = b.new_label();
    let done = b.new_label();
    b.bind(top);
    b.ble(Reg::R2, Src::Reg(Reg::R1), done); // end <= cursor → done
    b.ld(Reg::R3, Reg::R1, 0, width_of(kw));
    b.mov(Reg::R4, Reg::R3);
    for step in recipe.steps() {
        emit_hash_step(&mut b, Reg::R3, *step, &mut consts);
    }
    b.and(Reg::R3, Reg::R3, Src::Reg(Reg::R5));
    // bucket address = base + idx * HEADER_STRIDE (32 = << 5).
    b.shl(Reg::R3, Reg::R3, Src::Imm(5));
    b.add(Reg::R3, Reg::R3, Src::Reg(Reg::R6));
    if touch_ahead {
        b.touch(Reg::R3, 0);
    }
    b.add(Reg::OUT, Reg::R4, Src::Imm(0)); // key
    b.add(Reg::OUT, Reg::R3, Src::Imm(0)); // bucket address
    b.add(Reg::R1, Reg::R1, Src::Imm(kw as i16));
    b.ba(top);
    b.bind(done);
    for _ in 0..walkers {
        b.add(Reg::OUT, Reg::R26, Src::Imm(0));
        b.add(Reg::OUT, Reg::ZERO, Src::Imm(0));
    }
    b.halt();
    b.build().expect("dispatcher program verifies")
}

/// Builds the walker program: pop `(key, bucket address)`, halt on
/// poison (forwarding it), otherwise walk the header node and the
/// overflow chain emitting `(key, payload)` for every match.
#[must_use]
pub fn walker_program(layout: NodeLayout) -> Program {
    let kw = width_of(layout.key_width);
    let sw = width_of(layout.slot_width());
    let mut b = ProgramBuilder::new(UnitClass::Walker);
    b.init_reg(Reg::R20, POISON_KEY);

    let item = b.new_label();
    let walk = b.new_label();
    let hnext = b.new_label();
    let chain = b.new_label();
    let cnext = b.new_label();

    b.bind(item);
    b.add(Reg::R1, Reg::IN, Src::Imm(0)); // key
    b.add(Reg::R2, Reg::IN, Src::Imm(0)); // bucket address
    b.cmp(Reg::R9, Reg::R1, Src::Reg(Reg::R20));
    b.ble(Reg::R9, Src::Imm(0), walk); // not poison → walk
    b.add(Reg::OUT, Reg::R20, Src::Imm(0)); // forward poison
    b.add(Reg::OUT, Reg::ZERO, Src::Imm(0));
    b.halt();

    b.bind(walk);
    b.ld(
        Reg::R3,
        Reg::R2,
        NodeLayout::HEADER_COUNT_OFFSET as i16,
        Width::W,
    );
    b.ble(Reg::R3, Src::Imm(0), item); // empty bucket
                                       // Header node key (extra dereference when indirect).
    b.ld(Reg::R4, Reg::R2, NodeLayout::HEADER_SLOT_OFFSET as i16, sw);
    if layout.key_kind == KeyKind::Indirect {
        b.ld(Reg::R4, Reg::R4, 0, kw);
    }
    b.cmp(Reg::R9, Reg::R4, Src::Reg(Reg::R1));
    b.ble(Reg::R9, Src::Imm(0), hnext); // no match
    b.ld(
        Reg::R5,
        Reg::R2,
        NodeLayout::HEADER_PAYLOAD_OFFSET as i16,
        Width::D,
    );
    b.add(Reg::OUT, Reg::R1, Src::Imm(0));
    b.add(Reg::OUT, Reg::R5, Src::Imm(0));
    b.bind(hnext);
    b.ld(
        Reg::R6,
        Reg::R2,
        NodeLayout::HEADER_NEXT_OFFSET as i16,
        Width::D,
    );

    b.bind(chain);
    b.ble(Reg::R6, Src::Imm(0), item); // NULL → next item
    b.ld(Reg::R4, Reg::R6, NodeLayout::NODE_SLOT_OFFSET as i16, sw);
    if layout.key_kind == KeyKind::Indirect {
        b.ld(Reg::R4, Reg::R4, 0, kw);
    }
    b.cmp(Reg::R9, Reg::R4, Src::Reg(Reg::R1));
    b.ble(Reg::R9, Src::Imm(0), cnext);
    b.ld(
        Reg::R5,
        Reg::R6,
        NodeLayout::NODE_PAYLOAD_OFFSET as i16,
        Width::D,
    );
    b.add(Reg::OUT, Reg::R1, Src::Imm(0));
    b.add(Reg::OUT, Reg::R5, Src::Imm(0));
    b.bind(cnext);
    b.ld(
        Reg::R6,
        Reg::R6,
        NodeLayout::NODE_NEXT_OFFSET as i16,
        Width::D,
    );
    b.ba(chain);

    b.build().expect("walker program verifies")
}

/// Builds the producer program: pop `(key, payload)` pairs, store them
/// to consecutive 16-byte result slots, and halt after one poison per
/// walker has arrived.
#[must_use]
pub fn producer_program(image: &IndexImage, walkers: usize) -> Program {
    let mut b = ProgramBuilder::new(UnitClass::Producer);
    b.init_reg(Reg::R1, image.output_base.get());
    b.init_reg(Reg::R20, POISON_KEY);
    b.init_reg(Reg::R21, walkers as u64);

    let top = b.new_label();
    let store = b.new_label();
    let done = b.new_label();
    b.bind(top);
    b.add(Reg::R3, Reg::IN, Src::Imm(0));
    b.add(Reg::R4, Reg::IN, Src::Imm(0));
    b.cmp(Reg::R9, Reg::R3, Src::Reg(Reg::R20));
    b.ble(Reg::R9, Src::Imm(0), store); // not poison
    b.add(Reg::R21, Reg::R21, Src::Imm(-1));
    b.ble(Reg::R21, Src::Imm(0), done);
    b.ba(top);
    b.bind(store);
    b.st_d(Reg::R3, Reg::R1, 0);
    b.st_d(Reg::R4, Reg::R1, 8);
    b.add(Reg::R1, Reg::R1, Src::Imm(16));
    b.ba(top);
    b.bind(done);
    b.halt();
    b.build().expect("producer program verifies")
}

/// Compiles one hash step *without* the dispatcher-only fused forms.
///
/// Table 1 reserves `XOR-SHF`/`AND-SHF` for the dispatcher (`ADD-SHF`
/// is also available to walkers), so a walker hashing its own keys —
/// the coupled design of Figure 3b — must expand those steps into a
/// shift + logic pair through a scratch register. This is precisely why
/// the paper puts hashing on a dedicated unit class.
fn emit_hash_step_unfused(
    b: &mut ProgramBuilder,
    x: Reg,
    tmp: Reg,
    step: HashStep,
    alloc: &mut Vec<u64>,
) {
    let mut const_reg = |b: &mut ProgramBuilder, value: u64| -> Reg {
        if let Some(pos) = alloc.iter().position(|v| *v == value) {
            return Reg::new(CONST_BASE + pos as u8);
        }
        alloc.push(value);
        let reg = Reg::new(CONST_BASE + (alloc.len() - 1) as u8);
        assert!(reg.index() < 26, "hash recipe uses too many constants");
        b.init_reg(reg, value);
        reg
    };
    match step {
        HashStep::XorConst(c) => {
            let r = const_reg(b, c);
            b.xor(x, x, Src::Reg(r));
        }
        HashStep::AddConst(c) => {
            let r = const_reg(b, c);
            b.add(x, x, Src::Reg(r));
        }
        HashStep::AndConst(c) => {
            let r = const_reg(b, c);
            b.and(x, x, Src::Reg(r));
        }
        HashStep::XorShr(a) => {
            b.shr(tmp, x, Src::Imm(i16::from(a)));
            b.xor(x, x, Src::Reg(tmp));
        }
        HashStep::XorShl(a) => {
            b.shl(tmp, x, Src::Imm(i16::from(a)));
            b.xor(x, x, Src::Reg(tmp));
        }
        // ADD-SHF is walker-legal per Table 1.
        HashStep::AddShl(a) => {
            b.add_shf(x, x, x, Shift::left(a));
        }
        HashStep::AddShr(a) => {
            b.add_shf(x, x, x, Shift::right(a));
        }
    }
}

/// Builds the *streaming* dispatcher of the coupled design (Figure 3b):
/// no hashing, it only feeds raw keys to the walkers.
#[must_use]
pub fn streaming_dispatcher_program(image: &IndexImage, walkers: usize) -> Program {
    let kw = image.layout.key_width;
    let mut b = ProgramBuilder::new(UnitClass::Dispatcher);
    b.init_reg(Reg::R1, image.input_base.get());
    b.init_reg(
        Reg::R2,
        image.input_base.get() + image.input_count * kw as u64,
    );
    b.init_reg(Reg::R26, POISON_KEY);
    let top = b.new_label();
    let done = b.new_label();
    b.bind(top);
    b.ble(Reg::R2, Src::Reg(Reg::R1), done);
    b.ld(Reg::R3, Reg::R1, 0, width_of(kw));
    b.add(Reg::OUT, Reg::R3, Src::Imm(0));
    b.add(Reg::OUT, Reg::ZERO, Src::Imm(0)); // pair filler
    b.add(Reg::R1, Reg::R1, Src::Imm(kw as i16));
    b.ba(top);
    b.bind(done);
    for _ in 0..walkers {
        b.add(Reg::OUT, Reg::R26, Src::Imm(0));
        b.add(Reg::OUT, Reg::ZERO, Src::Imm(0));
    }
    b.halt();
    b.build().expect("streaming dispatcher verifies")
}

/// Builds the coupled walker of Figure 3b: pops a raw key, hashes it
/// *itself* (with the unfused expansions Table 1 forces on walkers),
/// computes the bucket address, then walks — hashing sits on the
/// critical path of every traversal, which is exactly what the
/// decoupled design removes.
#[must_use]
pub fn hashing_walker_program(recipe: &HashRecipe, image: &IndexImage) -> Program {
    let layout = image.layout;
    let kw = width_of(layout.key_width);
    let sw = width_of(layout.slot_width());
    let mut b = ProgramBuilder::new(UnitClass::Walker);
    b.init_reg(Reg::R20, POISON_KEY);
    b.init_reg(Reg::R14, image.bucket_count - 1);
    b.init_reg(Reg::R15, image.bucket_base.get());
    let mut consts = Vec::new();

    let item = b.new_label();
    let walk = b.new_label();
    let hnext = b.new_label();
    let chain = b.new_label();
    let cnext = b.new_label();

    b.bind(item);
    b.add(Reg::R1, Reg::IN, Src::Imm(0)); // key
    b.add(Reg::R10, Reg::IN, Src::Imm(0)); // pair filler
    b.cmp(Reg::R9, Reg::R1, Src::Reg(Reg::R20));
    b.ble(Reg::R9, Src::Imm(0), walk);
    b.add(Reg::OUT, Reg::R20, Src::Imm(0));
    b.add(Reg::OUT, Reg::ZERO, Src::Imm(0));
    b.halt();

    b.bind(walk);
    // Hash on the walker itself (coupled design).
    b.mov(Reg::R2, Reg::R1);
    for step in recipe.steps() {
        emit_hash_step_unfused(&mut b, Reg::R2, Reg::R8, *step, &mut consts);
    }
    b.and(Reg::R2, Reg::R2, Src::Reg(Reg::R14));
    b.shl(Reg::R2, Reg::R2, Src::Imm(5));
    b.add(Reg::R2, Reg::R2, Src::Reg(Reg::R15));

    b.ld(
        Reg::R3,
        Reg::R2,
        NodeLayout::HEADER_COUNT_OFFSET as i16,
        Width::W,
    );
    b.ble(Reg::R3, Src::Imm(0), item);
    b.ld(Reg::R4, Reg::R2, NodeLayout::HEADER_SLOT_OFFSET as i16, sw);
    if layout.key_kind == KeyKind::Indirect {
        b.ld(Reg::R4, Reg::R4, 0, kw);
    }
    b.cmp(Reg::R9, Reg::R4, Src::Reg(Reg::R1));
    b.ble(Reg::R9, Src::Imm(0), hnext);
    b.ld(
        Reg::R5,
        Reg::R2,
        NodeLayout::HEADER_PAYLOAD_OFFSET as i16,
        Width::D,
    );
    b.add(Reg::OUT, Reg::R1, Src::Imm(0));
    b.add(Reg::OUT, Reg::R5, Src::Imm(0));
    b.bind(hnext);
    b.ld(
        Reg::R6,
        Reg::R2,
        NodeLayout::HEADER_NEXT_OFFSET as i16,
        Width::D,
    );

    b.bind(chain);
    b.ble(Reg::R6, Src::Imm(0), item);
    b.ld(Reg::R4, Reg::R6, NodeLayout::NODE_SLOT_OFFSET as i16, sw);
    if layout.key_kind == KeyKind::Indirect {
        b.ld(Reg::R4, Reg::R4, 0, kw);
    }
    b.cmp(Reg::R9, Reg::R4, Src::Reg(Reg::R1));
    b.ble(Reg::R9, Src::Imm(0), cnext);
    b.ld(
        Reg::R5,
        Reg::R6,
        NodeLayout::NODE_PAYLOAD_OFFSET as i16,
        Width::D,
    );
    b.add(Reg::OUT, Reg::R1, Src::Imm(0));
    b.add(Reg::OUT, Reg::R5, Src::Imm(0));
    b.bind(cnext);
    b.ld(
        Reg::R6,
        Reg::R6,
        NodeLayout::NODE_NEXT_OFFSET as i16,
        Width::D,
    );
    b.ba(chain);

    b.build().expect("hashing walker verifies")
}

/// Generates the coupled (non-decoupled, Figure 3b) program triple:
/// a streaming dispatcher plus hashing walkers.
#[must_use]
pub fn coupled_program_set(recipe: &HashRecipe, image: &IndexImage, walkers: usize) -> ProgramSet {
    ProgramSet {
        dispatcher: streaming_dispatcher_program(image, walkers),
        walker: hashing_walker_program(recipe, image),
        producer: producer_program(image, walkers),
    }
}

/// The full program triple for an offload.
#[derive(Clone, Debug)]
pub struct ProgramSet {
    /// Dispatcher program.
    pub dispatcher: Program,
    /// Walker program (instantiated once per walker).
    pub walker: Program,
    /// Producer program.
    pub producer: Program,
}

/// Generates all three programs for an offload over `image`.
#[must_use]
pub fn program_set(
    recipe: &HashRecipe,
    image: &IndexImage,
    walkers: usize,
    touch_ahead: bool,
) -> ProgramSet {
    ProgramSet {
        dispatcher: dispatcher_program(recipe, image, walkers, touch_ahead),
        walker: walker_program(image.layout),
        producer: producer_program(image, walkers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_sim::config::SystemConfig;
    use widx_sim::mem::{MemorySystem, RegionAllocator};
    use widx_workloads::memimg;

    fn image(layout: NodeLayout) -> IndexImage {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let pairs: Vec<(u64, u64)> = (0..10u64).map(|k| (k, k)).collect();
        memimg::materialize(
            &mut mem,
            &mut alloc,
            &HashRecipe::robust64(),
            64,
            &pairs,
            &[1, 2, 3],
            layout,
        )
    }

    #[test]
    fn all_programs_verify() {
        let img = image(NodeLayout::direct8());
        for recipe in [
            HashRecipe::trivial(),
            HashRecipe::robust64(),
            HashRecipe::heavy128(),
        ] {
            let set = program_set(&recipe, &img, 4, false);
            assert!(set.dispatcher.verify().is_ok());
            assert!(set.walker.verify().is_ok());
            assert!(set.producer.verify().is_ok());
        }
    }

    #[test]
    fn indirect_walker_has_extra_loads() {
        let direct = walker_program(NodeLayout::direct8());
        let indirect = walker_program(NodeLayout::indirect8());
        assert_eq!(indirect.len(), direct.len() + 2);
    }

    #[test]
    fn dispatcher_length_tracks_hash_cost() {
        let img = image(NodeLayout::direct8());
        let light = dispatcher_program(&HashRecipe::trivial(), &img, 1, false);
        let heavy = dispatcher_program(&HashRecipe::heavy128(), &img, 1, false);
        assert!(heavy.len() > light.len());
        let diff = HashRecipe::heavy128().op_count() - HashRecipe::trivial().op_count();
        assert_eq!(heavy.len() - light.len(), diff);
    }

    #[test]
    fn touch_ahead_adds_one_instruction() {
        let img = image(NodeLayout::direct8());
        let plain = dispatcher_program(&HashRecipe::robust64(), &img, 2, false);
        let touch = dispatcher_program(&HashRecipe::robust64(), &img, 2, true);
        assert_eq!(touch.len(), plain.len() + 1);
    }

    #[test]
    fn poison_epilogue_scales_with_walkers() {
        let img = image(NodeLayout::direct8());
        let one = dispatcher_program(&HashRecipe::trivial(), &img, 1, false);
        let four = dispatcher_program(&HashRecipe::trivial(), &img, 4, false);
        assert_eq!(four.len() - one.len(), 6); // 2 pushes per extra walker
    }

    #[test]
    fn programs_encode_for_control_block() {
        let img = image(NodeLayout::indirect8());
        let set = program_set(&HashRecipe::heavy128(), &img, 4, true);
        assert!(set.dispatcher.encode_words().is_ok());
        assert!(set.walker.encode_words().is_ok());
        assert!(set.producer.encode_words().is_ok());
    }
}
