//! Canonical Widx unit programs.
//!
//! The paper's programming API (Section 4.2): "a database system
//! developer must specify three functions: one for key hashing, another
//! for the node walk, and the last one for emitting the results". These
//! generators produce the three programs of every offload — the
//! decoupled hash probe, the coupled hash probe of Figure 3b and the
//! B+-tree probe of [`crate::btree`] — from one dispatcher key-stream
//! loop, one walker prologue, one bucket walk, one hash emitter and one
//! producer. Every address and the NULL id come from the
//! [`ConfigRegisters`] the offload hands Widx; the image supplies only
//! the schema (recipe, node layout and bucket mask, or fanout and inner
//! levels). The hash schemas cover every layout the evaluation uses
//! (4-byte direct keys for the join kernel, 8-byte MonetDB-style
//! indirect keys for the DSS queries).
//!
//! Register conventions, for all three triples:
//!
//! | Unit | Registers |
//! |---|---|
//! | dispatcher | `r1` input cursor, `r2` input end, `r3` key, then its bucket address, `r4` saved key, `r5` bucket mask, `r6` bucket base, `r7` B+-tree root, `r16..` hash constants, `r26` NULL id |
//! | walker | `r1` probe key, `r2` bucket or tree-node address, `r3` count, `r4` node key, `r5` payload (hash) or key cursor (tree), `r6` next pointer (hash) or slot (tree), `r7` child-slot address, `r8` hash scratch (coupled) or leaf payload (tree), `r9` flag, `r10` pair filler (coupled) or levels left (tree), `r12` inner levels, `r14` bucket mask, `r15` bucket base, `r16..` hash constants, `r20` NULL id |
//! | producer | `r1` output cursor, `r3` key, `r4` payload, `r9` flag, `r20` NULL id, `r21` live-walker count |

use widx_db::hash::{HashRecipe, HashStep};
use widx_db::index::{KeyKind, NodeLayout};
use widx_isa::{Label, Program, ProgramBuilder, Reg, Shift, Src, UnitClass, Width};
use widx_workloads::memimg::IndexImage;

use crate::config::ConfigRegisters;

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

/// Bucket index → header offset: `HEADER_STRIDE` is a power of two.
const BUCKET_SHIFT: i16 = NodeLayout::HEADER_STRIDE.trailing_zeros() as i16;
const _: () = assert!(NodeLayout::HEADER_STRIDE.is_power_of_two());

/// The register holding `value`: one of `r16..r25`, allocated (with its
/// initial value) on first use.
fn const_reg(b: &mut ProgramBuilder, consts: &mut Vec<u64>, value: u64) -> Reg {
    if let Some(pos) = consts.iter().position(|v| *v == value) {
        return Reg::new(CONST_BASE + pos as u8);
    }
    consts.push(value);
    let reg = Reg::new(CONST_BASE + (consts.len() - 1) as u8);
    assert!(reg.index() < 26, "hash recipe uses too many constants");
    b.init_reg(reg, value);
    reg
}

/// Hashes `x` in place with `recipe`, then turns the hash into its
/// bucket-header address: `base + ((x & mask) << BUCKET_SHIFT)`.
///
/// With a `scratch` register, each `XOR-SHF` step is expanded into a
/// shift plus an `XOR` through it: Table 1 reserves `XOR-SHF` for the
/// dispatcher (`ADD-SHF` is also available to walkers), so a walker
/// hashing its own keys — the coupled design of Figure 3b — pays an
/// instruction more per such step. This is precisely why the paper puts
/// hashing on a dedicated unit class.
///
/// # Panics
///
/// Panics if the recipe needs more constant registers than available.
fn emit_bucket_address(
    b: &mut ProgramBuilder,
    x: Reg,
    recipe: &HashRecipe,
    scratch: Option<Reg>,
    mask: Reg,
    base: Reg,
) {
    let mut consts = Vec::new();
    for step in recipe.steps() {
        match (*step, scratch) {
            (HashStep::XorConst(c), _) => {
                let r = const_reg(b, &mut consts, c);
                b.xor(x, x, Src::Reg(r));
            }
            (HashStep::AddConst(c), _) => {
                let r = const_reg(b, &mut consts, c);
                b.add(x, x, Src::Reg(r));
            }
            (HashStep::AndConst(c), _) => {
                let r = const_reg(b, &mut consts, c);
                b.and(x, x, Src::Reg(r));
            }
            (HashStep::XorShr(a), None) => {
                b.xor_shf(x, x, x, Shift::right(a));
            }
            (HashStep::XorShl(a), None) => {
                b.xor_shf(x, x, x, Shift::left(a));
            }
            (HashStep::XorShr(a), Some(tmp)) => {
                b.shr(tmp, x, Src::Imm(i16::from(a)));
                b.xor(x, x, Src::Reg(tmp));
            }
            (HashStep::XorShl(a), Some(tmp)) => {
                b.shl(tmp, x, Src::Imm(i16::from(a)));
                b.xor(x, x, Src::Reg(tmp));
            }
            (HashStep::AddShl(a), _) => {
                b.add_shf(x, x, x, Shift::left(a));
            }
            (HashStep::AddShr(a), _) => {
                b.add_shf(x, x, x, Shift::right(a));
            }
        }
    }
    b.and(x, x, Src::Reg(mask));
    b.shl(x, x, Src::Imm(BUCKET_SHIFT));
    b.add(x, x, Src::Reg(base));
}

/// The second word of the `(key, ·)` pair a dispatcher sends per key.
#[derive(Clone, Copy)]
pub(crate) enum Second<'a> {
    /// The key's bucket-header address, hashed on the dispatcher, with a
    /// `TOUCH` of the header first when `touch_ahead` is set.
    Bucket {
        recipe: &'a HashRecipe,
        bucket_mask: u64,
        touch_ahead: bool,
    },
    /// `0`: the coupled walkers hash their own keys.
    Zero,
    /// The B+-tree root, the registers' `hash_table_base`.
    Root,
}

/// Builds a dispatcher: the key-iterator loop of Listing 1 over the
/// registers' input table of `key_width`-byte keys, sending one
/// `(key, second)` pair per key, then one NULL-id pair per walker.
pub(crate) fn dispatcher_program(
    registers: &ConfigRegisters,
    key_width: usize,
    walkers: usize,
    second: Second,
) -> Program {
    let mut b = ProgramBuilder::new(UnitClass::Dispatcher);
    let input = registers.input_base.get();
    b.init_reg(Reg::R1, input);
    b.init_reg(Reg::R2, input + registers.input_len * key_width as u64);
    match second {
        Second::Bucket { bucket_mask, .. } => {
            b.init_reg(Reg::R5, bucket_mask);
            b.init_reg(Reg::R6, registers.hash_table_base.get());
        }
        Second::Zero => {}
        Second::Root => {
            b.init_reg(Reg::R7, registers.hash_table_base.get());
        }
    }
    b.init_reg(Reg::R26, registers.null_id);

    let top = b.new_label();
    let done = b.new_label();
    b.bind(top);
    b.ble(Reg::R2, Src::Reg(Reg::R1), done); // end <= cursor → done
    b.ld(Reg::R3, Reg::R1, 0, width_of(key_width));
    let (key, word) = match second {
        Second::Bucket {
            recipe,
            touch_ahead,
            ..
        } => {
            b.mov(Reg::R4, Reg::R3);
            emit_bucket_address(&mut b, Reg::R3, recipe, None, Reg::R5, Reg::R6);
            if touch_ahead {
                b.touch(Reg::R3, 0);
            }
            (Reg::R4, Reg::R3)
        }
        Second::Zero => (Reg::R3, Reg::ZERO),
        Second::Root => (Reg::R3, Reg::R7),
    };
    b.mov(Reg::OUT, key);
    b.mov(Reg::OUT, word);
    b.add(Reg::R1, Reg::R1, Src::Imm(key_width as i16));
    b.ba(top);
    b.bind(done);
    for _ in 0..walkers {
        b.mov(Reg::OUT, Reg::R26);
        b.mov(Reg::OUT, Reg::ZERO);
    }
    b.halt();
    b.build().expect("dispatcher program verifies")
}

/// Starts a walker: pop a pair into `r1` (the key) and `second`; on the
/// NULL id, forward it to the producer and halt. Returns the builder,
/// positioned at the walk, and the label of the pop, where the walk
/// returns for the next pair.
pub(crate) fn walker_prologue(registers: &ConfigRegisters, second: Reg) -> (ProgramBuilder, Label) {
    let mut b = ProgramBuilder::new(UnitClass::Walker);
    b.init_reg(Reg::R20, registers.null_id);
    let item = b.new_label();
    let walk = b.new_label();
    b.bind(item);
    b.mov(Reg::R1, Reg::IN);
    b.mov(second, Reg::IN);
    b.cmp(Reg::R9, Reg::R1, Src::Reg(Reg::R20));
    b.ble(Reg::R9, Src::Imm(0), walk); // not the NULL id → walk
    b.mov(Reg::OUT, Reg::R20); // forward it
    b.mov(Reg::OUT, Reg::ZERO);
    b.halt();
    b.bind(walk);
    (b, item)
}

/// One node of a bucket at `node`: compare its key (loaded through the
/// slot for indirect layouts) with `r1`, emit `(key, payload)` on a
/// match, and load its next pointer into `r6`.
fn emit_node(b: &mut ProgramBuilder, layout: NodeLayout, node: Reg, offsets: [usize; 3]) {
    let [slot, payload, next] = offsets.map(|o| o as i16);
    let skip = b.new_label();
    b.ld(Reg::R4, node, slot, width_of(layout.slot_width()));
    if layout.key_kind == KeyKind::Indirect {
        b.ld(Reg::R4, Reg::R4, 0, width_of(layout.key_width));
    }
    b.cmp(Reg::R9, Reg::R4, Src::Reg(Reg::R1));
    b.ble(Reg::R9, Src::Imm(0), skip); // no match
    b.ld(Reg::R5, node, payload, Width::D);
    b.mov(Reg::OUT, Reg::R1);
    b.mov(Reg::OUT, Reg::R5);
    b.bind(skip);
    b.ld(Reg::R6, node, next, Width::D);
}

/// Builds a hash walker: pop `(key, bucket address)` and walk the header
/// node and the overflow chain, emitting `(key, payload)` for every
/// match. The `coupled` walker of Figure 3b pops a raw key and hashes it
/// *itself* first — hashing sits on the critical path of every
/// traversal, which is exactly what the decoupled design removes.
fn walker_program(image: &IndexImage, registers: &ConfigRegisters, coupled: bool) -> Program {
    let (mut b, item) = walker_prologue(registers, if coupled { Reg::R10 } else { Reg::R2 });
    if coupled {
        let (mask, base) = (Reg::R14, Reg::R15);
        b.init_reg(mask, image.bucket_count - 1);
        b.init_reg(base, registers.hash_table_base.get());
        b.mov(Reg::R2, Reg::R1);
        emit_bucket_address(&mut b, Reg::R2, &image.recipe, Some(Reg::R8), mask, base);
    }
    b.ld(
        Reg::R3,
        Reg::R2,
        NodeLayout::HEADER_COUNT_OFFSET as i16,
        Width::W,
    );
    b.ble(Reg::R3, Src::Imm(0), item); // empty bucket
    emit_node(
        &mut b,
        image.layout,
        Reg::R2,
        [
            NodeLayout::HEADER_SLOT_OFFSET,
            NodeLayout::HEADER_PAYLOAD_OFFSET,
            NodeLayout::HEADER_NEXT_OFFSET,
        ],
    );
    let chain = b.new_label();
    b.bind(chain);
    b.ble(Reg::R6, Src::Imm(0), item); // NULL → next pair
    emit_node(
        &mut b,
        image.layout,
        Reg::R6,
        [
            NodeLayout::NODE_SLOT_OFFSET,
            NodeLayout::NODE_PAYLOAD_OFFSET,
            NodeLayout::NODE_NEXT_OFFSET,
        ],
    );
    b.ba(chain);
    b.build().expect("walker program verifies")
}

/// Builds the producer: pop `(key, payload)` pairs, store them to
/// consecutive 16-byte result slots from the registers' `results_base`,
/// and halt after one NULL-id pair per walker has arrived.
pub(crate) fn producer_program(registers: &ConfigRegisters, walkers: usize) -> Program {
    let mut b = ProgramBuilder::new(UnitClass::Producer);
    b.init_reg(Reg::R1, registers.results_base.get());
    b.init_reg(Reg::R20, registers.null_id);
    b.init_reg(Reg::R21, walkers as u64);

    let top = b.new_label();
    let store = b.new_label();
    let done = b.new_label();
    b.bind(top);
    b.mov(Reg::R3, Reg::IN);
    b.mov(Reg::R4, Reg::IN);
    b.cmp(Reg::R9, Reg::R3, Src::Reg(Reg::R20));
    b.ble(Reg::R9, Src::Imm(0), store); // not the NULL id
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

/// Generates the decoupled program triple for probing `image` at
/// `registers`: the dispatcher hashes with the image's recipe, the
/// walkers only walk.
///
/// # Panics
///
/// Panics if the recipe needs more constant registers than available.
#[must_use]
pub fn program_set(
    image: &IndexImage,
    registers: &ConfigRegisters,
    walkers: usize,
    touch_ahead: bool,
) -> ProgramSet {
    let second = Second::Bucket {
        recipe: &image.recipe,
        bucket_mask: image.bucket_count - 1,
        touch_ahead,
    };
    ProgramSet {
        dispatcher: dispatcher_program(registers, image.layout.key_width, walkers, second),
        walker: walker_program(image, registers, false),
        producer: producer_program(registers, walkers),
    }
}

/// Generates the coupled (Figure 3b) program triple: a dispatcher that
/// only streams raw keys, plus walkers that hash their own.
///
/// # Panics
///
/// Panics if the recipe needs more constant registers than available.
#[must_use]
pub fn coupled_program_set(
    image: &IndexImage,
    registers: &ConfigRegisters,
    walkers: usize,
) -> ProgramSet {
    let key_width = image.layout.key_width;
    ProgramSet {
        dispatcher: dispatcher_program(registers, key_width, walkers, Second::Zero),
        walker: walker_program(image, registers, true),
        producer: producer_program(registers, walkers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_sim::config::SystemConfig;
    use widx_sim::mem::{MemorySystem, RegionAllocator};
    use widx_workloads::memimg;

    fn image(layout: NodeLayout, recipe: &HashRecipe) -> IndexImage {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let pairs: Vec<(u64, u64)> = (0..10u64).map(|k| (k, k)).collect();
        memimg::materialize(&mut mem, &mut alloc, recipe, 64, &pairs, &[1, 2, 3], layout)
    }

    /// The decoupled set for probing a fresh image at its own registers.
    fn set(layout: NodeLayout, recipe: &HashRecipe, walkers: usize, touch: bool) -> ProgramSet {
        let img = image(layout, recipe);
        program_set(&img, &ConfigRegisters::hash_probe(&img), walkers, touch)
    }

    #[test]
    fn all_programs_verify() {
        for recipe in [
            HashRecipe::trivial(),
            HashRecipe::robust64(),
            HashRecipe::heavy128(),
        ] {
            let set = set(NodeLayout::direct8(), &recipe, 4, false);
            assert!(set.dispatcher.verify().is_ok());
            assert!(set.walker.verify().is_ok());
            assert!(set.producer.verify().is_ok());
        }
    }

    #[test]
    fn indirect_walker_has_extra_loads() {
        let recipe = HashRecipe::robust64();
        let direct = set(NodeLayout::direct8(), &recipe, 1, false).walker;
        let indirect = set(NodeLayout::indirect8(), &recipe, 1, false).walker;
        assert_eq!(indirect.len(), direct.len() + 2);
    }

    #[test]
    fn dispatcher_length_tracks_hash_cost() {
        let layout = NodeLayout::direct8();
        let light = set(layout, &HashRecipe::trivial(), 1, false).dispatcher;
        let heavy = set(layout, &HashRecipe::heavy128(), 1, false).dispatcher;
        assert!(heavy.len() > light.len());
        let diff = HashRecipe::heavy128().op_count() - HashRecipe::trivial().op_count();
        assert_eq!(heavy.len() - light.len(), diff);
    }

    #[test]
    fn touch_ahead_adds_one_instruction() {
        let recipe = HashRecipe::robust64();
        let plain = set(NodeLayout::direct8(), &recipe, 2, false).dispatcher;
        let touch = set(NodeLayout::direct8(), &recipe, 2, true).dispatcher;
        assert_eq!(touch.len(), plain.len() + 1);
    }

    #[test]
    fn poison_epilogue_scales_with_walkers() {
        let recipe = HashRecipe::trivial();
        let one = set(NodeLayout::direct8(), &recipe, 1, false).dispatcher;
        let four = set(NodeLayout::direct8(), &recipe, 4, false).dispatcher;
        assert_eq!(four.len() - one.len(), 6); // 2 pushes per extra walker
    }

    #[test]
    fn programs_encode_for_control_block() {
        let set = set(NodeLayout::indirect8(), &HashRecipe::heavy128(), 4, true);
        assert!(set.dispatcher.encode_words().is_ok());
        assert!(set.walker.encode_words().is_ok());
        assert!(set.producer.encode_words().is_ok());
    }
}
