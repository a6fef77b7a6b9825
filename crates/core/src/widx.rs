//! The Widx accelerator: units, queues, routing, and the time-ordered
//! scheduler.
//!
//! Topology (paper Figure 6): the dispatcher's output port fans out to
//! one 2-entry pair-queue per walker (round-robin to the first queue
//! with space — "the dispatcher can run ahead with key hashing" while
//! walkers stall); every walker's output port feeds the producer's
//! input queue. Poison pairs (see [`crate::POISON_KEY`]) are routed
//! strictly round-robin so each walker receives exactly one.
//!
//! The scheduler always advances the unit with the smallest local clock,
//! so inter-unit resource contention (shared L1 ports, MSHRs, memory
//! bandwidth, TLB walkers) is resolved in global time order. Units
//! blocked on a queue park until the counterpart acts; parked time is
//! charged to their Idle category — for walkers this is exactly the
//! paper's "walker stall time waiting for a new key from the
//! dispatcher" (Figure 8a).

use widx_sim::mem::MemorySystem;
use widx_sim::stats::CycleBreakdown;
use widx_sim::Cycle;

use crate::config::WidxConfig;
use crate::programs::ProgramSet;
use crate::queue::{Pair, PairQueue};
use crate::unit::{StepOutcome, Unit, UnitIo};
use crate::POISON_KEY;

/// Why a unit is parked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Park {
    /// Runnable.
    None,
    /// Waiting for its input queue to become non-empty.
    OnPop,
    /// Waiting for space in its output destination(s).
    OnPush,
}

/// Queue events produced while stepping one unit, used to un-park
/// counterparties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum QueueEvent {
    /// A pair was pushed into walker `i`'s queue at the given cycle.
    PushedToWalker(usize, Cycle),
    /// A slot freed in walker `i`'s queue.
    FreedWalkerSlot(usize, Cycle),
    /// A pair was pushed into the producer queue.
    PushedToProducer(Cycle),
    /// A slot freed in the producer queue.
    FreedProducerSlot(Cycle),
}

/// Aggregate result of one Widx offload run.
#[derive(Clone, Debug)]
pub struct WidxRunStats {
    /// Wall-clock cycles from offload start to the last unit halting.
    pub total_cycles: Cycle,
    /// Input tuples (probe keys) processed.
    pub tuples: u64,
    /// Result pairs the producer wrote.
    pub matches: u64,
    /// Dispatcher cycle breakdown.
    pub dispatcher: CycleBreakdown,
    /// Per-walker cycle breakdowns.
    pub walkers: Vec<CycleBreakdown>,
    /// Producer cycle breakdown.
    pub producer: CycleBreakdown,
    /// TLB replays across all units.
    pub tlb_replays: u64,
}

impl WidxRunStats {
    /// Mean walker breakdown (the paper's Figures 8a/9a/9b plot walker
    /// cycles per tuple).
    #[must_use]
    pub fn walker_mean(&self) -> CycleBreakdown {
        let n = self.walkers.len().max(1) as u64;
        let sum: CycleBreakdown = self.walkers.iter().copied().sum();
        CycleBreakdown {
            comp: sum.comp / n,
            mem: sum.mem / n,
            tlb: sum.tlb / n,
            idle: sum.idle / n,
        }
    }

    /// Walker cycles per tuple, split by category — the paper's
    /// Figure 8a/9 y-axis. Each walker's elapsed time divides into
    /// Comp/Mem/TLB/Idle; averaging across walkers and dividing by the
    /// *total* tuple count yields a per-tuple breakdown that shrinks
    /// linearly as walkers are added (the mean walker processes
    /// `tuples / N` keys in the same elapsed window).
    #[must_use]
    pub fn walker_cycles_per_tuple(&self) -> widx_sim::stats::BreakdownPer {
        self.walker_mean().per(self.tuples.max(1))
    }

    /// Total cycles per tuple — the indexing-throughput metric the
    /// speedup figures compare against the OoO baseline.
    #[must_use]
    pub fn cycles_per_tuple(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.tuples as f64
        }
    }
}

/// The accelerator instance.
#[derive(Clone, Debug)]
pub struct Widx {
    dispatcher: Unit,
    walkers: Vec<Unit>,
    producer: Unit,
    walker_qs: Vec<PairQueue>,
    prod_q: PairQueue,
    /// First word of a partially assembled outgoing pair, per unit
    /// (index 0 = dispatcher, 1.. = walkers).
    latches: Vec<Option<u64>>,
    rr_next: usize,
    poison_next: usize,
    parked: Vec<Park>,
    start: Cycle,
}

impl Widx {
    /// Builds an accelerator at `start` from a program set and config.
    #[must_use]
    pub fn new(programs: &ProgramSet, config: &WidxConfig, start: Cycle) -> Widx {
        let make = |label: &str, program| {
            let mut unit = Unit::new(label, program, start);
            unit.set_placement(config.placement);
            unit
        };
        let walkers: Vec<Unit> = (0..config.walkers)
            .map(|i| make(&format!("walker{i}"), &programs.walker))
            .collect();
        Widx {
            dispatcher: make("dispatcher", &programs.dispatcher),
            producer: make("producer", &programs.producer),
            walker_qs: (0..config.walkers)
                .map(|_| PairQueue::new(config.queue_depth))
                .collect(),
            prod_q: PairQueue::new(config.producer_queue_depth),
            latches: vec![None; config.walkers + 1],
            rr_next: 0,
            poison_next: 0,
            parked: vec![Park::None; config.walkers + 2],
            walkers,
            start,
        }
    }

    fn unit_count(&self) -> usize {
        self.walkers.len() + 2
    }

    /// Unit ids: 0 = dispatcher, 1..=W = walkers, W+1 = producer.
    fn unit(&self, id: usize) -> &Unit {
        match id {
            0 => &self.dispatcher,
            i if i <= self.walkers.len() => &self.walkers[i - 1],
            _ => &self.producer,
        }
    }

    /// Runs the offload to completion and reports statistics.
    ///
    /// # Panics
    ///
    /// Panics on protocol deadlock (a bug in unit programs) or if the
    /// run exceeds an internal step bound.
    pub fn run(&mut self, mem: &mut MemorySystem) -> WidxRunStats {
        let step_bound: u64 = 20_000_000_000;
        let mut steps = 0u64;
        loop {
            let Some(uid) = self.pick_runnable() else {
                if self.all_halted() {
                    break;
                }
                panic!(
                    "Widx deadlock: parked={:?} pcs/halted={:?}",
                    self.parked,
                    (0..self.unit_count())
                        .map(|i| (self.unit(i).label().to_string(), self.unit(i).halted()))
                        .collect::<Vec<_>>()
                );
            };
            let (outcome, events) = self.step_unit(uid, mem);
            match outcome {
                StepOutcome::Progress | StepOutcome::Halted => {}
                StepOutcome::NeedPop => self.parked[uid] = Park::OnPop,
                StepOutcome::NeedPush => self.parked[uid] = Park::OnPush,
            }
            self.apply_events(&events);
            steps += 1;
            assert!(steps < step_bound, "Widx run exceeded step bound");
        }
        self.collect_stats()
    }

    fn all_halted(&self) -> bool {
        (0..self.unit_count()).all(|i| self.unit(i).halted())
    }

    fn pick_runnable(&self) -> Option<usize> {
        (0..self.unit_count())
            .filter(|i| !self.unit(*i).halted() && self.parked[*i] == Park::None)
            .min_by_key(|i| self.unit(*i).now())
    }

    fn apply_events(&mut self, events: &[QueueEvent]) {
        for event in events {
            match *event {
                QueueEvent::PushedToWalker(i, t) => {
                    let uid = 1 + i;
                    if self.parked[uid] == Park::OnPop {
                        self.parked[uid] = Park::None;
                        self.walkers[i].wake_at(t);
                    }
                }
                QueueEvent::FreedWalkerSlot(_, t) => {
                    if self.parked[0] == Park::OnPush {
                        self.parked[0] = Park::None;
                        self.dispatcher.wake_at(t);
                    }
                }
                QueueEvent::PushedToProducer(t) => {
                    let uid = self.walkers.len() + 1;
                    if self.parked[uid] == Park::OnPop {
                        self.parked[uid] = Park::None;
                        self.producer.wake_at(t);
                    }
                }
                QueueEvent::FreedProducerSlot(t) => {
                    for (i, walker) in self.walkers.iter_mut().enumerate() {
                        if self.parked[1 + i] == Park::OnPush {
                            self.parked[1 + i] = Park::None;
                            walker.wake_at(t);
                        }
                    }
                }
            }
        }
    }

    fn step_unit(&mut self, uid: usize, mem: &mut MemorySystem) -> (StepOutcome, Vec<QueueEvent>) {
        let mut events = Vec::new();
        let walkers_len = self.walkers.len();
        if uid == 0 {
            let mut io = DispatcherIo {
                latch: &mut self.latches[0],
                queues: &mut self.walker_qs,
                rr_next: &mut self.rr_next,
                poison_next: &mut self.poison_next,
                events: &mut events,
            };
            let outcome = self.dispatcher.step(mem, &mut io);
            (outcome, events)
        } else if uid <= walkers_len {
            let i = uid - 1;
            let mut io = WalkerIo {
                index: i,
                in_q: &mut self.walker_qs[i],
                latch: &mut self.latches[1 + i],
                prod_q: &mut self.prod_q,
                events: &mut events,
            };
            let outcome = self.walkers[i].step(mem, &mut io);
            (outcome, events)
        } else {
            let mut io = ProducerIo {
                in_q: &mut self.prod_q,
                events: &mut events,
            };
            let outcome = self.producer.step(mem, &mut io);
            (outcome, events)
        }
    }

    fn collect_stats(&self) -> WidxRunStats {
        let end = (0..self.unit_count())
            .map(|i| self.unit(i).now())
            .max()
            .unwrap_or(self.start);
        let poisons = self.walkers.len() as u64;
        let tuples = self.walker_qs.iter().map(PairQueue::pushes).sum::<u64>() - poisons;
        WidxRunStats {
            total_cycles: end - self.start,
            tuples,
            matches: self.producer.stores() / 2,
            dispatcher: self.dispatcher.breakdown(),
            walkers: self.walkers.iter().map(Unit::breakdown).collect(),
            producer: self.producer.breakdown(),
            tlb_replays: (0..self.unit_count())
                .map(|i| self.unit(i).tlb_replays())
                .sum(),
        }
    }
}

/// Dispatcher IO: no input; output latches words into pairs and routes
/// them to walker queues.
struct DispatcherIo<'a> {
    latch: &'a mut Option<u64>,
    queues: &'a mut [PairQueue],
    rr_next: &'a mut usize,
    poison_next: &'a mut usize,
    events: &'a mut Vec<QueueEvent>,
}

impl DispatcherIo<'_> {
    fn target_for(&self, first_word: u64) -> Option<usize> {
        if first_word == POISON_KEY {
            let t = *self.poison_next;
            return self.queues[t].has_space().then_some(t);
        }
        let n = self.queues.len();
        (0..n)
            .map(|k| (*self.rr_next + k) % n)
            .find(|q| self.queues[*q].has_space())
    }
}

impl UnitIo for DispatcherIo<'_> {
    fn try_pop(&mut self) -> Option<(u64, Cycle)> {
        None // the dispatcher has no input queue
    }

    fn can_push(&mut self) -> bool {
        match *self.latch {
            None => true, // the pair latch always has room for word 1
            Some(first) => self.target_for(first).is_some(),
        }
    }

    fn push(&mut self, word: u64, now: Cycle) {
        match self.latch.take() {
            None => *self.latch = Some(word),
            Some(first) => {
                let target = self.target_for(first).expect("push follows can_push");
                let pair: Pair = [first, word];
                self.queues[target].push(pair, now);
                if first == POISON_KEY {
                    *self.poison_next += 1;
                } else {
                    *self.rr_next = (target + 1) % self.queues.len();
                }
                self.events.push(QueueEvent::PushedToWalker(target, now));
            }
        }
    }
}

/// Walker IO: pops its own queue, pushes pairs to the producer queue.
struct WalkerIo<'a> {
    index: usize,
    in_q: &'a mut PairQueue,
    latch: &'a mut Option<u64>,
    prod_q: &'a mut PairQueue,
    events: &'a mut Vec<QueueEvent>,
}

impl UnitIo for WalkerIo<'_> {
    fn try_pop(&mut self) -> Option<(u64, Cycle)> {
        let popped = self.in_q.pop_word();
        if let Some((_, at)) = popped {
            if !self.in_q.half_pending() {
                self.events
                    .push(QueueEvent::FreedWalkerSlot(self.index, at));
            }
        }
        popped
    }

    fn can_push(&mut self) -> bool {
        match *self.latch {
            None => true, // word 1 goes to the pair latch
            Some(_) => self.prod_q.has_space(),
        }
    }

    fn push(&mut self, word: u64, now: Cycle) {
        match self.latch.take() {
            None => *self.latch = Some(word),
            Some(first) => {
                self.prod_q.push([first, word], now);
                self.events.push(QueueEvent::PushedToProducer(now));
            }
        }
    }
}

/// Producer IO: pops the shared queue; never pushes.
struct ProducerIo<'a> {
    in_q: &'a mut PairQueue,
    events: &'a mut Vec<QueueEvent>,
}

impl UnitIo for ProducerIo<'_> {
    fn try_pop(&mut self) -> Option<(u64, Cycle)> {
        let popped = self.in_q.pop_word();
        if let Some((_, at)) = popped {
            if !self.in_q.half_pending() {
                self.events.push(QueueEvent::FreedProducerSlot(at));
            }
        }
        popped
    }

    fn can_push(&mut self) -> bool {
        false
    }

    fn push(&mut self, _word: u64, _now: Cycle) {
        panic!("the producer has no output queue");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigRegisters;
    use crate::programs::program_set;
    use widx_db::hash::HashRecipe;
    use widx_db::index::NodeLayout;
    use widx_sim::config::SystemConfig;
    use widx_sim::mem::RegionAllocator;
    use widx_workloads::memimg;

    fn run(walkers: usize, probes: usize) -> WidxRunStats {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let pairs: Vec<(u64, u64)> = (0..64u64).map(|k| (k, k)).collect();
        let probe_keys: Vec<u64> = (0..probes as u64).map(|i| i % 64).collect();
        let recipe = HashRecipe::robust64();
        let image = memimg::materialize(
            &mut mem,
            &mut alloc,
            &recipe,
            64,
            &pairs,
            &probe_keys,
            NodeLayout::direct8(),
        );
        let set = program_set(&image, &ConfigRegisters::hash_probe(&image), walkers, false);
        Widx::new(&set, &WidxConfig::with_walkers(walkers), 0).run(&mut mem)
    }

    #[test]
    fn every_walker_terminates_via_poison() {
        for walkers in [1, 2, 3, 4] {
            let stats = run(walkers, 40);
            assert_eq!(stats.walkers.len(), walkers);
            assert_eq!(stats.tuples, 40, "walkers={walkers}");
            assert_eq!(stats.matches, 40);
        }
    }

    #[test]
    fn breakdowns_cover_elapsed_time() {
        let stats = run(2, 60);
        for w in &stats.walkers {
            // A walker is busy or stalled for (almost) the whole run;
            // small slack covers start/finish skew.
            assert!(w.total() <= stats.total_cycles + 2);
            assert!(
                w.total() * 2 >= stats.total_cycles,
                "walker under-accounted: {w:?}"
            );
        }
    }

    #[test]
    fn stats_math() {
        let stats = WidxRunStats {
            total_cycles: 1000,
            tuples: 100,
            matches: 40,
            dispatcher: Default::default(),
            walkers: vec![
                widx_sim::stats::CycleBreakdown {
                    comp: 100,
                    mem: 300,
                    tlb: 0,
                    idle: 0,
                },
                widx_sim::stats::CycleBreakdown {
                    comp: 200,
                    mem: 400,
                    tlb: 0,
                    idle: 100,
                },
            ],
            producer: Default::default(),
            tlb_replays: 0,
        };
        assert!((stats.cycles_per_tuple() - 10.0).abs() < 1e-12);
        let mean = stats.walker_mean();
        assert_eq!(mean.comp, 150);
        assert_eq!(mean.mem, 350);
        let per = stats.walker_cycles_per_tuple();
        assert!((per.comp - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_probe_run_terminates_quickly() {
        let stats = run(4, 0);
        assert_eq!(stats.tuples, 0);
        assert_eq!(stats.matches, 0);
        assert!(stats.total_cycles < 1000);
    }
}
