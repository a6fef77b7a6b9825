//! The four workloads: what each builds, the request stream it sends,
//! and how every reply is checked without a lookup table.

use rand::rngs::StdRng;
use rand::Rng;
use widx_serve::{Request, Response};
use widx_workloads::datagen::{self, Zipf};

/// Keys per `JoinProbe` request.
pub const JOIN_KEYS: usize = 1024;
/// A scan asks for `[lo, lo + SCAN_SPAN)` and stops at `SCAN_LIMIT`
/// entries; keys are dense, so exactly `SCAN_LIMIT` come back.
pub const SCAN_SPAN: u64 = 256;
pub const SCAN_LIMIT: usize = 128;
const ZIPF_THETA: f64 = 0.99;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    JoinDram,
    PointCached,
    ScanDram,
    RwHot,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Index entries: the dense key domain `0..entries`.
    pub entries: usize,
    /// Whether the ordered (B+-tree) tier is built beside the hash tier.
    pub ordered: bool,
    /// Requests the one client keeps in flight.
    pub depth: usize,
    /// What one unit of `keys_per_s` / `cpu_ns_per_key` is.
    pub unit: &'static str,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "join_dram",
        kind: Kind::JoinDram,
        entries: 1 << 24,
        ordered: false,
        depth: 4,
        unit: "key probed",
    },
    Spec {
        name: "point_cached",
        kind: Kind::PointCached,
        entries: 1 << 16,
        ordered: false,
        depth: 1,
        unit: "key probed",
    },
    Spec {
        name: "scan_dram",
        kind: Kind::ScanDram,
        entries: 1 << 23,
        ordered: true,
        depth: 64,
        unit: "entry returned",
    },
    Spec {
        name: "rw_hot",
        kind: Kind::RwHot,
        entries: 1 << 20,
        ordered: true,
        depth: 32,
        unit: "op completed",
    },
];

/// `--quick` shrinks every index to this many entries: enough to smoke
/// the harness, never a number to compare.
pub const QUICK_ENTRIES: usize = 1 << 14;

impl Spec {
    #[must_use]
    pub fn by_name(name: &str, quick: bool) -> Option<Spec> {
        let mut spec = *WORKLOADS.iter().find(|w| w.name == name)?;
        if quick {
            spec.entries = QUICK_ENTRIES;
        }
        Some(spec)
    }
}

/// The payload stored under `key`: a pure mix of `(key, seed)`, so a
/// reply verifies by recomputation.
#[must_use]
pub fn payload_of(key: u64, seed: u64) -> u64 {
    let mut x = key ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `(key, payload)` pairs an index is built from: the dense domain
/// `0..entries` in seeded shuffled order.
#[must_use]
pub fn build_pairs(spec: &Spec, seed: u64) -> Vec<(u64, u64)> {
    datagen::unique_shuffled_keys(seed, spec.entries)
        .into_iter()
        .map(|key| (key, payload_of(key, seed)))
        .collect()
}

/// What `rw_hot` knows about each key's writes. An update of `key`
/// carries `payload_of(key) + seq` with `seq` counting that key's
/// updates, so a read reveals which write it saw. docs/writes.md
/// promises a write is visible once acked, so a read sent after the
/// ack of `seq` must see `seq` or later — and never a write not yet
/// sent.
pub struct SeqOracle {
    sent: Vec<u32>,
    acked: Vec<u32>,
    touched: Vec<u64>,
}

impl SeqOracle {
    #[must_use]
    pub fn new(entries: usize) -> SeqOracle {
        // Written once, not just allocated: pages first touched during
        // the timed phase would be counted as the index growing
        // (`rss_bytes_per_entry`).
        fn resident<T: Clone>(filler: T, len: usize) -> Vec<T> {
            let mut v = vec![filler; len];
            v.clear();
            v
        }
        let mut zeros = resident(1u32, entries);
        zeros.resize(entries, 0);
        SeqOracle {
            sent: zeros.clone(),
            acked: zeros,
            touched: resident(1u64, entries),
        }
    }

    /// The sequence number the next update of `key` carries.
    pub fn next_write(&mut self, key: u64) -> u32 {
        let sent = &mut self.sent[key as usize];
        if *sent == 0 {
            self.touched.push(key);
        }
        *sent += 1;
        *sent
    }

    /// Update `seq` of `key` was acknowledged. One connection, one
    /// FIFO per shard: an ack for `seq` implies every earlier one.
    pub fn ack(&mut self, key: u64, seq: u32) {
        let acked = &mut self.acked[key as usize];
        *acked = (*acked).max(seq);
    }

    /// The oldest write a read of `key` sent *now* may return.
    #[must_use]
    pub fn floor(&self, key: u64) -> u32 {
        self.acked[key as usize]
    }

    /// The last update of `key` sent (0 for never, and on the workloads
    /// that keep no oracle because they never write).
    #[must_use]
    pub fn last_sent(&self, key: u64) -> u32 {
        self.sent.get(key as usize).copied().unwrap_or(0)
    }

    /// Whether a read of `key`, sent when [`floor`](Self::floor) was
    /// `floor`, may return write `seq`.
    #[must_use]
    pub fn read_ok(&self, key: u64, floor: u32, seq: u64) -> bool {
        u64::from(floor) <= seq && seq <= u64::from(self.last_sent(key))
    }

    /// Every key written so far, in first-write order.
    #[must_use]
    pub fn touched(&self) -> &[u64] {
        &self.touched
    }
}

/// One workload's request stream and reply checker. The seed reaches
/// the generator and the build pairs, nothing else.
pub struct Traffic {
    spec: Spec,
    seed: u64,
    rng: StdRng,
    zipf: Option<Zipf>,
    turn: u64,
    pub oracle: SeqOracle,
    /// Scratch bitmap: which rows of a join reply were seen.
    seen_rows: Vec<u64>,
}

impl Traffic {
    #[must_use]
    pub fn new(spec: &Spec, seed: u64) -> Traffic {
        let skewed = matches!(spec.kind, Kind::PointCached | Kind::RwHot);
        Traffic {
            spec: *spec,
            seed,
            rng: stream_rng(seed),
            zipf: skewed.then(|| Zipf::new(spec.entries, ZIPF_THETA)),
            turn: 0,
            oracle: SeqOracle::new(if spec.kind == Kind::RwHot {
                spec.entries
            } else {
                0
            }),
            seen_rows: vec![0; JOIN_KEYS.div_ceil(64)],
        }
    }

    /// Rewinds the generator so the next cut sees the same key stream.
    /// The write oracle is kept: it describes the index, which is too.
    pub fn rewind(&mut self) {
        self.rng = stream_rng(self.seed);
        self.turn = 0;
    }

    /// Rewinds, and forgets every write: the index was built anew.
    pub fn reset(&mut self) {
        self.rewind();
        self.oracle = SeqOracle::new(self.oracle.sent.len());
    }

    fn payload(&self, key: u64) -> u64 {
        payload_of(key, self.seed)
    }

    /// A Zipf rank spread over the key domain (a bijection, since the
    /// multiplier is odd and `entries` a power of two): rank order would
    /// put every hot key in the ordered tier's first range shard.
    fn hot_key(&mut self) -> u64 {
        let rank = self
            .zipf
            .as_ref()
            .expect("skewed workload")
            .sample(&mut self.rng);
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (self.spec.entries as u64 - 1)
    }

    /// The next request, and for an `rw_hot` read the oldest write it
    /// may legally return (0 otherwise).
    pub fn next_request(&mut self) -> (Request, u32) {
        let n = self.spec.entries as u64;
        self.turn += 1;
        match self.spec.kind {
            Kind::JoinDram => {
                // ~6 % of the probes miss: keys in [n, n + n/16).
                let keys = (0..JOIN_KEYS)
                    .map(|_| self.rng.gen_range(0..n + n / 16))
                    .collect();
                (Request::JoinProbe { keys }, 0)
            }
            Kind::PointCached => (
                Request::Lookup {
                    key: self.hot_key(),
                },
                0,
            ),
            Kind::ScanDram => {
                let lo = self.rng.gen_range(0..n - SCAN_SPAN);
                let request = Request::RangeScan {
                    lo,
                    hi: lo + SCAN_SPAN - 1,
                    limit: SCAN_LIMIT,
                    desc: false,
                };
                (request, 0)
            }
            Kind::RwHot => {
                let key = self.hot_key();
                // 50/50 by error diffusion is strict alternation.
                if self.turn % 2 == 1 {
                    (Request::Lookup { key }, self.oracle.floor(key))
                } else {
                    let seq = self.oracle.next_write(key);
                    let value = self.payload(key).wrapping_add(u64::from(seq));
                    (
                        Request::Update {
                            pairs: vec![(key, value)],
                        },
                        0,
                    )
                }
            }
        }
    }

    /// A read of `key` that must return exactly its last written value.
    #[must_use]
    pub fn readback(&self, key: u64) -> (Request, u32) {
        (Request::Lookup { key }, self.oracle.last_sent(key))
    }

    /// The one correct reply to `request` on a quiet index (every sent
    /// write applied): what the codec cut frames, and what
    /// [`check`](Self::check) must accept.
    #[must_use]
    pub fn expected(&self, request: &Request) -> Response {
        let n = self.spec.entries as u64;
        match request {
            Request::JoinProbe { keys } => Response::JoinProbe {
                pairs: (0u64..)
                    .zip(keys)
                    .filter(|&(_, &key)| key < n)
                    .map(|(row, &key)| (row, self.payload(key)))
                    .collect(),
            },
            Request::Lookup { key } => {
                let seq = u64::from(self.oracle.last_sent(*key));
                Response::Lookup {
                    key: *key,
                    payloads: vec![self.payload(*key).wrapping_add(seq)],
                }
            }
            Request::RangeScan { lo, .. } => Response::RangeScan {
                entries: (*lo..)
                    .take(SCAN_LIMIT)
                    .map(|k| (k, self.payload(k)))
                    .collect(),
            },
            Request::Update { pairs } => Response::Write {
                acks: vec![true; pairs.len()],
            },
            other => unreachable!("no workload sends {other:?}"),
        }
    }

    /// Units of work a correct reply to `request` stands for.
    #[must_use]
    pub fn units(request: &Request) -> u64 {
        match request {
            Request::JoinProbe { keys } => keys.len() as u64,
            Request::RangeScan { .. } => SCAN_LIMIT as u64,
            _ => 1,
        }
    }

    /// Whether `response` is the right answer to `request`.
    pub fn check(&mut self, request: &Request, floor: u32, response: &Response) -> bool {
        let n = self.spec.entries as u64;
        match (request, response) {
            (Request::JoinProbe { keys }, Response::JoinProbe { pairs }) => {
                let hits = keys.iter().filter(|&&k| k < n).count();
                if pairs.len() != hits || keys.len() > self.seen_rows.len() * 64 {
                    return false;
                }
                let (seed, seen) = (self.seed, &mut self.seen_rows);
                seen.fill(0);
                pairs.iter().all(|&(row, payload)| {
                    let Some(&key) = keys.get(row as usize) else {
                        return false;
                    };
                    let (word, bit) = (row as usize / 64, 1u64 << (row % 64));
                    let fresh = seen[word] & bit == 0;
                    seen[word] |= bit;
                    fresh && key < n && payload == payload_of(key, seed)
                })
            }
            (Request::Lookup { key }, Response::Lookup { key: got, payloads }) => {
                let [payload] = payloads[..] else {
                    return false;
                };
                let seq = payload.wrapping_sub(self.payload(*key));
                got == key
                    && match self.spec.kind {
                        Kind::RwHot => self.oracle.read_ok(*key, floor, seq),
                        _ => seq == 0,
                    }
            }
            (Request::RangeScan { lo, .. }, Response::RangeScan { entries }) => {
                entries.len() == SCAN_LIMIT
                    && entries
                        .iter()
                        .zip(*lo..)
                        .all(|(&entry, key)| entry == (key, self.payload(key)))
            }
            (Request::Update { pairs }, Response::Write { acks }) => {
                let (&[(key, value)], &[true]) = (&pairs[..], &acks[..]) else {
                    return false;
                };
                let seq = value.wrapping_sub(self.payload(key));
                self.oracle.ack(key, seq as u32);
                true
            }
            _ => false,
        }
    }
}

/// The request stream's generator, kept apart from the build shuffle's
/// so the two do not replay each other.
fn stream_rng(seed: u64) -> StdRng {
    datagen::rng(seed ^ 0x5EED_5EED_5EED_5EED)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_requests(name: &str, seed: u64, count: usize) -> Vec<Request> {
        let spec = Spec::by_name(name, true).unwrap();
        let mut traffic = Traffic::new(&spec, seed);
        (0..count).map(|_| traffic.next_request().0).collect()
    }

    #[test]
    fn equal_seeds_give_equal_streams_and_different_seeds_do_not() {
        for spec in &WORKLOADS {
            let a = first_requests(spec.name, 7, 64);
            assert_eq!(a, first_requests(spec.name, 7, 64), "{}", spec.name);
            assert_ne!(a, first_requests(spec.name, 8, 64), "{}", spec.name);
        }
        let spec = Spec::by_name("rw_hot", true).unwrap();
        assert_ne!(build_pairs(&spec, 7), build_pairs(&spec, 8));
        assert_eq!(build_pairs(&spec, 7), build_pairs(&spec, 7));
    }

    #[test]
    fn check_accepts_the_expected_reply_on_every_workload() {
        for spec in &WORKLOADS {
            let spec = Spec::by_name(spec.name, true).unwrap();
            let mut traffic = Traffic::new(&spec, 5);
            for _ in 0..200 {
                let (request, floor) = traffic.next_request();
                let reply = traffic.expected(&request);
                assert!(
                    traffic.check(&request, floor, &reply),
                    "{}: {request:?}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn rewind_replays_the_stream() {
        let spec = Spec::by_name("scan_dram", true).unwrap();
        let mut traffic = Traffic::new(&spec, 3);
        let first: Vec<_> = (0..16).map(|_| traffic.next_request().0).collect();
        traffic.rewind();
        let again: Vec<_> = (0..16).map(|_| traffic.next_request().0).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn rw_hot_alternates_reads_and_writes() {
        let requests = first_requests("rw_hot", 1, 100);
        let writes = requests
            .iter()
            .filter(|r| matches!(r, Request::Update { .. }))
            .count();
        assert_eq!(writes, 50);
        assert!(matches!(requests[0], Request::Lookup { .. }));
        assert!(matches!(requests[1], Request::Update { .. }));
    }

    #[test]
    fn the_sequence_oracle_accepts_legal_reads_and_rejects_stale_ones() {
        let mut oracle = SeqOracle::new(8);
        assert!(
            oracle.read_ok(3, oracle.floor(3), 0),
            "never written: the built value"
        );
        assert_eq!(oracle.next_write(3), 1);
        assert!(
            oracle.read_ok(3, oracle.floor(3), 0),
            "sent but unacked: old value is legal"
        );
        assert!(
            oracle.read_ok(3, oracle.floor(3), 1),
            "... and so is the new one"
        );
        oracle.ack(3, 1);
        assert_eq!(oracle.next_write(3), 2);
        let floor = oracle.floor(3);
        assert_eq!(floor, 1);
        assert!(
            !oracle.read_ok(3, floor, 0),
            "stale: write 1 was acked before the read"
        );
        assert!(oracle.read_ok(3, floor, 1));
        assert!(oracle.read_ok(3, floor, 2));
        assert!(!oracle.read_ok(3, floor, 3), "a write nobody sent");
        // A read sent before the ack keeps its older floor.
        assert!(oracle.read_ok(3, 0, 0));
        // Acks may arrive out of order; the floor never moves back.
        oracle.ack(3, 2);
        oracle.ack(3, 1);
        assert_eq!(oracle.floor(3), 2);
        assert_eq!(oracle.touched(), &[3]);
    }

    #[test]
    fn check_accepts_the_right_reply_and_rejects_wrong_ones() {
        let seed = 11;
        let spec = Spec::by_name("join_dram", true).unwrap();
        let n = spec.entries as u64;
        let mut traffic = Traffic::new(&spec, seed);
        let request = Request::JoinProbe {
            keys: vec![5, n + 1, 9],
        };
        let good = vec![(2, payload_of(9, seed)), (0, payload_of(5, seed))];
        assert!(traffic.check(
            &request,
            0,
            &Response::JoinProbe {
                pairs: good.clone()
            }
        ));
        let dup = vec![good[0], good[0]];
        assert!(!traffic.check(&request, 0, &Response::JoinProbe { pairs: dup }));
        let short = vec![good[0]];
        assert!(!traffic.check(&request, 0, &Response::JoinProbe { pairs: short }));
        let wrong = vec![(2, 1), good[1]];
        assert!(!traffic.check(&request, 0, &Response::JoinProbe { pairs: wrong }));

        let spec = Spec::by_name("scan_dram", true).unwrap();
        let mut traffic = Traffic::new(&spec, seed);
        let (request, _) = traffic.next_request();
        let Request::RangeScan { lo, .. } = request else {
            panic!("scan workload sends scans");
        };
        let mut entries: Vec<_> = (lo..lo + SCAN_LIMIT as u64)
            .map(|k| (k, payload_of(k, seed)))
            .collect();
        assert!(traffic.check(
            &request,
            0,
            &Response::RangeScan {
                entries: entries.clone()
            }
        ));
        entries.swap(3, 4);
        assert!(!traffic.check(
            &request,
            0,
            &Response::RangeScan {
                entries: entries.clone()
            }
        ));
        entries.truncate(100);
        assert!(!traffic.check(&request, 0, &Response::RangeScan { entries }));

        let spec = Spec::by_name("rw_hot", true).unwrap();
        let mut traffic = Traffic::new(&spec, seed);
        let (_read, _) = traffic.next_request();
        let (write, _) = traffic.next_request();
        let Request::Update { pairs } = &write else {
            panic!("second rw_hot request is a write");
        };
        let (key, value) = pairs[0];
        assert_eq!(value, payload_of(key, seed).wrapping_add(1));
        assert!(!traffic.check(&write, 0, &Response::Write { acks: vec![false] }));
        assert!(traffic.check(&write, 0, &Response::Write { acks: vec![true] }));
        let (readback, floor) = traffic.readback(key);
        let stale = Response::Lookup {
            key,
            payloads: vec![payload_of(key, seed)],
        };
        assert!(!traffic.check(&readback, floor, &stale));
        let fresh = Response::Lookup {
            key,
            payloads: vec![value],
        };
        assert!(traffic.check(&readback, floor, &fresh));
    }
}
