//! Per-request tracing integration tests at the serve tier: the span
//! seam (queue-wait → batch-wait → walk → gather) must cover a sampled
//! request's life, walker MLP counters must be attached, tail sampling
//! must catch slow requests with head sampling off, and an unarmed
//! service must leave the recorder untouched.

use std::time::Duration;

use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, Request, RequestTrace, Response, ServeConfig, Stage};

const ENTRIES: u64 = 8192;

fn build(config: ServeConfig) -> ProbeService {
    ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        &config,
    )
}

fn span_dur(trace: &RequestTrace, stage: Stage) -> Option<u64> {
    trace
        .spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.dur_ns)
        .max()
}

#[test]
fn head_sampled_requests_carry_the_full_span_seam() {
    let config = ServeConfig::default().with_shards(2).with_trace_sample(1);
    let ring = config.inflight as u64;
    let service = build(config);

    // Ring-filling requests (four rings' worth of keys over the two
    // shards) are queued, batched and walked by the shard workers.
    for base in 0..32u64 {
        let keys: Vec<u64> = (base..base + 4 * ring).collect();
        let rows = service.multi_lookup(&keys).expect("multi_lookup");
        assert_eq!(rows.len(), keys.len());
    }
    let keys: Vec<u64> = (0..64).map(|i| i * 97 % ENTRIES).collect();
    let pairs = service.join_probe(&keys).expect("join_probe");
    assert_eq!(pairs.len(), keys.len());
    // A two-cursor scan that fits one stream chunk is walked on this
    // thread, like the sub-ring lookups below.
    let limit = ServeConfig::default().stream_chunk;
    let entries = service.range_scan(100, 4000, limit).expect("range_scan");
    assert_eq!(entries.len(), limit);
    // The sub-ring convenience is walked on this thread, like `submit`.
    for key in 0..32u64 {
        assert_eq!(service.lookup(key).expect("lookup"), vec![key + 1]);
    }

    // A trace commits just *after* the completion wakeup that releases
    // the blocked caller; `flush` waits out every armed trace's commit
    // ticket, so the counts below are exact, not racy lower bounds.
    let recorder = service.flight_recorder();
    recorder.flush();
    let stats = recorder.stats();
    assert_eq!(
        stats.recorded, 66,
        "every request is head-sampled and committed by flush time"
    );
    let traces = recorder.snapshot();
    assert_eq!(traces.len(), 66);

    // Every completed trace must carry the serve-side seam stages and
    // a non-trivial walker counter record, and its spans must fit
    // inside the end-to-end latency. A worker's batch adds the
    // batch-wait span; a walk on the submitting thread waited in no
    // batch. Both run the AMAC ring, which prefetches.
    for trace in &traces {
        let queued = !matches!(trace.kind, "lookup" | "range_scan");
        for stage in [Stage::QueueWait, Stage::Walk] {
            assert!(
                span_dur(trace, stage).is_some(),
                "{} trace {} missing {} span",
                trace.kind,
                trace.id,
                stage.name()
            );
        }
        assert_eq!(
            span_dur(trace, Stage::BatchWait).is_some(),
            queued,
            "{} trace {}: batch-wait span iff a worker batched it",
            trace.kind,
            trace.id
        );
        assert!(!trace.shards.is_empty(), "no shard recorded");
        assert!(trace.walk.nodes > 0, "walker visited no nodes");
        assert!(trace.walk.rounds > 0, "walker ran no rounds");
        assert!(
            trace.walk.prefetches > 0,
            "{} trace {}: the ring walked it and prefetched",
            trace.kind,
            trace.id
        );
        for span in &trace.spans {
            assert!(
                span.start_ns <= trace.total_ns,
                "span starts after the request completed"
            );
        }
        // Queue-wait begins at (or near) the submit anchor; the walk
        // span must not start before it.
        let queue_start = trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::QueueWait)
            .map(|s| s.start_ns)
            .expect("queue span");
        let walk_start = trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::Walk)
            .map(|s| s.start_ns)
            .expect("walk span");
        assert!(walk_start >= queue_start, "walk began before queue-wait");
    }
    assert_eq!(traces.iter().filter(|t| t.kind == "lookup").count(), 32);

    // A multi-shard request fans its shard set out.
    let multi = traces
        .iter()
        .find(|t| t.kind == "multi_lookup")
        .expect("multi_lookup trace");
    assert!(multi.shards.len() >= 2, "32-key lookup touched one shard");

    let gathered = traces
        .iter()
        .filter(|t| span_dur(t, Stage::Gather).is_some())
        .count();
    assert!(gathered >= 1, "no trace recorded a gather span");

    // The Trace opcode payload parses out of the same recorder.
    let json = service.traces_json();
    assert!(json.contains("\"traces\":["));
    assert!(json.contains("\"walk\":"));
    let _ = service.shutdown();
}

#[test]
fn sub_ring_requests_are_traced_where_they_are_walked() {
    // A sampled sub-ring request takes the same path as an unsampled
    // one — the submitting thread — and its trace says so: the owning
    // shards, a queue-wait (≈ 0) and a walk span, the ring's counters,
    // and no batch-wait span, because no batch was open.
    let service = build(ServeConfig::default().with_shards(2).with_trace_sample(1));
    let owner = |key: u64| service.sharded().shard_of(key) as u32;
    for key in 0..16u64 {
        let pending = service.submit(Request::Lookup { key }).expect("submit");
        assert!(pending.is_ready(), "tracing moved lookup {key} to a worker");
    }
    let spanning: Vec<u64> = (100..107).collect();
    let pending = service
        .submit(Request::JoinProbe {
            keys: spanning.clone(),
        })
        .expect("submit");
    assert!(pending.is_ready());

    let recorder = service.flight_recorder();
    recorder.flush();
    assert_eq!(recorder.stats().recorded, 17, "one trace per request");
    let traces = recorder.snapshot();
    assert_eq!(traces.len(), 17);
    for trace in &traces {
        // In-process trace ids are the submission sequence.
        let mut owners: Vec<u32> = match trace.kind {
            "lookup" => vec![owner(trace.id)],
            "join_probe" => spanning.iter().map(|key| owner(*key)).collect(),
            other => panic!("unexpected trace kind {other}"),
        };
        owners.sort_unstable();
        owners.dedup();
        let mut shards = trace.shards.clone();
        shards.sort_unstable();
        assert_eq!(shards, owners, "{} trace {}", trace.kind, trace.id);
        for stage in [Stage::QueueWait, Stage::Walk, Stage::Gather] {
            assert!(
                span_dur(trace, stage).is_some(),
                "{} trace {} missing {} span",
                trace.kind,
                trace.id,
                stage.name()
            );
        }
        assert_eq!(span_dur(trace, Stage::BatchWait), None, "no batch was open");
        let walks = trace.spans.iter().filter(|s| s.stage == Stage::Walk);
        assert_eq!(walks.count(), owners.len(), "one walk span per shard part");
        assert!(trace.walk.nodes > 0, "walk counters missing");
        assert!(trace.walk.prefetches > 0, "the submitter's ring prefetched");
        assert!(
            trace.walk.occupancy >= trace.walk.rounds,
            "a round steps a cursor"
        );
        if trace.kind == "lookup" {
            assert_eq!(
                trace.walk.rounds, trace.walk.nodes,
                "one cursor, one node a round"
            );
        }
        for span in &trace.spans {
            assert!(
                span.start_ns <= trace.total_ns,
                "span starts after the request completed"
            );
        }
    }
    assert!(
        traces.iter().any(|t| t.shards.len() == 2),
        "join spans shards"
    );
    let _ = service.shutdown();
}

#[test]
fn sub_ring_multi_lookup_overlaps_its_misses_on_the_submitting_thread() {
    // Four keys owned by one shard: fewer than the ring has slots, so the
    // submitting thread walks them — through the worker's ring, whose
    // cursors are in flight together, not one key after another.
    let service = build(ServeConfig::default().with_shards(2).with_trace_sample(1));
    let sharded = service.sharded();
    let keys: Vec<u64> = (0..ENTRIES)
        .filter(|&key| sharded.shard_of(key) == 0)
        .take(4)
        .collect();
    let pending = service
        .submit(Request::MultiLookup { keys: keys.clone() })
        .expect("submit");
    assert!(pending.is_ready(), "a sub-ring lookup was queued");
    let Response::MultiLookup { mut matches } = pending.wait() else {
        panic!("a multi-lookup is answered with a multi-lookup");
    };
    matches.sort_unstable();
    let mut want: Vec<(u64, u64)> = keys
        .iter()
        .flat_map(|&key| sharded.lookup_all(key).into_iter().map(move |p| (key, p)))
        .collect();
    want.sort_unstable();
    assert_eq!(matches, want);

    let recorder = service.flight_recorder();
    recorder.flush();
    let traces = recorder.snapshot();
    let [trace] = &traces[..] else {
        panic!("expected one trace, got {}", traces.len());
    };
    assert_eq!(trace.kind, "multi_lookup");
    assert_eq!(trace.shards, vec![0]);
    assert_eq!(span_dur(trace, Stage::BatchWait), None, "no batch was open");
    assert!(trace.walk.prefetches > 0, "the ring prefetched");
    assert!(
        trace.walk.occupancy > trace.walk.rounds,
        "the four probes' misses overlapped: occupancy {} over {} rounds",
        trace.walk.occupancy,
        trace.walk.rounds
    );
    let _ = service.shutdown();
}

/// Where a stage's span ends on the trace timeline.
fn span_end(trace: &RequestTrace, stage: Stage) -> u64 {
    trace
        .spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.start_ns + s.dur_ns)
        .max()
        .unwrap_or_else(|| panic!("trace missing {} span", stage.name()))
}

#[test]
fn batch_wait_span_ends_at_the_close_decision() {
    // One shard, one lone join: the whole request is one batch that
    // closes the moment its keys are admitted. A quarter of the probes
    // (the in-flight ring) are still walking at that instant, so the
    // batch-wait span — admission until the batch *closed* — must end
    // before the walk span does, not after the drain and attribution.
    let service = build(
        ServeConfig::default()
            .with_shards(1)
            .with_inflight(1024)
            .with_trace_sample(1),
    );
    let keys: Vec<u64> = (0..4096).map(|i| i * 97 % ENTRIES).collect();
    assert_eq!(service.join_probe(&keys).expect("join").len(), keys.len());
    service.flight_recorder().flush();
    let traces = service.flight_recorder().snapshot();
    let trace = traces
        .iter()
        .find(|t| t.kind == "join_probe")
        .expect("join_probe trace");
    let (batch_wait, walk) = (
        span_end(trace, Stage::BatchWait),
        span_end(trace, Stage::Walk),
    );
    assert!(
        batch_wait <= walk,
        "batch-wait span ends at {batch_wait} ns, after the walk span ({walk} ns): \
         it swallowed the drain"
    );
    let _ = service.shutdown();
}

#[test]
fn tail_sampling_catches_slow_requests_without_head_sampling() {
    let service = build(
        ServeConfig::default()
            .with_shards(2)
            .with_slow_threshold(Some(Duration::from_nanos(1))),
    );
    // Head sampling is off; the 1ns threshold tail-selects everything.
    let entries = service.range_scan(0, ENTRIES, 2000).expect("range_scan");
    assert_eq!(entries.len(), 2000);

    service.flight_recorder().flush();
    let stats = service.flight_recorder().stats();
    assert_eq!(stats.recorded, 1, "the slow request is tail-recorded");
    assert_eq!(stats.slow, stats.recorded, "all records are tail-selected");
    let traces = service.flight_recorder().snapshot();
    assert!(traces.iter().all(|t| t.slow));
    let _ = service.shutdown();
}

#[test]
fn unarmed_service_records_nothing() {
    let service = build(ServeConfig::default().with_shards(2));
    for key in 0..16u64 {
        let _ = service.lookup(key).expect("lookup");
    }
    let _ = service.range_scan(0, 100, 10).expect("scan");
    let stats = service.flight_recorder().stats();
    assert_eq!(stats.recorded, 0);
    assert_eq!(stats.depth, 0);
    assert!(service.flight_recorder().snapshot().is_empty());
    let final_stats = service.shutdown();
    assert_eq!(final_stats.trace.recorded, 0);
}

#[test]
fn recorder_ring_evicts_oldest_and_counts_drops() {
    let service = build(
        ServeConfig::default()
            .with_shards(2)
            .with_trace_sample(1)
            .with_trace_capacity(4),
    );
    for key in 0..32u64 {
        let _ = service.lookup(key).expect("lookup");
    }
    service.flight_recorder().flush();
    let stats = service.flight_recorder().stats();
    assert_eq!(stats.depth, 4, "ring holds exactly its capacity");
    assert_eq!(stats.recorded, 32);
    assert_eq!(stats.dropped, stats.recorded - 4);
    let _ = service.shutdown();
}

#[test]
fn streaming_scans_are_traced_too() {
    let service = build(
        ServeConfig::default()
            .with_shards(2)
            .with_stream_chunk(64)
            .with_trace_sample(1),
    );
    let stream = service
        .range_stream(0, ENTRIES, usize::MAX, false)
        .expect("stream");
    assert_eq!(stream.flatten().count(), ENTRIES as usize);
    service.flight_recorder().flush();
    assert_eq!(service.flight_recorder().stats().recorded, 1);
    let traces = service.flight_recorder().snapshot();
    let trace = traces
        .iter()
        .find(|t| t.kind == "range_stream")
        .expect("range_stream trace");
    assert!(trace.walk.nodes > 0);
    assert!(span_dur(trace, Stage::Walk).is_some());
    let _ = service.shutdown();
}
