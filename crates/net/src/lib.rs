//! # widx-net — a wire protocol and socket front-end for the probe service
//!
//! `widx-serve` turned the paper's walker pool into a service; this
//! crate puts that service on the network, the deployment shape the
//! walkers paper presumes — index probes dominating an in-memory
//! serving tier that real clients hit over sockets:
//!
//! * [`wire`] — a compact length-prefixed binary protocol with explicit
//!   request ids, a versioned frame header, a typed error frame, and
//!   chunked streaming opcodes (`RangeChunk`/`RangeEnd`) for range
//!   scans whose replies should not wait for the slowest shard (`std`
//!   only, consistent with the repo's `compat/` philosophy; the format
//!   is specified in `docs/wire-format.md`);
//! * [`WidxServer`] — a **multi-reactor** event-loop server over `std`
//!   non-blocking sockets driven by the `compat/` readiness poller
//!   (epoll on Linux, `poll(2)` elsewhere; see `docs/poller.md`): an
//!   acceptor thread pins connections round-robin onto
//!   [`NetConfig::reactors`] event-loop threads, each owning its own
//!   poller, connection slab, and event buffer (see
//!   `docs/net-reactors.md`). Each reactor decodes pipelined frames,
//!   submits into the [`ProbeService`](widx_serve::ProbeService)
//!   batching queues through the non-blocking
//!   [`try_submit`](widx_serve::ProbeService::try_submit) surface, and
//!   writes replies back as they complete — possibly **out of order**,
//!   which request ids make safe — batched into vectored writes from
//!   per-connection recycled buffers. Completions ring the *owning
//!   reactor's* wake handle, so the idle path blocks instead of
//!   sleeping blind (no lost wakeups, near-zero idle CPU). Queue
//!   backpressure comes back as a typed `Busy` error frame instead of
//!   unbounded buffering;
//! * [`WidxClient`] — a blocking client with a pipelining `send`/`recv`
//!   split (plus synchronous conveniences, sends held while a whole
//!   reply is already buffered so a reply burst's follow-ups leave in one
//!   write, and the chunk-streaming [`range_stream`](WidxClient::range_stream)
//!   iterator), used by the loopback parity tests and the
//!   `net_server`/`stream_scan`/`stats_scrape` examples.
//!
//! Pipelining is what connects the network layer back to the paper:
//! dozens of independent requests in flight on each connection are
//! exactly the inter-key parallelism the service's per-shard batchers
//! mine to keep every walker slot busy. A strictly synchronous
//! front-end would starve the pool; request ids + out-of-order replies
//! let one connection carry the concurrency the dispatcher needs.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use widx_net::{NetConfig, WidxClient, WidxServer};
//! use widx_serve::{ProbeService, ServeConfig};
//! use widx_db::hash::HashRecipe;
//!
//! let service = Arc::new(ProbeService::build_with_range(
//!     HashRecipe::robust64(),
//!     (0..1000u64).map(|k| (k, k + 1)),
//!     &ServeConfig::default().with_shards(2),
//! ));
//! let server = WidxServer::bind(
//!     "127.0.0.1:0",
//!     Arc::clone(&service),
//!     NetConfig::default(),
//! ).unwrap();
//!
//! let mut client = WidxClient::connect(server.local_addr()).unwrap();
//! assert_eq!(client.lookup(41).unwrap(), vec![42]);
//! assert_eq!(
//!     client.range_scan(10, 12, usize::MAX).unwrap(),
//!     vec![(10, 11), (11, 12), (12, 13)],
//! );
//!
//! // The same scan as a chunked stream, descending:
//! let streamed = client
//!     .range_stream(10, 12, usize::MAX, true)
//!     .unwrap()
//!     .collect_remaining()
//!     .unwrap();
//! assert_eq!(streamed, vec![(12, 13), (11, 12), (10, 11)]);
//!
//! let net = server.shutdown();
//! assert!(net.frames_in >= 2 && net.frames_out >= 2);
//! let stats = Arc::try_unwrap(service).ok().unwrap().shutdown().with_net(net);
//! assert_eq!(stats.net.connections, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod server;
pub mod wire;

pub use client::{ClientError, RangeStream, WidxClient};
pub use server::{NetConfig, WidxServer};
pub use wire::{
    DecodeError, Decoded, ErrorCode, ErrorReply, FrameError, Reply, ScrapeKind, WireRequest,
};

// Re-exported so client code can build requests and match responses
// without naming the serving crate.
pub use widx_serve::{Request, Response};
