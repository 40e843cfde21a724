//! Chunk prefetching: the runtime analog of batch sampling.
//!
//! Paper §3.3 keeps `b` outstanding storage requests per compute node so
//! that storage stays busy and workers are never starved — "essentially
//! overlapping computation and communication through prefetching of
//! chunks". The prefetcher runs one background fetcher thread per
//! consuming worker and delivers chunks through a bounded queue.
//!
//! There is one fetch loop, over the client's [`crate::rpc::RpcPort`]
//! whatever plane carries it. The fetcher keeps up to `min(b, m)`
//! `RemoveBatch` requests *concurrently outstanding* against distinct
//! storage nodes (walking the client's pseudorandom cyclic order over the
//! `m` nodes) and collects completions as they arrive, so storage-side
//! latency is overlapped across nodes exactly as the paper describes. On
//! the inline plane a request executes as it is sent, so the pipeline
//! degenerates to eager execution with the same bookkeeping.
//!
//! **Depth bound.** The `b` chunks are split across the in-flight
//! requests: each asks for `max(1, b / min(b, m))` chunks, so one sweep
//! removes at most `b` chunks from storage. Together with the handoff
//! queue (two runs of at most `b`) and the run the consumer is draining,
//! at most `4 · b` chunks are ever removed from storage but not yet
//! returned by [`Prefetcher::recv`] — the bound of a loop probing `b`
//! chunks at a time. Everything beyond that stays in storage, where the
//! master's bag samples count it as remaining work when it weighs a
//! clone.
//!
//! **Replicas.** An empty end-of-stream from a node is confirmed through
//! its whole replica set before the node is written off (with
//! replication): a restarted primary may have recovered a log missing
//! runs that landed only at a backup while it was down, and those chunks
//! must still be delivered. Unreachable nodes fail over the same way.
//!
//! Transport failures are *surfaced*: a fetcher that loses its connection
//! mid-stream sends the error to the consumer rather than ending the
//! stream, and a stream that ends without the fetcher's explicit
//! end-of-bag mark is reported as [`StorageError::PrefetchAborted`] — a
//! drained bag and a dead fetcher are never confused.
//!
//! The fetcher→consumer handoff is **batched**: the chunks one sweep
//! collected cross the bounded queue as one run, not one channel
//! operation per chunk. The consumer side buffers the current run and
//! serves [`Prefetcher::recv`] from it, so per-chunk delivery cost is a
//! `VecDeque` pop, and the channel's synchronization is paid once per
//! sweep.

use crate::bag::BagClient;
use crate::error::StorageError;
use crate::rpc::{CompletionToken, RpcPort, StorageRequest, StorageResponse};
use crossbeam::channel::{bounded, Receiver, Sender};
use hurricane_common::BagId;
use hurricane_format::Chunk;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many chunk runs the fetcher→consumer queue buffers. Two gives
/// double buffering (the fetcher refills one run while the consumer
/// drains another); the pipeline depth proper lives in the fetcher's
/// outstanding-request budget, not in this queue.
const HANDOFF_RUNS: usize = 2;

/// A handle to a prefetching consumer of one bag.
///
/// Dropping the handle stops the fetcher promptly and race-free: drop
/// raises a dedicated shutdown flag, then closes the receiving side of
/// the data channel. A fetcher parked on a full queue observes the
/// disconnect (its blocked `send` fails immediately), and a fetcher
/// mid-probe observes the flag before its next send — there is no window
/// in which it can keep running.
pub struct Prefetcher {
    rx: Option<Receiver<Result<Vec<Chunk>, StorageError>>>,
    /// The run currently being served to the consumer.
    buffered: VecDeque<Chunk>,
    shutdown: Arc<AtomicBool>,
    /// Set by the fetcher before every intentional exit (drained bag or
    /// explicitly delivered error). A disconnected channel without this
    /// mark means the fetcher died: surfaced as `PrefetchAborted`.
    ended: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawns a fetcher over `client` keeping up to `batch_factor`
    /// requests in flight and at most `batch_factor` chunks removed per
    /// sweep (see the module docs for the depth bound).
    ///
    /// # Panics
    ///
    /// Panics if `batch_factor` is zero.
    pub fn spawn(client: BagClient, batch_factor: usize) -> Self {
        assert!(batch_factor > 0, "batch factor must be at least 1");
        let (tx, rx) = bounded(HANDOFF_RUNS);
        let shutdown = Arc::new(AtomicBool::new(false));
        let ended = Arc::new(AtomicBool::new(false));
        let shutdown2 = shutdown.clone();
        let ended2 = ended.clone();
        let handle = std::thread::Builder::new()
            .name(format!("prefetch-{}", client.bag_id()))
            .spawn(move || fetch(client, batch_factor, &tx, &shutdown2, &ended2))
            .expect("spawning prefetch thread");
        Self {
            rx: Some(rx),
            buffered: VecDeque::new(),
            shutdown,
            ended,
            handle: Some(handle),
        }
    }

    fn rx(&self) -> &Receiver<Result<Vec<Chunk>, StorageError>> {
        self.rx.as_ref().expect("receiver lives until drop")
    }

    /// Receives the next chunk, blocking until one is available or the bag
    /// drains (`Ok(None)`). Serves from the buffered run when one is in
    /// hand; whole runs cross the fetcher boundary once.
    pub fn recv(&mut self) -> Result<Option<Chunk>, StorageError> {
        loop {
            if let Some(c) = self.buffered.pop_front() {
                return Ok(Some(c));
            }
            match self.rx().recv() {
                Ok(Ok(run)) => self.buffered = run.into(),
                Ok(Err(e)) => return Err(e),
                // Fetcher exited. Only an intentional exit means "drained".
                Err(_) if self.ended.load(Ordering::Acquire) => return Ok(None),
                Err(_) => return Err(StorageError::PrefetchAborted),
            }
        }
    }

    /// Non-blocking receive; `Ok(None)` means nothing buffered *right now*
    /// (the bag may or may not be drained — use [`Prefetcher::recv`] for
    /// termination detection).
    pub fn try_recv(&mut self) -> Result<Option<Chunk>, StorageError> {
        loop {
            if let Some(c) = self.buffered.pop_front() {
                return Ok(Some(c));
            }
            match self.rx().try_recv() {
                Ok(Ok(run)) => self.buffered = run.into(),
                Ok(Err(e)) => return Err(e),
                Err(_) => return Ok(None),
            }
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Order matters: raise the flag first so a fetcher that is *about*
        // to probe again stops, then drop the receiver so a fetcher parked
        // on a full queue fails its blocked send and exits. Both paths
        // converge without ever re-entering the send loop.
        self.shutdown.store(true, Ordering::Release);
        drop(self.rx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// What the last completed request from a node reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeLast {
    /// No completion yet.
    Unknown,
    /// Returned chunks.
    Chunks,
    /// Exhausted with nothing to give, bag not at end-of-file there.
    Empty,
    /// End-of-file: sealed and exhausted. The node is done for good.
    Eof,
    /// Unreachable (node down / all its replicas down).
    Down,
}

/// How long the collector blocks on one connection when no completion is
/// ready anywhere — short, so top-up latency stays bounded.
const PUMP_WAIT: Duration = Duration::from_micros(200);

/// Resubmission budget for one logical probe: how many times a request
/// whose reply never arrives is retransmitted (under its original
/// sequence number, so the server dedup window replays rather than
/// re-executes) before the node is written off as unreachable.
const PREFETCH_ATTEMPTS: u32 = 8;

/// One in-flight `RemoveBatch` probe against one node.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    token: CompletionToken,
    /// Cluster sealed flag read before the ORIGINAL submit (retries keep
    /// it: a retransmission is the same logical request).
    sealed_at_submit: bool,
    /// The probe's sequence number, reused by every retransmission.
    seq: u64,
    /// When the current attempt went on the wire.
    issued: Instant,
    /// Attempts made so far (≥ 1 once in flight).
    attempts: u32,
}

/// The fetch loop: keeps up to `min(b, m)` `RemoveBatch` requests of
/// `max(1, b / min(b, m))` chunks outstanding against distinct nodes and
/// collects completions out of order.
fn fetch(
    mut client: BagClient,
    b: usize,
    tx: &Sender<Result<Vec<Chunk>, StorageError>>,
    shutdown: &AtomicBool,
    ended: &AtomicBool,
) {
    let bag = client.bag;
    let replicated = client.cluster().replication() > 1;
    let mut m = 0;
    let mut target = 1;
    let mut max_n = b;
    // At most one outstanding request per node (the paper spreads the `b`
    // requests over distinct nodes); `tokens[i]` is node i's in-flight
    // request plus the cluster sealed flag captured *at submit time* —
    // sealed-before-probe is what makes an `exhausted && sealed`
    // conclusion safe (a sealed bag rejects inserts, so nothing can land
    // after a pre-probe sealed read; a post-completion read would race a
    // concurrent insert-then-seal and drop the inserted chunk).
    let mut tokens: Vec<Option<InFlight>> = Vec::new();
    let mut last: Vec<NodeLast> = Vec::new();
    let mut outstanding = 0usize;
    let mut empty_streak = 0usize;
    let mut backoff_us = 10u64;
    // The chunks the current sweep collected for the consumer.
    let mut run: Vec<Chunk> = Vec::new();

    macro_rules! fail {
        ($e:expr) => {{
            // Chunks already consumed at storage still reach the
            // consumer, ahead of the error.
            if !run.is_empty() {
                let _ = tx.send(Ok(std::mem::take(&mut run)));
            }
            let _ = tx.send(Err($e));
            ended.store(true, Ordering::Release);
            return;
        }};
    }

    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        // Pick up nodes that joined mid-stream. New nodes start Unknown,
        // so the top-up probes them like any other node.
        client.refresh_membership();
        let grown = client.remove_cursor.len();
        if grown > m {
            tokens.resize(grown, None);
            last.resize(grown, NodeLast::Unknown);
            m = grown;
            target = b.min(m).max(1);
            max_n = (b / target).max(1);
        }
        let port = &mut client.port;

        // Top up: issue requests to non-EOF nodes without one in flight,
        // following the cyclic placement order. One sealed read serves
        // the whole top-up: it precedes every probe issued after it.
        let mut sealed = None;
        let mut scanned = 0;
        while outstanding < target && scanned < m {
            let node = client.remove_cursor.next_node();
            scanned += 1;
            if tokens[node].is_some() || last[node] == NodeLast::Eof {
                continue;
            }
            let sealed_at_submit = match sealed {
                Some(s) => s,
                None => match port.cluster().is_sealed(bag) {
                    Ok(s) => *sealed.insert(s),
                    Err(e) => fail!(e),
                },
            };
            match port.conns[node].submit_tracked(remove_request(bag, node, max_n)) {
                Ok((t, seq)) => {
                    tokens[node] = Some(InFlight {
                        token: t,
                        sealed_at_submit,
                        seq,
                        issued: Instant::now(),
                        attempts: 1,
                    });
                    outstanding += 1;
                }
                // A dead connection marks the node unreachable, like a
                // down node; the all-down check below surfaces the error
                // once nothing is left to serve from.
                Err(StorageError::Disconnected(_)) => last[node] = NodeLast::Down,
                Err(e) => fail!(e),
            }
        }

        if outstanding == 0 && last.iter().all(|&s| s == NodeLast::Eof) {
            // Nothing in flight and every node is at end-of-file: the bag
            // is drained. (Mixtures involving unreachable nodes fall
            // through to the classification below.)
            ended.store(true, Ordering::Release);
            return;
        }

        // Collect completions (any order) into one run for the consumer.
        let mut completed = 0usize;
        for node in 0..m {
            let Some(inflight) = tokens[node] else {
                continue;
            };
            let reply = port.conns[node].try_poll(inflight.token);
            if !matches!(reply, Ok(None)) {
                tokens[node] = None;
                outstanding -= 1;
                completed += 1;
            }
            // A node whose answer is not final is served through its
            // replica set: failover when it is unreachable, and with
            // replication an empty end-of-stream is confirmed there.
            let mut via_replicas = false;
            match reply {
                Ok(None) => {
                    // No reply yet. A probe outstanding past the port's
                    // request timeout is presumed lost (lossy transport or
                    // wedged server): cancel the attempt and retransmit it
                    // under the SAME sequence number — the server's dedup
                    // window either executes it (original lost) or replays
                    // the recorded reply, chunks included (reply lost), so
                    // nothing is ever consumed twice or dropped. Without
                    // this sweep a single lost message would hang the
                    // stream forever.
                    if inflight.issued.elapsed() < port.timeout {
                        continue;
                    }
                    port.conns[node].cancel(inflight.token);
                    tokens[node] = None;
                    outstanding -= 1;
                    if inflight.attempts >= PREFETCH_ATTEMPTS {
                        last[node] = NodeLast::Down;
                        continue;
                    }
                    match port.conns[node].resubmit(remove_request(bag, node, max_n), inflight.seq)
                    {
                        Ok(t) => {
                            tokens[node] = Some(InFlight {
                                token: t,
                                issued: Instant::now(),
                                attempts: inflight.attempts + 1,
                                ..inflight
                            });
                            outstanding += 1;
                        }
                        Err(StorageError::Disconnected(_)) => last[node] = NodeLast::Down,
                        Err(e) => fail!(e),
                    }
                }
                Ok(Some(StorageResponse::Removed(batch))) => {
                    if !batch.chunks.is_empty() {
                        last[node] = NodeLast::Chunks;
                        if replicated {
                            // Keep the backup pointers in step (the raw
                            // node request bypasses the port's mirror).
                            mirror(port, node, bag, &batch.tags);
                        }
                        run.extend(batch.chunks);
                    } else if batch.eof || (batch.exhausted && inflight.sealed_at_submit) {
                        // The cluster-level sealed flag is the end-of-bag
                        // authority, read BEFORE the probe was issued: a
                        // sealed bag rejects inserts, so an exhausted
                        // stream under a pre-probe seal is final — at
                        // this replica.
                        last[node] = NodeLast::Eof;
                        via_replicas = replicated;
                    } else {
                        last[node] = NodeLast::Empty;
                    }
                }
                Ok(Some(_)) => fail!(StorageError::Disconnected(port.conns[node].node())),
                Err(
                    StorageError::NodeDown(_)
                    | StorageError::AllReplicasDown(_)
                    | StorageError::Disconnected(_),
                ) => {
                    last[node] = NodeLast::Down;
                    via_replicas = replicated;
                }
                Err(e) => fail!(e),
            }
            if via_replicas {
                // The synchronous port path probes every replica, claims
                // a fallback serve and mirrors it (rare; correctness
                // first).
                match port.remove_batch(node, bag, max_n) {
                    Ok(batch) if !batch.chunks.is_empty() => {
                        last[node] = NodeLast::Chunks;
                        run.extend(batch.chunks);
                    }
                    Ok(batch) if batch.eof => last[node] = NodeLast::Eof,
                    Ok(_) => last[node] = NodeLast::Empty,
                    Err(StorageError::AllReplicasDown(_)) => last[node] = NodeLast::Down,
                    Err(e) => fail!(e),
                }
            }
        }
        let delivered = !run.is_empty();
        // One handoff per sweep. A failed send means the consumer dropped
        // the handle; exit immediately.
        if delivered && tx.send(Ok(std::mem::take(&mut run))).is_err() {
            return;
        }

        // A whole cluster of unreachable nodes is an error, not a drain —
        // parity with `BagClient::try_remove_batch`.
        if last.iter().all(|&s| s == NodeLast::Down) {
            fail!(StorageError::AllReplicasDown(bag));
        }
        // Sealed bag with every node at end-of-file or unreachable: the
        // reachable data is exhausted. (Chunks marooned on a down node
        // without replicas are unreachable until it recovers.)
        if last
            .iter()
            .all(|&s| matches!(s, NodeLast::Eof | NodeLast::Down))
        {
            match client.cluster().is_sealed(bag) {
                Ok(true) => {
                    ended.store(true, Ordering::Release);
                    return;
                }
                Ok(false) => {}
                Err(e) => fail!(e),
            }
        }

        if delivered {
            empty_streak = 0;
            backoff_us = 10;
        } else if completed > 0 {
            empty_streak += completed;
            if empty_streak >= m {
                // A full round of empty completions: the bag is (locally)
                // empty but unsealed. Back off before probing again.
                std::thread::sleep(Duration::from_micros(backoff_us));
                backoff_us = (backoff_us * 2).min(1000);
                empty_streak = 0;
            }
        } else if let Some(node) = (0..m).find(|&n| tokens[n].is_some()) {
            // Nothing completed this sweep: block briefly on one in-flight
            // connection instead of spinning.
            client.port.conns[node].pump(PUMP_WAIT);
        } else {
            // Nothing in flight (unreachable nodes being re-probed).
            std::thread::sleep(Duration::from_micros(backoff_us));
            backoff_us = (backoff_us * 2).min(1000);
        }
    }
}

/// The probe of `node`'s own stream.
fn remove_request(bag: BagId, node: usize, max_n: usize) -> StorageRequest {
    StorageRequest::RemoveBatch {
        bag,
        origin: node as u32,
        max_n,
    }
}

/// Marks the chunks the pipeline just consumed from `primary`'s own
/// stream consumed on the backups too, by identity tag: all mirrors
/// submitted first, acks collected afterwards (one overlapped round
/// trip, not `r − 1`). Unreachable replicas are skipped, as in
/// [`RpcPort::remove_batch`].
fn mirror(port: &mut RpcPort, primary: usize, bag: BagId, tags: &[crate::node::TagSegment]) {
    let m = port.conns.len();
    let r = port.cluster().replication();
    let origin = primary as u32;
    let timeout = port.timeout;
    let request = StorageRequest::MirrorConsumed {
        bag,
        origin,
        tags: tags.to_vec(),
    };
    #[allow(clippy::type_complexity)]
    let tokens: Vec<(usize, Result<(CompletionToken, u64), StorageError>)> = (1..r)
        .map(|k| {
            let idx = (primary + k) % m;
            let t = port.conns[idx].submit_tracked(request.clone());
            (idx, t)
        })
        .collect();
    for (idx, token) in tokens {
        let _ = token.and_then(|(t, seq)| port.conns[idx].wait_retrying(t, seq, &request, timeout));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, StorageCluster};
    use crate::endpoint::StorageEndpoint;

    fn chunk(v: u64) -> Chunk {
        Chunk::from_vec(v.to_le_bytes().to_vec())
    }

    #[test]
    fn prefetcher_drains_bag() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 1);
        for i in 0..100 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 2), 10);
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn pipelined_prefetcher_drains_bag() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut producer = ep.client(bag, 1);
        let chunks: Vec<Chunk> = (0..100).map(chunk).collect();
        producer.insert_batch(&chunks).unwrap();
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(ep.client(bag, 2), 8);
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn pipelined_prefetcher_sees_concurrent_producer() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut pf = Prefetcher::spawn(ep.client(bag, 3), 4);
        let cluster2 = cluster.clone();
        let producer = std::thread::spawn(move || {
            let mut p = BagClient::new(cluster2.clone(), bag, 4);
            for i in 0..50 {
                p.insert(chunk(i)).unwrap();
            }
            cluster2.seal_bag(bag).unwrap();
        });
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        producer.join().unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn pipelined_prefetcher_with_replication_mirrors() {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut producer = ep.client(bag, 5);
        let chunks: Vec<Chunk> = (0..60).map(chunk).collect();
        producer.insert_batch(&chunks).unwrap();
        cluster.seal_bag(bag).unwrap();
        {
            let mut pf = Prefetcher::spawn(ep.client(bag, 6), 4);
            let mut n = 0;
            while let Some(_c) = pf.recv().unwrap() {
                n += 1;
            }
            assert_eq!(n, 60);
        }
        // The pipeline mirrored its pointer advances: failing every
        // primary now serves nothing a second time.
        for i in 0..3 {
            cluster.node(i).recover();
        }
        cluster.node(0).fail();
        let rest = cluster.remove_batch(0, bag, 100).unwrap();
        assert!(rest.chunks.is_empty() && rest.eof, "no chunk served twice");
    }

    #[test]
    fn pipelined_prefetcher_picks_up_joined_node() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut pf = Prefetcher::spawn(ep.client(bag, 3), 4);
        // A node joins while the prefetcher is already streaming; the
        // producer (fresh client) spreads chunks over all three nodes.
        let idx = ep.add_node();
        let mut producer = ep.client(bag, 4);
        let before = cluster.node(idx).sample(bag).unwrap().total_chunks;
        assert_eq!(before, 0);
        for i in 0..60 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        // All 60 delivered — including the joined node's share, which the
        // prefetcher can only reach by refreshing its membership.
        assert_eq!(n, 60);
    }

    #[test]
    fn prefetcher_pipelines_concurrent_producer() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 3), 4);
        let cluster2 = cluster.clone();
        let t = std::thread::spawn(move || {
            let mut p = BagClient::new(cluster2.clone(), bag, 4);
            for i in 0..50 {
                p.insert(chunk(i)).unwrap();
            }
            cluster2.seal_bag(bag).unwrap();
        });
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        t.join().unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn dropping_prefetcher_mid_stream_does_not_hang() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 5);
        for i in 0..1000 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 6), 2);
        let _first = pf.recv().unwrap();
        drop(pf); // Must join cleanly even with 998 chunks unread.
    }

    #[test]
    fn dropping_pipelined_prefetcher_mid_stream_does_not_hang() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut producer = ep.client(bag, 5);
        let chunks: Vec<Chunk> = (0..1000).map(chunk).collect();
        producer.insert_batch(&chunks).unwrap();
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(ep.client(bag, 6), 3);
        let _first = pf.recv().unwrap();
        drop(pf);
    }

    #[test]
    fn repeated_drop_mid_stream_is_race_free() {
        // Regression scope for the old drain-then-swap shutdown race:
        // spawn and drop many prefetchers at random consumption depths;
        // every drop must join (the test would hang, not fail, if the
        // fetcher missed the shutdown signal).
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 7);
        for i in 0..500 {
            producer.insert(chunk(i)).unwrap();
        }
        for round in 0..50 {
            let mut pf = Prefetcher::spawn(
                BagClient::new(cluster.clone(), bag, 100 + round),
                1 + (round as usize % 4),
            );
            for _ in 0..(round % 3) {
                let _ = pf.try_recv();
            }
            drop(pf);
        }
    }

    #[test]
    fn two_prefetchers_share_exactly_once() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 7);
        for i in 0..200 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut a = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 8), 5);
        let mut b = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 9), 5);
        let ta = std::thread::spawn(move || {
            let mut n = 0;
            while let Some(_c) = a.recv().unwrap() {
                n += 1;
            }
            n
        });
        let tb = std::thread::spawn(move || {
            let mut n = 0;
            while let Some(_c) = b.recv().unwrap() {
                n += 1;
            }
            n
        });
        let total = ta.join().unwrap() + tb.join().unwrap();
        assert_eq!(total, 200);
    }

    #[test]
    fn error_propagates() {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 10);
        producer.insert(chunk(1)).unwrap();
        cluster.node(0).fail();
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 11), 2);
        assert!(pf.recv().is_err());
    }

    /// Chunks removed from storage but not yet returned by `recv`, after
    /// the fetcher has had time to run ahead of a stalled consumer.
    fn unreceived_after_stall(cluster: &Arc<StorageCluster>, bag: BagId, pf: &mut Prefetcher) {
        let b = 8;
        let total = cluster.sample_bag(bag).unwrap().total_chunks;
        for received in [0u64, 1] {
            if received == 1 {
                assert!(pf.recv().unwrap().is_some());
            }
            std::thread::sleep(Duration::from_millis(100));
            let removed = total - cluster.sample_bag(bag).unwrap().remaining_chunks;
            assert!(
                removed - received <= ((HANDOFF_RUNS + 2) * b) as u64,
                "{} chunks removed but not received, bound {}",
                removed - received,
                (HANDOFF_RUNS + 2) * b
            );
        }
    }

    fn filled_bag(m: usize, replication: usize, n: u64) -> (Arc<StorageCluster>, BagId) {
        let cluster = StorageCluster::new(m, ClusterConfig { replication });
        let bag = cluster.create_bag();
        let chunks: Vec<Chunk> = (0..n).map(chunk).collect();
        BagClient::new(cluster.clone(), bag, 1)
            .insert_batch(&chunks)
            .unwrap();
        cluster.seal_bag(bag).unwrap();
        (cluster, bag)
    }

    #[test]
    fn prefetch_depth_stays_within_bound_inline() {
        // One sweep over m = b nodes may remove at most b chunks, not m·b:
        // what the fetcher holds back stays visible to the master's
        // remaining-work samples.
        let (cluster, bag) = filled_bag(8, 1, 1000);
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 2), 8);
        unreceived_after_stall(&cluster, bag, &mut pf);
    }

    #[test]
    fn prefetch_depth_stays_within_bound_over_channel() {
        let (cluster, bag) = filled_bag(8, 1, 1000);
        let ep = StorageEndpoint::channel(cluster.clone());
        let mut pf = Prefetcher::spawn(ep.client(bag, 2), 8);
        unreceived_after_stall(&cluster, bag, &mut pf);
        drop(pf);
        ep.shutdown();
    }

    /// A chunk stored only at the backup (its primary was down during the
    /// insert, then came back with a log that never saw it) must still be
    /// delivered: the primary's empty end-of-stream is not authoritative.
    fn drains_chunk_stranded_on_backup(
        client: impl FnOnce(&Arc<StorageCluster>, BagId) -> BagClient,
    ) {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        cluster.node(0).fail();
        cluster.insert(0, bag, chunk(7)).unwrap(); // lands at backup 1 only
        cluster.node(0).recover();
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(client(&cluster, bag), 4);
        let mut got = Vec::new();
        while let Some(c) = pf.recv().unwrap() {
            got.push(c);
        }
        assert_eq!(got, vec![chunk(7)], "the stranded chunk was dropped");
    }

    #[test]
    fn prefetcher_drains_chunk_stranded_on_backup_inline() {
        drains_chunk_stranded_on_backup(|cluster, bag| BagClient::new(cluster.clone(), bag, 2));
    }

    #[test]
    fn prefetcher_drains_chunk_stranded_on_backup_over_channel() {
        let mut endpoint = None;
        drains_chunk_stranded_on_backup(|cluster, bag| {
            endpoint
                .insert(StorageEndpoint::channel(cluster.clone()))
                .client(bag, 2)
        });
        endpoint.expect("endpoint built").shutdown();
    }

    #[test]
    fn pipelined_error_propagates_on_all_down() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut producer = ep.client(bag, 12);
        producer.insert(chunk(1)).unwrap();
        cluster.node(0).fail();
        cluster.node(1).fail();
        let mut pf = Prefetcher::spawn(ep.client(bag, 13), 4);
        assert!(matches!(
            pf.recv(),
            Err(StorageError::AllReplicasDown(_) | StorageError::NodeDown(_))
        ));
    }
}
