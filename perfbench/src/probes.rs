//! Replay probes on a workload's own records: the format layer's encode
//! (`ChunkWriter`) and decode (`for_each_view`) rates, and the storage
//! layer's `insert_batch`/`remove_batch` rates on a fresh cluster.

use crate::workloads::{SourceRecords, STORAGE_NODES};
use hurricane_format::{for_each_view, Chunk, ChunkWriter, Record, RecordView};
use hurricane_storage::{ClusterConfig, StorageCluster};
use std::hint::black_box;
use std::time::Instant;

/// One probe pass's rates.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRates {
    /// Million records encoded per second.
    pub encode_mrec_per_s: f64,
    /// Million records decoded per second.
    pub decode_mrec_per_s: f64,
    /// MB (10^6 bytes) inserted per second.
    pub insert_mb_per_s: f64,
    /// MB removed per second.
    pub remove_mb_per_s: f64,
}

/// Runs one pass of every probe over `records` at `chunk_size`, moving
/// `batch` chunks per storage call (the engine's batch factor).
pub fn probe(records: &SourceRecords<'_>, chunk_size: usize, batch: usize) -> ProbeRates {
    match records {
        SourceRecords::Ips(r) => probe_typed(r, chunk_size, batch),
        SourceRecords::Edges(r) => probe_typed(r, chunk_size, batch),
        SourceRecords::Tuples(r) => probe_typed(r, chunk_size, batch),
    }
}

fn probe_typed<T: Record + RecordView>(
    records: &[T],
    chunk_size: usize,
    batch: usize,
) -> ProbeRates {
    let n = records.len() as f64;
    let t = Instant::now();
    let mut w = ChunkWriter::<T>::new(chunk_size);
    let mut chunks: Vec<Chunk> = Vec::new();
    for r in records {
        chunks.extend(w.push(r).expect("workload records fit a chunk"));
    }
    chunks.extend(w.finish());
    let encode_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut seen = 0u64;
    for c in &chunks {
        seen += for_each_view::<T, _>(c, |v| {
            black_box(v);
        })
        .expect("chunks this probe encoded decode");
    }
    let decode_s = t.elapsed().as_secs_f64();
    assert_eq!(seen, records.len() as u64, "decode saw every record");

    let (insert_s, remove_s, mb) = storage_pass(&chunks, batch);
    ProbeRates {
        encode_mrec_per_s: n / 1e6 / encode_s,
        decode_mrec_per_s: n / 1e6 / decode_s,
        insert_mb_per_s: mb / insert_s,
        remove_mb_per_s: mb / remove_s,
    }
}

/// Inserts `chunks` round-robin across a fresh cluster's nodes in
/// batches, seals the bag, then removes batches until every node reports
/// end of bag. Returns insert seconds, remove seconds and the MB moved.
fn storage_pass(chunks: &[Chunk], batch: usize) -> (f64, f64, f64) {
    let cluster = StorageCluster::new(STORAGE_NODES, ClusterConfig::default());
    let bag = cluster.create_bag();
    let bytes: usize = chunks.iter().map(Chunk::len).sum();

    let t = Instant::now();
    for (i, run) in chunks.chunks(batch).enumerate() {
        cluster
            .insert_batch(i % STORAGE_NODES, bag, run)
            .expect("insert into a healthy in-memory cluster");
    }
    let insert_s = t.elapsed().as_secs_f64();
    cluster.seal_bag(bag).expect("seal a live bag");

    let t = Instant::now();
    let mut removed = 0usize;
    let mut done = [false; STORAGE_NODES];
    while !done.iter().all(|&d| d) {
        for (node, d) in done.iter_mut().enumerate().filter(|(_, d)| !**d) {
            let got = cluster
                .remove_batch(node, bag, batch)
                .expect("remove from a healthy in-memory cluster");
            removed += got.chunks.len();
            *d = got.eof;
            black_box(got.chunks);
        }
    }
    let remove_s = t.elapsed().as_secs_f64();
    assert_eq!(removed, chunks.len(), "every inserted chunk came back once");
    (insert_s, remove_s, bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_round_trip_every_record() {
        let ips: Vec<u32> = (0..20_000).collect();
        let r = probe(&SourceRecords::Ips(&ips), 1024, 10);
        assert!(r.encode_mrec_per_s > 0.0 && r.decode_mrec_per_s > 0.0);
        assert!(r.insert_mb_per_s > 0.0 && r.remove_mb_per_s > 0.0);
    }
}
