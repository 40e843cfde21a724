//! Property pin for the merge spill contract (`merges` module doc):
//! a bounded [`KeyedMerge`] must produce an output chunk stream
//! byte-identical to the unbounded in-memory path at *any* memory budget
//! — including budget 0, which spills after every input chunk — for any
//! chunk size and any skew of keys across partials. The unbounded path
//! itself takes a k-way run merge when every partial is key-sorted and a
//! hash table otherwise; both must emit the same bytes.

use hurricane_common::BagId;
use hurricane_core::merges::KeyedMerge;
use hurricane_core::task::{BagReader, BagWriter, SpillSink};
use hurricane_core::{EngineError, MergeLogic};
use hurricane_storage::{BagClient, ClusterConfig, StorageCluster};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::Arc;

/// Minimal spill sink over the test cluster: runs pinned to node 0 so
/// their chunks read back in insertion order.
struct PinnedSink {
    cluster: Arc<StorageCluster>,
    chunk_size: usize,
    seed: u64,
}

impl SpillSink for PinnedSink {
    fn create_run(&mut self) -> Result<BagWriter, EngineError> {
        let bag = self.cluster.create_bag();
        self.seed += 1;
        let client = BagClient::new(self.cluster.clone(), bag, self.seed).with_pinned_node(0);
        Ok(BagWriter::open_batched_client(client, self.chunk_size, 1))
    }

    fn open_run(&mut self, bag: BagId) -> Result<BagReader, EngineError> {
        self.cluster.seal_bag(bag)?;
        self.seed += 1;
        Ok(BagReader::open(
            self.cluster.clone(),
            bag,
            self.seed,
            1,
            None,
        ))
    }

    fn release_run(&mut self, bag: BagId) -> Result<(), EngineError> {
        self.cluster.collect_bag(bag)?;
        Ok(())
    }
}

/// Writes each partial's records into a sealed bag and returns readers.
fn build_partials(cluster: &Arc<StorageCluster>, parts: &[Vec<(u32, u64)>]) -> Vec<BagReader> {
    parts
        .iter()
        .enumerate()
        .map(|(i, recs)| {
            let bag = cluster.create_bag();
            let mut w = BagWriter::open(cluster.clone(), bag, i as u64, 256);
            for rec in recs {
                w.write_record(rec).unwrap();
            }
            w.flush().unwrap();
            cluster.seal_bag(bag).unwrap();
            BagReader::open(cluster.clone(), bag, 1000 + i as u64, 4, None)
        })
        .collect()
}

/// Seals `bag` and returns its chunks' bytes.
fn chunks_of(cluster: &Arc<StorageCluster>, bag: BagId) -> Vec<Vec<u8>> {
    cluster.seal_bag(bag).unwrap();
    cluster
        .snapshot_bag(bag)
        .unwrap()
        .iter()
        .map(|c| c.bytes().to_vec())
        .collect()
}

/// Runs `merge` unbounded over `parts`; returns the output bag.
fn merge_plain<M: MergeLogic>(
    cluster: &Arc<StorageCluster>,
    merge: &M,
    parts: &[Vec<(u32, u64)>],
    chunk_size: usize,
) -> BagId {
    let mut readers = build_partials(cluster, parts);
    let bag = cluster.create_bag();
    let mut out = BagWriter::open(cluster.clone(), bag, 77, chunk_size);
    merge.merge(0, &mut readers, &mut out).unwrap();
    out.flush().unwrap();
    bag
}

/// Runs `merge` unbounded and bounded over identical inputs; asserts the
/// output chunk streams are byte-equal.
fn assert_spill_agrees<M: MergeLogic>(
    merge: &M,
    parts: &[Vec<(u32, u64)>],
    budget: u64,
    chunk_size: usize,
) -> Result<(), proptest::TestCaseError> {
    let cluster = StorageCluster::new(2, ClusterConfig::default());
    let plain_bag = merge_plain(&cluster, merge, parts, chunk_size);

    let mut readers = build_partials(&cluster, parts);
    let bounded_bag = cluster.create_bag();
    let mut out = BagWriter::open(cluster.clone(), bounded_bag, 77, chunk_size);
    let mut sink = PinnedSink {
        cluster: cluster.clone(),
        chunk_size,
        seed: 9000,
    };
    merge
        .merge_bounded(0, &mut readers, &mut out, budget, &mut sink)
        .unwrap();
    out.flush().unwrap();

    prop_assert_eq!(
        chunks_of(&cluster, plain_bag),
        chunks_of(&cluster, bounded_bag),
        "budget {} chunk_size {} diverged",
        budget,
        chunk_size
    );
    Ok(())
}

/// Partials with strictly ascending unique keys — the shape every clone
/// of an iterative job writes — so an unbounded `merge` takes the run
/// path. Partials overlap on a shared key range, and some are empty.
#[derive(Debug)]
struct SortedPartials;

impl Strategy for SortedPartials {
    type Value = Vec<Vec<(u32, u64)>>;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let keys = rng.below(320) as u32;
        (0..1 + rng.below(4))
            .map(|_| {
                let sparsity = 1 + rng.below(6);
                let mut part = Vec::new();
                for k in 0..keys {
                    if rng.below(sparsity) == 0 {
                        part.push((k, rng.next_u64()));
                    }
                }
                part
            })
            .collect()
    }
}

/// Shuffles each partial's records (Fisher-Yates under `seed`) so that
/// its first two records descend, which sends `merge` to the hash path.
fn shuffled(parts: &[Vec<(u32, u64)>], seed: u64) -> Vec<Vec<(u32, u64)>> {
    let mut rng = TestRng::new(seed);
    parts
        .iter()
        .map(|p| {
            let mut p = p.clone();
            for i in (1..p.len()).rev() {
                p.swap(i, rng.below(i as u64 + 1) as usize);
            }
            if p.len() >= 2 && p[0].0 < p[1].0 {
                p.swap(0, 1);
            }
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spilled_merge_agrees_with_in_memory(
        parts in prop::collection::vec(
            prop::collection::vec((0u32..64, any::<u64>()), 0..160),
            1..4,
        ),
        budget in 0u64..1500,
        chunk_size in 48usize..320,
        folding in prop::bool::ANY,
    ) {
        // Both keyed merge logics — the owned combiner and the in-place
        // borrowed fold — under the same associative operation.
        if folding {
            let merge = KeyedMerge::<u32, u64, _>::folding(|acc, v: u64| {
                *acc = acc.wrapping_add(v)
            });
            assert_spill_agrees(&merge, &parts, budget, chunk_size)?;
        } else {
            let merge =
                KeyedMerge::<u32, u64, _>::new(|a: u64, b: u64| a.wrapping_add(b));
            assert_spill_agrees(&merge, &parts, budget, chunk_size)?;
        }
    }

    #[test]
    fn spill_every_record_still_agrees(
        parts in prop::collection::vec(
            prop::collection::vec((0u32..16, any::<u64>()), 1..80),
            1..3,
        ),
        chunk_size in 48usize..128,
    ) {
        // Budget 0: the table drains after every chunk — the worst case
        // the ISSUE calls "spill every record".
        let merge = KeyedMerge::<u32, u64, _>::new(|a: u64, b: u64| a.wrapping_add(b));
        assert_spill_agrees(&merge, &parts, 0, chunk_size)?;
    }

    #[test]
    fn sorted_partials_agree_with_spill(
        parts in SortedPartials,
        budget in 0u64..1500,
        chunk_size in 48usize..320,
    ) {
        // The run path against the bounded table-and-spill path.
        let merge = KeyedMerge::<u32, u64, _>::folding(|acc, v: u64| {
            *acc = acc.wrapping_add(v)
        });
        assert_spill_agrees(&merge, &parts, budget, chunk_size)?;
    }

    #[test]
    fn run_and_table_paths_fold_in_the_same_order(
        parts in SortedPartials,
        seed in any::<u64>(),
        chunk_size in 48usize..320,
    ) {
        // An order-sensitive fold: equal keys must fold in partial-index
        // order on both paths for the bytes to match.
        let merge = KeyedMerge::<u32, u64, _>::folding(|acc, v: u64| {
            *acc = acc.wrapping_mul(31).wrapping_add(v)
        });
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let runs = merge_plain(&cluster, &merge, &parts, chunk_size);
        let table = merge_plain(&cluster, &merge, &shuffled(&parts, seed), chunk_size);
        prop_assert_eq!(chunks_of(&cluster, runs), chunks_of(&cluster, table));
    }
}
