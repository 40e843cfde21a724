//! Laptop-scale comparison on the *real* engines: Hurricane (cloning
//! on/off) vs the real static-partitioning baseline, on skewed ClickLog.
//!
//! The non-simulated counterpart of Figure 12's setup: the same workload
//! and skew knob, executed on threads. Each cell is one wall-clock shot
//! of deploy + run + read, with every engine's result checked against
//! the reference. At its 400k records a job finishes in tens of
//! milliseconds and usually no clone fires (the `clones` column), so
//! this binary measures per-job fixed cost and correctness across skew,
//! not whether cloning closes the skew gap. For makespan — repeated
//! runs, medians, clone gain over hurricane-nc and a per-layer split at
//! a size where clones fire — use `perfbench`
//! (`cargo run --release --manifest-path perfbench/Cargo.toml`).
//!
//! `--merge-memory-budget BYTES` caps each merge output's accumulator
//! table (`HurricaneConfig::merge_memory_budget`): past the budget the
//! keyed merge drains into sorted scratch runs on the storage tier and
//! re-folds them, so the comparison can be re-run with spilling merges
//! (output is byte-identical at any setting; only memory/IO trade off).
//! `HURRICANE_MERGE_MEMORY_BUDGET` / `HURRICANE_SPILL_THRESHOLD_BYTES`
//! apply too (`HurricaneConfig::with_env_overrides`); the flag wins.

use hurricane_apps::clicklog::ClickLogJob;
use hurricane_baseline::{mapreduce, split_input};
use hurricane_core::HurricaneConfig;
use hurricane_storage::{ClusterConfig, StorageCluster};
use hurricane_workloads::clicklog::{region_of, ClickLogGen, ClickLogSpec};
use std::time::{Duration, Instant};

const RECORDS: u64 = 400_000;
const REGIONS: usize = 8;
const NUM_IPS: usize = 1 << 16;

fn config(cloning: bool, merge_memory_budget: u64) -> HurricaneConfig {
    HurricaneConfig {
        compute_nodes: 4,
        worker_slots: 2,
        chunk_size: 32 * 1024,
        clone_interval: Duration::from_millis(5),
        master_poll: Duration::from_millis(1),
        cloning_enabled: cloning,
        ..Default::default()
    }
    .with_env_overrides()
    .with_merge_memory_budget(merge_memory_budget)
}

fn parse_budget(mut argv: std::env::Args) -> Result<u64, String> {
    let _ = argv.next(); // program name
    let mut budget = HurricaneConfig::default()
        .with_env_overrides()
        .merge_memory_budget;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--merge-memory-budget" => {
                let v = argv
                    .next()
                    .ok_or("--merge-memory-budget needs a value (bytes)")?;
                budget = v
                    .parse()
                    .map_err(|_| format!("bad --merge-memory-budget {v:?}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(budget)
}

fn main() {
    let budget = match parse_budget(std::env::args()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("real_engine: {e}\nusage: real_engine [--merge-memory-budget BYTES]");
            std::process::exit(2);
        }
    };
    println!("Real-engine ClickLog: {RECORDS} records, {REGIONS} regions, 4 nodes x 2 slots");
    if budget != u64::MAX {
        println!("merge memory budget: {budget} bytes (keyed merges spill past this)");
    }
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>8}",
        "skew", "hurricane", "hurricane-nc", "static", "clones"
    );
    for skew in [0.0, 0.5, 1.0] {
        let input: Vec<u32> = ClickLogGen::new(ClickLogSpec {
            num_ips: NUM_IPS,
            regions: REGIONS,
            skew,
            records: RECORDS,
            seed: 0xD00D,
        })
        .collect();
        let job = ClickLogJob {
            regions: REGIONS,
            num_ips: NUM_IPS,
        };
        let reference = job.reference(input.iter().copied());

        let t = Instant::now();
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let (counts, report) = job
            .run(cluster, config(true, budget), input.iter().copied())
            .unwrap();
        let hurricane = t.elapsed();
        assert_eq!(counts, reference, "hurricane result mismatch");

        let t = Instant::now();
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let (counts, _) = job
            .run(cluster, config(false, budget), input.iter().copied())
            .unwrap();
        let nc = t.elapsed();
        assert_eq!(counts, reference, "hurricane-nc result mismatch");

        let t = Instant::now();
        let (results, static_report) = mapreduce(
            split_input(input.clone(), 8),
            REGIONS,
            4,
            |ip: u32, emit: &mut dyn FnMut(u32, u32)| emit(region_of(ip, NUM_IPS, REGIONS), ip),
            |region: &u32, ips: Vec<u32>| {
                let mut set = hurricane_apps::BitSet::new();
                for ip in ips {
                    set.set(ip);
                }
                (*region, set.count())
            },
        );
        let staticb = t.elapsed();
        let mut by_region = vec![0u64; REGIONS];
        for (r, c) in results.into_iter().flatten() {
            by_region[r as usize] = c;
        }
        assert_eq!(by_region, reference, "static baseline result mismatch");

        println!(
            "{:>6} {:>12.1}ms {:>12.1}ms {:>12.1}ms {:>8}  (static reduce imbalance {:.2}x)",
            format!("s={skew}"),
            hurricane.as_secs_f64() * 1e3,
            nc.as_secs_f64() * 1e3,
            staticb.as_secs_f64() * 1e3,
            report.total_clones,
            static_report.reduce_imbalance,
        );
    }
}
