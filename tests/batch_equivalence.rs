//! Batching is a schedule, not a second datapath: `batch_ops` decides how
//! many ops a thread issues per turn and nothing about how each op
//! executes. What is checked here are the invariants that follow — the
//! issue gate bounds and serializes what it says it does, for a windowed
//! batch and for a cluster-mode replay; window 1 fully serializes; deeper
//! windows keep the work and never slow the run; the baselines take every
//! turn size. (Where two schedules must give the same bytes, the cell is
//! in `tests/equivalence.rs`; behaviour across commits is pinned by the
//! `sim_digest` goldens, not by comparing paths within one commit.)

use proptest::prelude::*;

use mind::core::cluster::{MindCluster, MindConfig};
use mind::core::engine::{ClusterEngine, ClusterStep};
use mind::core::system::{AccessKind, ConsistencyModel, MemOp, MemorySystem, OpBatch};
use mind::harness::{report, ScenarioOutput, ScenarioResult, SystemSpec, WorkloadSpec};
use mind::sim::SimTime;
use mind::workloads::micro::MicroConfig;
use mind::workloads::runner::{self, RunConfig};

const BATCH_SIZES: [u64; 3] = [1, 8, 64];

fn run_cfg(batch_ops: u64) -> RunConfig {
    RunConfig {
        ops_per_thread: 1_200,
        warmup_ops_per_thread: 300,
        threads_per_blade: 2,
        ..Default::default()
    }
    .with_batch_ops(batch_ops)
}

/// Renders one turnwise MIND replay as BENCH JSON at the given turn size
/// and in-flight window depth.
fn replay_json(workload: &WorkloadSpec, batch_ops: u64, window: u32) -> String {
    let system = SystemSpec::mind_scaled(&workload.regions(), 2, ConsistencyModel::Tso);
    let mut sys = system.build();
    let mut wl = workload.build();
    let report = runner::run(sys.as_mut(), wl.as_mut(), run_cfg(batch_ops).with_window(window));
    let result = ScenarioResult {
        name: report.name.clone(),
        output: ScenarioOutput::from_report(report),
    };
    report::suite_json("batch_equivalence", &[result]).render()
}

/// Deeper windows change timing, never the work: every op still executes
/// and overlap can only shorten the run (it hides fabric latency, it
/// cannot add any).
#[test]
fn overlapped_windows_preserve_work_and_never_slow_the_run() {
    let workload = WorkloadSpec::Micro(MicroConfig {
        n_threads: 4,
        shared_pages: 2_048,
        private_pages: 256,
        ..Default::default()
    });
    let parse = |json: &str, key: &str| -> u64 {
        let tag = format!("\"{key}\": ");
        let rest = &json[json.find(&tag).expect("key present") + tag.len()..];
        rest[..rest.find([',', '\n']).unwrap()].trim().parse().unwrap()
    };
    let serialized = replay_json(&workload, 64, 1);
    let base_runtime = parse(&serialized, "runtime_ns");
    let base_ops = parse(&serialized, "total_ops");
    assert_eq!(parse(&serialized, "overlapped"), 0, "window 1 hides nothing");
    for window in [4u32, 16] {
        let overlapped = replay_json(&workload, 64, window);
        assert_eq!(parse(&overlapped, "total_ops"), base_ops, "w{window}");
        assert!(
            parse(&overlapped, "runtime_ns") <= base_runtime,
            "w{window} slowed the run"
        );
        assert!(
            parse(&overlapped, "overlapped") > 0,
            "w{window} overlapped no fabric time"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The issue gate's two invariants for one windowed batch, checked over
    /// all pairs of ops from the batch's own issue and completion records —
    /// chained (trace replay) and fixed (dispatcher quanta, including tied
    /// preset times) alike: (a) no more than `window` operations are ever
    /// in flight at once, and (b) an op that consults a directory region
    /// never issues while an op that holds that region is in flight. Issue
    /// order is an invariant of chained batches only: a fixed batch issues
    /// in ready order.
    #[test]
    fn window_bounds_inflight_ops_and_serializes_same_region(
        seed in 0u64..10_000,
        window in 2u32..8,
        n_ops in 16usize..96,
        write_ratio in 0u32..10,
        chained in prop::bool::ANY,
        fixed_step_ns in 0u64..200,
    ) {
        let mut cluster = MindCluster::new(MindConfig::small());
        let pid = cluster.exec().unwrap();
        let base = cluster.mmap(pid, 256 << 12).unwrap();
        let mut rng = mind::sim::SimRng::new(seed);
        let mut batch = if chained {
            OpBatch::chained(SimTime::from_nanos(100))
        } else {
            OpBatch::fixed()
        }
        .with_window(window);
        for i in 0..n_ops {
            batch.push(MemOp {
                // Fixed quanta preset issue times (all tied when the
                // step is 0, the service dispatcher's shape).
                at: SimTime::from_nanos(i as u64 * fixed_step_ns),
                blade: rng.gen_below(2) as u16,
                pdid: None,
                vaddr: base + (rng.gen_below(256) << 12),
                kind: if rng.gen_below(10) < write_ratio as u64 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            });
        }
        let ready: Vec<SimTime> = batch.ops().iter().map(|op| op.at).collect();
        cluster.execute_batch(SimTime::ZERO, &mut batch);
        for (i, &ready) in ready.iter().enumerate() {
            prop_assert!(batch.result(i).is_ok());
            if chained {
                prop_assert!(
                    i == 0 || batch.op(i).at >= batch.op(i - 1).at,
                    "chained issue times regressed at op {i}"
                );
            } else {
                prop_assert!(batch.op(i).at >= ready, "op {i} issued before it was ready");
            }
        }
        // The region a remote op transitioned is the one holding its page
        // after the batch: the ops touch at most 64 regions of the
        // directory, and no splitting epoch passes inside one batch.
        let dir = cluster.engine().directory();
        let region = |i: usize| {
            dir.region_of(batch.op(i).vaddr)
                .filter(|_| batch.outcome(i).remote)
        };
        for i in 0..batch.len() {
            let issued = batch.op(i).at;
            // In flight when op i issued: issued no later, completing
            // strictly later (ops issued at the same instant included).
            let in_flight = |j: usize| {
                j != i && batch.op(j).at <= issued && batch.completion(j) > issued
            };
            // (a) Op i fit in a slot.
            let others = (0..batch.len()).filter(|&j| in_flight(j)).count();
            prop_assert!(
                others < window as usize,
                "op {i} issued with {others} ops already in flight (window {window})"
            );
            // (b) Same-region transitions serialize: nothing in flight
            // held the region op i went on to consult.
            for j in (0..batch.len()).filter(|&j| in_flight(j)) {
                let holds = region(j).is_some_and(|(base, k)| {
                    batch.op(i).vaddr.wrapping_sub(base) < 1u64 << k
                });
                prop_assert!(
                    region(i).is_none() || !holds,
                    "ops {j} and {i} overlapped on region {:?}",
                    region(j)
                );
            }
        }
    }

    /// The cluster engine's two cross-thread invariants, checked from the
    /// engine's own issue/completion records over random multi-source
    /// schedules driven exactly like the runner's event loop: (a) a
    /// blade's RNIC never holds more than `nic_depth` operations at once,
    /// and (b) two operations that transitioned the same directory region
    /// never overlap in time — cluster-wide, across sources, not merely
    /// within one thread's batch.
    #[test]
    fn cluster_engine_bounds_nics_and_serializes_regions_cluster_wide(
        seed in 0u64..10_000,
        window in 1u32..6,
        nic_depth in 1u32..4,
        sources in 2u32..5,
        ops_per_source in 8usize..32,
        write_ratio in 0u32..10,
        gap_ns in 50u64..500,
    ) {
        let mut cluster = MindCluster::new(MindConfig {
            nic_depth,
            ..MindConfig::small()
        });
        let pid = cluster.exec().unwrap();
        let base = cluster.mmap(pid, 256 << 12).unwrap();
        let mut rng = mind::sim::SimRng::new(seed);
        let schedules: Vec<Vec<MemOp>> = (0..sources)
            .map(|_| {
                (0..ops_per_source)
                    .map(|_| MemOp {
                        at: SimTime::ZERO,
                        blade: rng.gen_below(2) as u16,
                        pdid: None,
                        vaddr: base + (rng.gen_below(256) << 12),
                        kind: if rng.gen_below(10) < write_ratio as u64 {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                    })
                    .collect()
            })
            .collect();
        let gap = SimTime::from_nanos(gap_ns);
        let mut eng = ClusterEngine::new(window, nic_depth, sources);
        for src in 0..sources {
            eng.seed(SimTime::ZERO, src);
        }
        struct Flight {
            at: SimTime,
            done: SimTime,
            blade: u16,
            region: Option<(u64, u8)>,
        }
        let mut pos = vec![0usize; sources as usize];
        let mut issued: Vec<Flight> = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((now, src)) = eng.next_ready() {
            prop_assert!(now >= last, "virtual time regressed");
            last = now;
            let op = schedules[src as usize][pos[src as usize]];
            let ready0 = eng.ready0(src);
            match cluster.issue_clustered(&mut eng, now, ready0, &op) {
                ClusterStep::Gated { until, nic_stall } => {
                    prop_assert!(until > now, "gated release must advance time");
                    prop_assert!(
                        nic_stall <= until.saturating_sub(now),
                        "NIC stall exceeds the whole wait"
                    );
                    eng.defer(until, src);
                }
                ClusterStep::Refused(e) => prop_assert!(false, "granted access refused: {e}"),
                ClusterStep::Issued { outcome, complete_at } => {
                    // The region a remote op transitioned is the one
                    // holding its page right after it issued.
                    let region = cluster
                        .engine()
                        .directory()
                        .region_of(op.vaddr)
                        .filter(|_| outcome.remote);
                    // (a) When this op issued, its blade's RNIC had a free
                    // entry: fewer than `nic_depth` earlier ops from *any*
                    // source were still in flight there.
                    let on_nic = issued
                        .iter()
                        .filter(|f| f.blade == op.blade && f.at <= now && f.done > now)
                        .count();
                    prop_assert!(
                        on_nic < nic_depth as usize,
                        "op on blade {} issued with {on_nic} already on its \
                         NIC (depth {nic_depth})",
                        op.blade
                    );
                    // (b) Same-region directory transitions serialize
                    // cluster-wide: any earlier op that transitioned this
                    // region — from any source — completed before this
                    // one issued.
                    if region.is_some() {
                        for f in &issued {
                            if f.region == region {
                                prop_assert!(
                                    f.done <= now,
                                    "two transitions of region {region:?} \
                                     overlapped across sources"
                                );
                            }
                        }
                    }
                    issued.push(Flight {
                        at: now,
                        done: complete_at,
                        blade: op.blade,
                        region,
                    });
                    pos[src as usize] += 1;
                    if pos[src as usize] < schedules[src as usize].len() {
                        eng.seed(now + gap, src);
                    }
                }
            }
        }
        prop_assert_eq!(
            pos,
            vec![ops_per_source; sources as usize],
            "every source drained its schedule"
        );
    }

    /// At window 1, the overlapped invariants degenerate to full
    /// serialization: every op issues at or after its predecessor's
    /// completion and nothing is ever attributed to overlap.
    #[test]
    fn window_one_fully_serializes(seed in 0u64..10_000, n_ops in 8usize..48) {
        let mut cluster = MindCluster::new(MindConfig::small());
        let pid = cluster.exec().unwrap();
        let base = cluster.mmap(pid, 64 << 12).unwrap();
        let mut rng = mind::sim::SimRng::new(seed);
        let mut batch = OpBatch::chained(SimTime::from_nanos(100)).with_window(1);
        for _ in 0..n_ops {
            batch.push(MemOp {
                at: SimTime::ZERO,
                blade: rng.gen_below(2) as u16,
                pdid: None,
                vaddr: base + (rng.gen_below(64) << 12),
                kind: AccessKind::Read,
            });
        }
        cluster.execute_batch(SimTime::ZERO, &mut batch);
        for i in 1..batch.len() {
            prop_assert!(batch.op(i).at >= batch.completion(i - 1));
            prop_assert_eq!(batch.outcome(i).latency.overlapped, SimTime::ZERO);
        }
    }
}

/// A fixed batch issues in ready order: a grant held by the region gate
/// does not hold back an independent grant queued behind it.
#[test]
fn a_region_gated_grant_does_not_block_the_grant_behind_it() {
    let mut cluster = MindCluster::new(MindConfig::small());
    let pid = cluster.exec().unwrap();
    let base = cluster.mmap(pid, 64 << 12).unwrap();
    let mut batch = OpBatch::fixed().with_window(4);
    // Pages 0 and 1 share an initial 16 KB directory region; page 32 is
    // far from it, and comes from the other blade (whose up-link the first
    // fault's request does not occupy).
    for (page, blade) in [(0u64, 0), (1, 0), (32, 1)] {
        batch.push(MemOp {
            at: SimTime::ZERO,
            blade,
            pdid: None,
            vaddr: base + (page << 12),
            kind: AccessKind::Read,
        });
    }
    cluster.execute_batch(SimTime::ZERO, &mut batch);
    assert!((0..3).all(|i| batch.outcome(i).remote), "every op faults");
    let dir = cluster.engine().directory();
    let region = |i: usize| dir.region_of(batch.op(i).vaddr).unwrap();
    assert_eq!(region(1), region(0), "ops 0 and 1 share a region");
    assert_ne!(region(2), region(0));
    assert_eq!(batch.op(0).at, SimTime::ZERO);
    assert!(
        batch.op(1).at >= batch.completion(0),
        "the second fault on the region waits for the first"
    );
    assert_eq!(batch.op(2).at, SimTime::ZERO, "the independent grant does not wait");
}

/// Baselines replay every turn size through the trait's default
/// `execute_batch`: sizes only regroup the per-thread schedule.
#[test]
fn baselines_accept_batched_schedules() {
    let workload = WorkloadSpec::Micro(MicroConfig {
        n_threads: 2,
        shared_pages: 256,
        private_pages: 64,
        ..Default::default()
    });
    let regions = workload.regions();
    for batch_ops in BATCH_SIZES {
        for system in [
            SystemSpec::gam_scaled(&regions, 2, 1),
            SystemSpec::fastswap_scaled(&regions),
        ] {
            let mut sys = system.build();
            let mut wl = workload.build();
            let cfg = RunConfig {
                threads_per_blade: if matches!(system, SystemSpec::FastSwap(_)) {
                    2
                } else {
                    1
                },
                ..run_cfg(batch_ops)
            };
            let report = runner::run(sys.as_mut(), wl.as_mut(), cfg);
            assert_eq!(report.total_ops, 2 * cfg.ops_per_thread);
            assert!(report.runtime > SimTime::ZERO);
        }
    }
}
