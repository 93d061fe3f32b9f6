//! The op-stream contract the replay relies on, and how the replay uses it.
//!
//! A replay generates each source's ops ahead of issue, in chunks of up to
//! 64, in whatever order its sources come due. That is exact only because
//! a thread's stream depends on neither the batch sizes it is generated in
//! nor the order in which threads are asked: the first test holds every
//! generator the harness builds to that. The second gates the generation
//! itself: every op generated is issued in the phase it was generated for,
//! in as few `fill_ops` calls as the 64-op chunk allows.

use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::system::AccessKind;
use mind_harness::WorkloadSpec;
use mind_service::{tenant_partitions, TenantGroupConfig};
use mind_sim::{SimRng, SimTime};
use mind_workloads::kvs::{KvsConfig, KvsWorkload};
use mind_workloads::micro::{MicroConfig, MicroWorkload};
use mind_workloads::{run, Concurrency, RunConfig, TraceOp, Workload};

const OPS: usize = 2_000;
const CHUNK: u64 = 64;

/// Each thread's first [`OPS`] ops, asked for round-robin, one
/// [`Workload::next_op`] at a time.
fn round_robin(w: &mut dyn Workload) -> Vec<Vec<TraceOp>> {
    let threads = w.n_threads();
    let mut streams = vec![Vec::with_capacity(OPS); threads as usize];
    for _ in 0..OPS {
        for (t, stream) in streams.iter_mut().enumerate() {
            stream.push(w.next_op(t as u16));
        }
    }
    streams
}

/// Each thread's first [`OPS`] ops, asked for thread by thread (last thread
/// first) through [`Workload::fill_ops`] in random chunks of 1–64.
fn chunked(w: &mut dyn Workload, seed: u64) -> Vec<Vec<TraceOp>> {
    let mut sizes = SimRng::new(seed);
    let mut streams = vec![Vec::with_capacity(OPS); w.n_threads() as usize];
    for (t, stream) in streams.iter_mut().enumerate().rev() {
        while stream.len() < OPS {
            let n = (sizes.gen_range(1, CHUNK + 1) as usize).min(OPS - stream.len());
            w.fill_ops(t as u16, n, stream);
        }
    }
    streams
}

/// Whether two fresh generators from `build` hand every thread the same
/// stream under both ways of asking; `Err` names the first difference.
fn independent_streams(build: &dyn Fn() -> Box<dyn Workload>) -> Result<(), String> {
    let (mut a, mut b) = (build(), build());
    let name = a.name();
    let (want, got) = (round_robin(a.as_mut()), chunked(b.as_mut(), 5));
    for (t, (want, got)) in want.iter().zip(&got).enumerate() {
        if let Some(i) = (0..OPS).find(|&i| want[i] != got[i]) {
            return Err(format!("{name}: thread {t} differs at op {i}"));
        }
    }
    Ok(())
}

/// The contract's negative control: every thread draws from one shared
/// RNG, so a thread's stream depends on who else was asked first.
struct SharedRng {
    threads: u16,
    rng: SimRng,
}

impl Workload for SharedRng {
    fn name(&self) -> String {
        "shared-rng".to_string()
    }
    fn regions(&self) -> Vec<u64> {
        vec![1 << 20]
    }
    fn n_threads(&self) -> u16 {
        self.threads
    }
    fn next_op(&mut self, _thread: u16) -> TraceOp {
        let page = self.rng.gen_below(4);
        let kind = if self.rng.gen_bool(0.5) { AccessKind::Write } else { AccessKind::Read };
        TraceOp { region: 0, offset: page << 12, kind }
    }
}

#[test]
fn every_generator_streams_each_thread_independently_of_order_and_batch_size() {
    let population = TenantGroupConfig {
        tenants_per_group: 12,
        pages_per_tenant: 16,
        read_ratio: 0.7,
        seed: 3,
    };
    let tenants = tenant_partitions(population);
    let builds: Vec<Box<dyn Fn() -> Box<dyn Workload>>> = vec![
        Box::new(|| WorkloadSpec::real("TF", 4).build()),
        Box::new(|| WorkloadSpec::real("GC", 4).build()),
        Box::new(|| WorkloadSpec::real("MA", 4).build()),
        Box::new(|| WorkloadSpec::real("MC", 4).build()),
        Box::new(|| Box::new(KvsWorkload::new(KvsConfig::ycsb_a(4)))),
        Box::new(|| Box::new(KvsWorkload::new(KvsConfig::ycsb_c(4)))),
        Box::new(|| {
            Box::new(MicroWorkload::new(MicroConfig { n_threads: 4, ..Default::default() }))
        }),
        Box::new(|| tenants(1)),
    ];
    for build in &builds {
        if let Err(e) = independent_streams(build.as_ref()) {
            panic!("{e}");
        }
    }
    let shared = independent_streams(&|| Box::new(SharedRng { threads: 2, rng: SimRng::new(1) }));
    assert!(shared.is_err(), "a shared RNG must fail the contract");
}

/// A workload that records, per thread, the size of every generation call
/// it serves.
struct Counted<W> {
    inner: W,
    calls: Vec<Vec<usize>>,
}

impl<W: Workload> Workload for Counted<W> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn regions(&self) -> Vec<u64> {
        self.inner.regions()
    }
    fn n_threads(&self) -> u16 {
        self.inner.n_threads()
    }
    fn next_op(&mut self, thread: u16) -> TraceOp {
        self.calls[thread as usize].push(1);
        self.inner.next_op(thread)
    }
    fn fill_ops(&mut self, thread: u16, n: usize, out: &mut Vec<TraceOp>) {
        self.calls[thread as usize].push(n);
        self.inner.fill_ops(thread, n, out);
    }
}

#[test]
fn a_replay_generates_each_phase_exactly_in_whole_chunks() {
    const THREADS: u16 = 4;
    const WARMUP: u64 = 300;
    const MEASURED: u64 = 1_000;
    // The scalar path every figure uses, the windowed cluster engine, and
    // two turn sizes that straddle and exceed a chunk.
    let points = [
        (Concurrency::Turnwise, 1, 1),
        (Concurrency::Cluster, 64, 16),
        (Concurrency::Turnwise, 48, 4),
        (Concurrency::Turnwise, 256, 1),
    ];
    for (concurrency, batch_ops, window) in points {
        let micro = MicroConfig {
            n_threads: THREADS,
            shared_pages: 512,
            private_pages: 64,
            ..Default::default()
        };
        let mut workload = Counted {
            inner: MicroWorkload::new(micro),
            calls: vec![Vec::new(); THREADS as usize],
        };
        let mut cluster = MindCluster::new(MindConfig::scaled_to(512 + 64 * THREADS as u64, 2));
        let cfg = RunConfig {
            ops_per_thread: MEASURED,
            warmup_ops_per_thread: WARMUP,
            threads_per_blade: THREADS / 2,
            think_time: SimTime::from_nanos(100),
            ..Default::default()
        }
        .with_batch_ops(batch_ops)
        .with_window(window)
        .with_concurrency(concurrency);
        let report = run(&mut cluster, &mut workload, cfg);
        let ctx = format!("{concurrency:?} batch {batch_ops} window {window}");
        assert_eq!(report.total_ops, MEASURED * THREADS as u64, "{ctx}");
        for (t, calls) in workload.calls.iter().enumerate() {
            // The calls that make up the warm-up sum to it exactly: no call
            // generates across the phase line.
            let mut generated = 0;
            let warmup_calls = calls
                .iter()
                .take_while(|&&n| {
                    generated += n as u64;
                    generated <= WARMUP
                })
                .count();
            let (warmup, measured) = calls.split_at(warmup_calls);
            let sum = |calls: &[usize]| calls.iter().sum::<usize>() as u64;
            assert_eq!(sum(warmup), WARMUP, "{ctx}: thread {t} warm-up calls {warmup:?}");
            assert_eq!(sum(measured), MEASURED, "{ctx}: thread {t} measured calls {measured:?}");
            assert!(
                warmup.len() as u64 <= WARMUP.div_ceil(CHUNK),
                "{ctx}: thread {t} warmed up in {} calls",
                warmup.len()
            );
            assert!(
                measured.len() as u64 <= MEASURED.div_ceil(CHUNK),
                "{ctx}: thread {t} measured in {} calls",
                measured.len()
            );
        }
    }
}
