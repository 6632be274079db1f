//! The serving stack under test and the request pools the workloads draw
//! from.
//!
//! The stack is the program as a user runs it: a `ServeEngine` at the
//! default `TuningConfig`, a `Scheduler` in front of it and an
//! `HttpServer` on loopback. The benchmark only calls public entry points
//! that the planned engine refactors keep.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use unit_core::pipeline::TuningConfig;
use unit_graph::OpSpec;
use unit_serve::{HttpServer, HttpServerConfig, Scheduler, SchedulerConfig, ServeEngine, TuneTier};

/// The artifact namespace every benchmark request uses.
pub const MODEL_ID: &str = "perfbench";
/// The whole-model workload's graph.
pub const GRAPH: &str = "transformer-micro";
/// Distinct input seeds per kernel in the op pools. Bounded so the oracle
/// computes each expected output once per run.
pub const SEEDS_PER_KERNEL: usize = 2;
/// Distinct token seeds in the whole-model pool.
pub const TOKEN_SEEDS: usize = 16;
/// Generous per-request timeout: a request that takes this long is a
/// failure, not a latency sample.
pub const HTTP_TIMEOUT: Duration = Duration::from_secs(60);

/// The MAC-dense shapes of the kernel-heavy workload, with the labels the
/// per-layer `tape.*.<shape>` metrics use. Sized so each serves in a
/// similar 20-40 ms: a mode far from the others would put the median
/// latency between modes, where it jumps with the request mix.
pub fn heavy_shapes() -> Vec<(&'static str, OpSpec)> {
    vec![
        ("gemm32", OpSpec::gemm(32, 32, 32)),
        ("bmm2x16", OpSpec::batched_gemm(2, 16, 32, 32)),
        ("conv1x1", OpSpec::conv2d(32, 6, 32, 1, 1, 0)),
        ("conv3x3", OpSpec::conv2d(8, 6, 16, 3, 1, 1)),
    ]
}

/// The small ops of the ladder's per-request overhead probes and its
/// scheduler open loop: small GEMMs plus a small depthwise conv (which
/// no instruction tensorizes, so it serves from the SIMD fallback).
pub fn small_shapes() -> Vec<(&'static str, OpSpec)> {
    vec![
        ("gemm4x16", OpSpec::gemm(4, 16, 16)),
        ("gemm8x16", OpSpec::gemm(8, 16, 16)),
        ("dwconv3x3", OpSpec::depthwise(8, 6, 3, 1, 1)),
    ]
}

/// Every registered target id, in registry order.
pub fn targets() -> Vec<String> {
    unit_isa::registry::targets()
        .into_iter()
        .map(|d| d.id)
        .collect()
}

/// The tuning every stack and compile in the benchmark uses.
pub fn tuning() -> TuningConfig {
    TuningConfig::default()
}

/// The input seeds of a pool, derived from the run seed.
pub fn pool_seeds(run_seed: u64, salt: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(run_seed ^ salt.wrapping_mul(0x9e37_79b9));
    (0..n).map(|_| rng.next_u64() >> 16).collect()
}

/// `POST /v1/execute` body for one op.
pub fn op_body(target: &str, op: &OpSpec, seed: u64) -> String {
    format!(
        "model {MODEL_ID}\ntarget {target}\nop {}\nseed {seed}\n",
        op.encode()
    )
}

/// `POST /v1/execute` body for one whole-model forward pass (fused mode).
pub fn graph_body(target: &str, seed: u64) -> String {
    format!("graph {GRAPH}\ntarget {target}\nseed {seed}\n")
}

/// FNV-1a over a byte string: responses are reduced to the hash of their
/// `dtype`/`len`/`data` section as they arrive, and compared with the
/// oracle's encoding after the timed window.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a `200` response's payload section (`None` when absent).
pub fn payload_hash(body: &str) -> Option<u64> {
    body.find("dtype ").map(|at| fnv(&body.as_bytes()[at..]))
}

/// A running engine + scheduler + HTTP front end.
pub struct Stack {
    pub engine: Arc<ServeEngine>,
    pub scheduler: Arc<Scheduler>,
    server: HttpServer,
}

impl Stack {
    pub fn start() -> Stack {
        let engine = Arc::new(ServeEngine::new(tuning()));
        let scheduler = Arc::new(Scheduler::start(
            Arc::clone(&engine),
            SchedulerConfig::default(),
        ));
        let server = HttpServer::start(Arc::clone(&scheduler), HttpServerConfig::default())
            .expect("bind a loopback port");
        Stack {
            engine,
            scheduler,
            server,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop the front end, then the scheduler; joins every thread.
    pub fn shutdown(self) {
        self.server.shutdown();
        drop(self.engine);
        // A connection thread drops its scheduler handle just after the
        // server stops counting it as live; wait for that last handle.
        let mut scheduler = self.scheduler;
        for _ in 0..500 {
            match Arc::try_unwrap(scheduler) {
                Ok(s) => return s.shutdown(),
                Err(shared) => scheduler = shared,
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("scheduler still shared 5 s after the front end stopped");
    }

    /// Compile (and tape-compile) an op kernel by serving it once, plus
    /// the fused batched kernels for `2..=max_fused` same-shape requests
    /// the scheduler may form, so the timed window compiles nothing.
    pub fn warm_op(&self, target: &str, op: OpSpec, seed: u64, max_fused: usize) {
        self.engine
            .execute(MODEL_ID, target, op, seed)
            .expect("warm-up request executes");
        if matches!(op, OpSpec::Gemm { .. }) {
            for n in 2..=max_fused {
                let seeds = vec![seed; n];
                self.engine
                    .execute_gemm_batch(MODEL_ID, target, op, &seeds)
                    .expect("warm-up batch executes");
            }
        }
    }
}

/// Counters whose movement shows a compile happened: cold compiles,
/// artifact replays (a kernel-cache miss on a kernel compiled before) and
/// tuner searches anywhere in the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileCounters {
    cold: u64,
    replay_rate: f64,
    searches: u64,
}

impl CompileCounters {
    pub fn read(engine: &ServeEngine) -> CompileCounters {
        let m = engine.metrics();
        CompileCounters {
            cold: m.cold_start(TuneTier::Full).count() + m.cold_start(TuneTier::Cold).count(),
            replay_rate: m.artifact_hit_rate(),
            searches: unit_core::tuner::tuner_searches(),
        }
    }
}

/// splitmix64: the benchmark's seeded stream for request draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x7065_7266_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
