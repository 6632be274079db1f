//! The workloads' untraced runs: set-up, one timed window, then the
//! oracle check. Each returns every end-to-end metric.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unit_graph::{Graph, OpSpec};
use unit_serve::{model_graph, Journal, JournalConfig, ServeEngine};

use crate::oracle;
use crate::report::{median, peak_rss_mb, quantile, tail, RunResult};
use crate::stack::{
    self, graph_body, op_body, payload_hash, pool_seeds, CompileCounters, Rng, Stack, GRAPH,
    HTTP_TIMEOUT, TOKEN_SEEDS,
};

/// The reference host switches between fast and slow phases that last
/// from a few hundred milliseconds to minutes, the slow ones up to 1.5x
/// slower (one process ran zoo warm replays at 8.7 ms through the first
/// half of a 3 s budget and at 13.6 ms through the second). A median over
/// a short budget lands in whichever phase covered more of it. So a short
/// measurement is repeated, at least `MIN_REPS` times, and reported as its
/// lower decile, which tracks the fast phase. The samples are spread over
/// the run: serving set-ups run for `SETUP_BUDGET_S`, half before the
/// timed window and half after it, and zoo-compile's warm replays run
/// between timed repetitions for `REPLAY_SHARE` of each one's time.
const MIN_REPS: usize = 5;
const SETUP_BUDGET_S: f64 = 6.0;
const REPLAY_SHARE: f64 = 0.1;
/// Closed-loop clients (= connections): one per core of the 2-core
/// reference machine.
const CLIENTS: usize = 2;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
}

/// One completed (or failed) request of a timed window.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Which pool entry was requested.
    pub key: usize,
    pub ms: f64,
    /// Whether the server answered with a payload (HTTP 200 / `Ok`).
    pub ok: bool,
    pub hash: u64,
}

/// Closed loop over HTTP: `CLIENTS` threads, each sending its next
/// request when the previous reply arrived, until `seconds` have passed.
/// Returns the samples and the window's wall time.
fn closed_loop(
    addr: SocketAddr,
    seconds: f64,
    seed: u64,
    draw: &(dyn Fn(&mut Rng, usize, usize) -> (usize, String) + Sync),
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (client as u64 + 1) << 40);
                    let mut out = Vec::new();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let (key, body) = draw(&mut rng, client, i);
                        i += 1;
                        let t = Instant::now();
                        let reply = unit_serve::net::http_request(
                            addr,
                            "POST",
                            "/v1/execute",
                            &body,
                            HTTP_TIMEOUT,
                        );
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let hash = match &reply {
                            Ok((200, body)) => payload_hash(body),
                            _ => None,
                        };
                        out.push(Sample {
                            key,
                            ms,
                            ok: hash.is_some(),
                            hash: hash.unwrap_or(0),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<Sample>>()
    });
    (samples, started.elapsed().as_secs_f64())
}

/// Every `(shape, target)` of a shape pool, with its input seeds.
pub fn op_kernels(
    shapes: &[(&str, OpSpec)],
    run_seed: u64,
    salt: u64,
) -> (Vec<(OpSpec, String)>, Vec<Vec<u64>>) {
    let mut kernels = Vec::new();
    let mut seeds = Vec::new();
    for (i, (_, op)) in shapes.iter().enumerate() {
        for (j, t) in stack::targets().into_iter().enumerate() {
            seeds.push(pool_seeds(
                run_seed,
                salt + (i * 16 + j) as u64,
                stack::SEEDS_PER_KERNEL,
            ));
            kernels.push((*op, t));
        }
    }
    (kernels, seeds)
}

/// The reported value of a repeated measurement (see `MIN_REPS`).
fn lower_decile(times: &[f64]) -> f64 {
    quantile(times, 0.1)
}

/// Run `setup` until `times` holds at least `min` set-ups totalling at
/// least `budget_s`; returns the last stack (the others are shut down).
fn repeat_setup(
    times: &mut Vec<f64>,
    min: usize,
    budget_s: f64,
    setup: &impl Fn() -> Stack,
) -> Stack {
    let mut last: Option<Stack> = None;
    while last.is_none() || times.len() < min || times.iter().sum::<f64>() < budget_s {
        if let Some(stack) = last.take() {
            stack.shutdown();
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

/// A serving workload's set-ups and its closed-loop window. Half of the
/// set-ups run before the window and half after it, so that their samples
/// span the run (see `MIN_REPS`). Records `setup_s`, `peak_rss_mb` and the
/// window's no-compile check; returns the window's samples and wall time.
fn serve_window(
    result: &mut RunResult,
    opts: &Opts,
    setup: impl Fn() -> Stack,
    requests_per_setup: usize,
    draw: &(dyn Fn(&mut Rng, usize, usize) -> (usize, String) + Sync),
) -> (Vec<Sample>, f64) {
    let mut setups = Vec::new();
    let stack = repeat_setup(&mut setups, MIN_REPS / 2, SETUP_BUDGET_S / 2.0, &setup);
    let before = CompileCounters::read(&stack.engine);
    let window = closed_loop(stack.addr(), opts.seconds, opts.seed, draw);
    check_no_compiles(result, before, &stack.engine);
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    stack.shutdown();
    repeat_setup(&mut setups, MIN_REPS, SETUP_BUDGET_S, &setup).shutdown();
    result.phase("setup", (setups.len() * requests_per_setup) as u64, 0);
    result.metric("setup_s", lower_decile(&setups), "s");
    window
}

/// Latency, throughput and error metrics of a window's samples, plus the
/// oracle comparison against `expected[key]`.
fn serve_metrics(
    result: &mut RunResult,
    phase: &'static str,
    samples: &[Sample],
    elapsed_s: f64,
    expected: &BTreeMap<usize, u64>,
) {
    let mut mismatched = 0u64;
    let mut failed = 0u64;
    for s in samples {
        if !s.ok {
            failed += 1;
        } else if expected.get(&s.key) != Some(&s.hash) {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        result.mismatch(format!(
            "{phase}: {mismatched} responses differ from the oracle"
        ));
    }
    let ok: Vec<f64> = samples.iter().filter(|s| s.ok).map(|s| s.ms).collect();
    let attempted = samples.len() as u64;
    result.phase(phase, attempted, failed + mismatched);
    result.metric("throughput_rps", ok.len() as f64 / elapsed_s, "1/s");
    result.metric("latency_p50_ms", median(&ok), "ms");
    let (pct, value, beyond) = tail(&ok);
    result.metric("latency_tail_ms", value, "ms");
    result.note("latency_tail_percentile", format!("{pct:.3}"));
    result.note("latency_tail_samples_beyond", beyond);
    result.note("latency_samples", ok.len());
    result.note(
        "error_rate",
        (failed + mismatched) as f64 / attempted.max(1) as f64,
    );
}

fn check_no_compiles(result: &mut RunResult, before: CompileCounters, engine: &ServeEngine) {
    if CompileCounters::read(engine) != before {
        result.mismatch("a kernel compiled inside the timed window (kernel cache missed)");
    } else {
        result.note("engine.kernel_hit_rate_window", 1.0);
    }
}

pub fn kernel_heavy(opts: &Opts) -> RunResult {
    let mut result = RunResult::new();
    let (kernels, seeds) = op_kernels(&stack::heavy_shapes(), opts.seed, 100);
    let setup = || {
        let stack = Stack::start();
        for (k, (op, t)) in kernels.iter().enumerate() {
            stack.warm_op(t, *op, seeds[k][0], CLIENTS);
        }
        stack
    };
    let draw = |rng: &mut Rng, _client: usize, _i: usize| {
        let kernel = rng.below(kernels.len());
        let s = rng.below(stack::SEEDS_PER_KERNEL);
        let (op, t) = &kernels[kernel];
        (
            kernel * stack::SEEDS_PER_KERNEL + s,
            op_body(t, op, seeds[kernel][s]),
        )
    };
    let (samples, elapsed) = serve_window(&mut result, opts, setup, kernels.len(), &draw);

    let expected = op_expected(&samples, &kernels, &seeds);
    serve_metrics(&mut result, "timed", &samples, elapsed, &expected);
    result
}

/// Oracle hashes for every op key a window requested.
fn op_expected(
    samples: &[Sample],
    kernels: &[(OpSpec, String)],
    seeds: &[Vec<u64>],
) -> BTreeMap<usize, u64> {
    let keys: Vec<usize> = samples
        .iter()
        .map(|s| s.key)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let requests: Vec<(OpSpec, String, u64)> = keys
        .iter()
        .map(|&key| {
            let (k, s) = (key / stack::SEEDS_PER_KERNEL, key % stack::SEEDS_PER_KERNEL);
            (kernels[k].0, kernels[k].1.clone(), seeds[k][s])
        })
        .collect();
    let hashes = oracle::op_hashes(&requests, CLIENTS);
    keys.into_iter().zip(hashes).collect()
}

pub fn model_forward(opts: &Opts) -> RunResult {
    let mut result = RunResult::new();
    let graph = model_graph(GRAPH).expect("serving graph");
    let targets = stack::targets();
    let tokens = pool_seeds(opts.seed, 200, TOKEN_SEEDS);
    let setup = || {
        let stack = Stack::start();
        for t in &targets {
            stack
                .engine
                .execute_model(&graph, t, tokens[0], true)
                .expect("warm-up forward pass");
        }
        stack
    };
    let draw = |rng: &mut Rng, client: usize, i: usize| {
        let t = (i + client) % targets.len();
        let s = rng.below(TOKEN_SEEDS);
        (t * TOKEN_SEEDS + s, graph_body(&targets[t], tokens[s]))
    };
    let (samples, elapsed) = serve_window(&mut result, opts, setup, targets.len(), &draw);

    let seen: BTreeSet<usize> = samples.iter().map(|s| s.key).collect();
    let expected: BTreeMap<usize, u64> = seen
        .into_iter()
        .map(|key| {
            let (t, s) = (key / TOKEN_SEEDS, key % TOKEN_SEEDS);
            let dtypes = oracle::operand_dtypes(&targets[t]);
            (
                key,
                oracle::model_hash(&oracle::model_output(&graph, tokens[s], dtypes)),
            )
        })
        .collect();
    serve_metrics(&mut result, "timed", &samples, elapsed, &expected);
    result
}

/// The paper's nine evaluation models plus transformer-tiny.
pub fn zoo() -> Vec<Graph> {
    let mut graphs = unit_graph::models::all_models();
    graphs.push(unit_graph::models::transformer_tiny());
    graphs
}

/// Scratch directory inside the checkout for the warm-start journal.
pub fn scratch_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

/// A fresh engine replays the journal and compiles the whole zoo.
/// Returns the wall time and the tuner searches it triggered.
pub fn warm_replay(
    journal_path: &std::path::Path,
    graphs: &[Graph],
    targets: &[String],
) -> (f64, u64) {
    let searches = unit_core::tuner::tuner_searches();
    let t = Instant::now();
    let engine = ServeEngine::new(stack::tuning());
    let journal = Journal::open(JournalConfig::at(journal_path)).expect("journal opens");
    engine
        .attach_journal(Arc::new(journal))
        .expect("journal replays");
    for target in targets {
        for g in graphs {
            engine.compile_model(g, target).expect("warm compile");
        }
    }
    (
        t.elapsed().as_secs_f64(),
        unit_core::tuner::tuner_searches() - searches,
    )
}

/// Delete a journal and its lock file.
pub fn remove_journal(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut lock = path.as_os_str().to_owned();
    lock.push(".lock");
    let _ = std::fs::remove_file(lock);
}

/// Write a journal holding the cold compile of the zoo.
pub fn write_zoo_journal(graphs: &[Graph], targets: &[String]) -> std::path::PathBuf {
    let path = scratch_dir().join(format!("zoo-{}.journal", std::process::id()));
    remove_journal(&path);
    let engine = ServeEngine::new(stack::tuning());
    let journal = Journal::open(JournalConfig::at(&path)).expect("journal opens");
    engine
        .attach_journal(Arc::new(journal))
        .expect("journal attaches");
    for target in targets {
        for g in graphs {
            engine.compile_model(g, target).expect("cold compile");
        }
    }
    path
}

pub fn zoo_compile(opts: &Opts) -> RunResult {
    let mut result = RunResult::new();
    let graphs = zoo();
    let targets = stack::targets();
    let pairs = (graphs.len() * targets.len()) as u64;

    // Replica set-up: a fresh engine warm-starts off a journal another
    // replica wrote, compiling the whole zoo with zero tuner searches.
    let journal = write_zoo_journal(&graphs, &targets);
    let mut setups = Vec::new();
    let replay = |setups: &mut Vec<f64>, result: &mut RunResult| {
        let (s, searches) = warm_replay(&journal, &graphs, &targets);
        if searches != 0 {
            result.mismatch(format!("warm replay ran {searches} tuner searches"));
        }
        setups.push(s);
    };

    // Timed: cold compiles of the zoo in a fresh engine per repetition, in
    // a seeded order, until the window's time is spent. Between
    // repetitions, outside the window, come the set-up's warm replays.
    let mut rng = Rng::new(opts.seed);
    let mut reps = Vec::new();
    let mut per_pair = Vec::new();
    let mut reports = Vec::new();
    while reps.iter().sum::<f64>() < opts.seconds {
        let mut order: Vec<(usize, usize)> = (0..targets.len())
            .flat_map(|t| (0..graphs.len()).map(move |g| (g, t)))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let engine = ServeEngine::new(stack::tuning());
        let rep = Instant::now();
        let mut got = Vec::with_capacity(order.len());
        for (g, t) in order {
            let one = Instant::now();
            let report = engine.compile_model(&graphs[g], &targets[t]);
            per_pair.push(one.elapsed().as_secs_f64() * 1e3);
            // Only a digest is kept: whole reports of every repetition
            // would make peak memory grow with compile speed.
            let digest = report.ok().map(|r| (oracle::report_digest(&r), r.total_ms));
            got.push((g, t, digest));
        }
        let rep_s = rep.elapsed().as_secs_f64();
        reps.push(rep_s);
        reports.push(got);
        drop(engine);
        let burst = Instant::now();
        while burst.elapsed().as_secs_f64() < REPLAY_SHARE * rep_s {
            replay(&mut setups, &mut result);
        }
    }
    while setups.len() < MIN_REPS {
        replay(&mut setups, &mut result);
    }
    remove_journal(&journal);
    result.phase("setup", (setups.len() as u64) * pairs, 0);
    let elapsed: f64 = reps.iter().sum();
    let rss = peak_rss_mb();

    // Oracle: every report equals `compile_graph`'s, and the summed
    // modeled latency repeats exactly across repetitions.
    let expected = oracle::zoo_digests(&graphs, &targets);
    let mut failed = 0;
    let mut sim_ms = Vec::new();
    for rep in &mut reports {
        rep.sort_by_key(|(g, t, _)| (*t, *g));
        let mut sum = 0.0;
        for (g, t, got) in rep.iter() {
            match got {
                Some((digest, total_ms)) if *digest == expected[&(*g, *t)] => sum += total_ms,
                _ => failed += 1,
            }
        }
        sim_ms.push(sum);
    }
    if failed > 0 {
        result.mismatch(format!(
            "{failed} compile reports differ from compile_graph"
        ));
    }
    if sim_ms.iter().any(|s| s.to_bits() != sim_ms[0].to_bits()) {
        result.mismatch("summed modeled latency differs between repetitions");
    }
    result.phase("timed", per_pair.len() as u64, failed);

    result.metric("setup_s", lower_decile(&setups), "s");
    result.metric("throughput_rps", per_pair.len() as f64 / elapsed, "1/s");
    result.metric("latency_p50_ms", median(&per_pair), "ms");
    let (pct, value, beyond) = tail(&per_pair);
    result.metric("latency_tail_ms", value, "ms");
    result.note("compile_s", median(&reps));
    result.metric("peak_rss_mb", rss, "MiB");
    result.note("latency_tail_percentile", format!("{pct:.3}"));
    result.note("latency_tail_samples_beyond", beyond);
    result.note("latency_samples", per_pair.len());
    result.note("repetitions", reps.len());
    result.note("sim_ms", sim_ms[0]);
    result.note("error_rate", failed as f64 / per_pair.len().max(1) as f64);
    result
}
