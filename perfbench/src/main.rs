//! Host-time benchmark of the simulator and the query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|serve_read|serve_ingest|serve_write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A single-threaded closed loop: one client calls the program's public
//! entry points back to back (`run_set_op_with` / `run_sort_with` for
//! `sweep`, `QueryService::run` with one arrival per call for `serve_*`)
//! and checks every output against an independent oracle. The seed makes
//! the inputs; the program only ever sees the generated inputs.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer ledger (see `ledger.rs`). Both print a human summary first
//! and one JSON object as the last line. See `README.md` for what each
//! metric means and which layer metric should move which end-to-end one.

mod ledger;
mod serve;
mod sweep;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ledger::{timed, Ledger};

/// How an op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The output matched the oracle.
    Ok,
    /// The program returned an error (or shed the request).
    Failed,
    /// The program returned an output the oracle disagrees with.
    Mismatch,
    /// A query answered from a stale cached index: its RIDs are wrong,
    /// and are exactly those of the older table generation the index was
    /// built for. This is the known defect of `QueryService`'s
    /// address-keyed index cache (ROADMAP item 1).
    Stale,
}

/// One op as the client saw it.
pub struct OpRecord {
    /// Host time of the top-level call.
    pub ns: f64,
    /// Simulated cycles it took.
    pub cycles: u64,
    pub outcome: Outcome,
    /// Host time of the oracle check and of the layer re-drives.
    pub oracle_ns: f64,
    pub redrive_ns: f64,
    /// Host time of a set-up the workload had to redo before this op.
    pub setup_ns: Option<f64>,
}

impl OpRecord {
    fn failed(ns: f64) -> Self {
        OpRecord {
            ns,
            cycles: 0,
            outcome: Outcome::Failed,
            oracle_ns: 0.0,
            redrive_ns: 0.0,
            setup_ns: None,
        }
    }
}

/// A workload: a fixed, seeded op sequence the client cycles through.
pub trait Workload {
    /// Ops per round; a round ends with a calibration sample.
    fn round_len(&self) -> usize;
    /// Runs the next op; with a ledger, also re-drives its layers.
    fn step(&mut self, led: Option<&mut Ledger>) -> OpRecord;
    /// Simulated cycles per op over the first pass of the sequence.
    fn sim_cycles_per_op(&self) -> Option<f64>;
    /// Whether repeated ops on the same inputs took the same cycles.
    fn consistent(&self) -> bool;
    /// Queries answered from a stale cached index since set-up, whether
    /// or not their reply was wrong.
    fn stale_hits(&self) -> u64 {
        0
    }
    /// Books end-of-run state into the ledger.
    fn finish(&mut self, _led: &mut Ledger) {}
}

/// `serve_write` is not in `BENCHMARK.json`: the known stale-index defect
/// fails a tenth of its requests. It stays runnable to measure that.
const WORKLOADS: [&str; 4] = ["sweep", "serve_read", "serve_ingest", "serve_write"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Elements per calibration input. The inputs (~50 KiB) stay in the L2
/// cache, as the simulator's working set does, so the loop slows with the
/// simulator when other tenants share the core.
const CALIB_LEN: usize = 4096;
/// Measured op time between two calibration samples (~10% overhead).
const PROBE_GAP_NS: f64 = 4e6;
/// The calibration time of the reference host that host-time metrics are
/// stated on. Other tenants of a shared host slow this process by up to
/// ~2x, for milliseconds to minutes; the calibration slows with them, but
/// less: across 1-second windows, simulator time went as calibration time
/// to the power `REF_EXPONENT` (log-log slope 1.48). So a time `t`
/// measured while calibration samples averaged `c` is reported as
/// `t * (REF_CALIB_NS / c).powf(REF_EXPONENT)`. The slope was fitted on
/// one host, so this compensates that host's drift; whether it makes
/// figures from different machines comparable is unverified, and the
/// summary line prints the raw figures too.
const REF_CALIB_NS: f64 = 300_000.0;
const REF_EXPONENT: f64 = 1.5;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// A fixed native loop (`dbx_x86ref::scalar` intersect + merge sort on
/// fixed inputs) sampled between ops: how fast this host is right now.
struct Calibration {
    a: Vec<u32>,
    b: Vec<u32>,
    data: Vec<u32>,
}

impl Calibration {
    fn new() -> Self {
        let mut x = 0x9e37_79b9_u32;
        let data = (0..CALIB_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Calibration {
            a: (0..CALIB_LEN as u32).map(|i| 2 * i).collect(),
            b: (0..CALIB_LEN as u32).map(|i| 3 * i).collect(),
            data,
        }
    }

    fn sample(&self) -> f64 {
        timed(|| {
            let both = dbx_x86ref::scalar::intersect(black_box(&self.a), black_box(&self.b));
            let mut data = self.data.clone();
            dbx_x86ref::scalar::merge_sort(black_box(&mut data));
            both.len() + data[0] as usize
        })
        .1
    }
}

/// The factor that states a host time measured next to calibration
/// samples averaging `calib_ns` on the reference host.
fn to_ref(calib_ns: f64) -> f64 {
    (REF_CALIB_NS / calib_ns).powf(REF_EXPONENT)
}

/// What one measurement phase saw.
#[derive(Default)]
struct Phase {
    ops: u64,
    ok: u64,
    failed: u64,
    mismatched: u64,
    stale: u64,
    /// Per op: host time of the call, raw and scaled to the reference host.
    raw_latencies_ns: Vec<f64>,
    latencies_ns: Vec<f64>,
    /// Summed over the ops: raw and scaled host time, and simulated cycles.
    raw_ns: f64,
    ref_ns: f64,
    cycles: u64,
    /// Calibration samples, and the time they took.
    calib_ns: Vec<f64>,
    probe_ns: f64,
    /// Wall time of the loop without calibration samples and workload
    /// re-set-ups, and the parts of it spent in oracle checks and layer
    /// re-drives.
    wall_ns: f64,
    oracle_ns: f64,
    redrive_ns: f64,
}

/// Runs the workload for `seconds` in rounds of `Workload::round_len` ops,
/// with a calibration sample after every `PROBE_GAP_NS` of measured op time
/// and at the end of every round. A round's times are stated on the
/// reference host by the mean of its samples and the one before it.
fn measure(
    w: &mut dyn Workload,
    calib: &Calibration,
    seconds: f64,
    mut led: Option<&mut Ledger>,
) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut setup_ns = 0.0;
    let probe = |ph: &mut Phase| {
        let ns = calib.sample();
        ph.probe_ns += ns;
        ph.calib_ns.push(ns);
        ns
    };
    let mut last = probe(&mut ph);
    while start.elapsed() < budget {
        let first = ph.latencies_ns.len();
        let (mut samples, mut since) = (vec![last], 0.0);
        for i in 0..w.round_len() {
            let r = w.step(led.as_deref_mut());
            ph.ops += 1;
            match r.outcome {
                Outcome::Ok => ph.ok += 1,
                Outcome::Failed => ph.failed += 1,
                Outcome::Mismatch => ph.mismatched += 1,
                Outcome::Stale => ph.stale += 1,
            }
            ph.cycles += r.cycles;
            ph.raw_latencies_ns.push(r.ns);
            ph.latencies_ns.push(r.ns);
            ph.raw_ns += r.ns;
            ph.oracle_ns += r.oracle_ns;
            ph.redrive_ns += r.redrive_ns;
            setup_ns += r.setup_ns.unwrap_or(0.0);
            if let Some(led) = led.as_deref_mut() {
                led.ops += 1;
            }
            since += r.ns;
            if since >= PROBE_GAP_NS || i + 1 == w.round_len() {
                last = probe(&mut ph);
                samples.push(last);
                since = 0.0;
            }
        }
        let scale = to_ref(samples.iter().sum::<f64>() / samples.len() as f64);
        for l in &mut ph.latencies_ns[first..] {
            *l *= scale;
            ph.ref_ns += *l;
        }
    }
    ph.wall_ns = start.elapsed().as_nanos() as f64 - setup_ns - ph.probe_ns;
    ph
}

impl Phase {
    /// Ops that errored, were shed or disagreed with the oracle.
    fn errors(&self) -> u64 {
        self.failed + self.mismatched + self.stale
    }

    /// Whether every op passed its oracle, except replies explained by
    /// the known stale-index defect.
    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatched == 0
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile (0 for an empty sample).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn setup(name: &str, seed: u64, trace: bool) -> Box<dyn Workload> {
    match name {
        "sweep" => {
            let mut w = sweep::Sweep::setup(seed);
            // Warm-up pass: assembles every kernel into the program cache.
            for _ in 0..w.round_len() {
                w.step(None);
            }
            Box::new(w)
        }
        _ => {
            let mix = match name {
                "serve_read" => serve::Mix::Read,
                "serve_ingest" => serve::Mix::Ingest,
                _ => serve::Mix::Write,
            };
            let mut w = serve::Serve::setup(seed, mix);
            if trace {
                w.enable_tracing();
            }
            Box::new(w)
        }
    }
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calib = Calibration::new();
    let seconds = args.seconds as f64;
    let mut m = Metrics(Vec::new());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (attempted, failed, correct);
    if !args.trace {
        // Each set-up is ~10 ms, too short for a calibration sample next
        // to it to be steady, so the median set-up is stated on the
        // reference host by the median of samples taken between them.
        let (mut setups, mut samples) = (Vec::with_capacity(SETUPS), vec![calib.sample()]);
        let mut built = None;
        for _ in 0..SETUPS {
            let (w, ns) = timed(|| setup(&args.workload, args.seed, false));
            setups.push(ns);
            samples.push(calib.sample());
            built = Some(w);
        }
        let raw_setup_ns = median(&setups);
        let setup_ns = raw_setup_ns * to_ref(median(&samples));
        let mut w = built.expect("at least one set-up");
        let ph = measure(w.as_mut(), &calib, seconds, None);
        attempted = ph.ops;
        failed = ph.errors();
        correct = ph.correct() && w.consistent();
        let rss = match peak_rss_mb() {
            Ok(mb) => mb,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        m.put("host_ops_per_s", ph.ok as f64 * 1e9 / ph.ref_ns, "ops/s");
        m.put("host_ns_per_sim_cycle", ph.ref_ns / ph.cycles as f64, "ns");
        m.put("op_p50_us", quantile(&ph.latencies_ns, 0.5) / 1e3, "us");
        m.put("op_p99_us", quantile(&ph.latencies_ns, 0.99) / 1e3, "us");
        m.put(
            "sim_cycles_per_op",
            w.sim_cycles_per_op().unwrap_or(0.0),
            "cycles",
        );
        m.put("ok_rate", ph.ok as f64 / ph.ops.max(1) as f64, "fraction");
        m.put("peak_rss_mb", rss, "MB");
        m.put("setup_s", setup_ns / 1e9, "s");
        println!(
            "{} seed {}: {} ops ({} latency samples), {} failed, {} oracle mismatches, {} wrong replies from {} stale-index hits, error_rate {:.6}",
            args.workload,
            args.seed,
            ph.ops,
            ph.latencies_ns.len(),
            ph.failed,
            ph.mismatched,
            ph.stale,
            w.stale_hits(),
            ph.errors() as f64 / ph.ops.max(1) as f64,
        );
        println!(
            "host.calib_ns {:.0} on {nproc} CPUs; host times below are stated on the reference host ({REF_CALIB_NS} ns). Raw: host_ops_per_s {:.4}, host_ns_per_sim_cycle {:.4}, op_p50_us {:.4}, op_p99_us {:.4}, setup_s {:.6}",
            median(&ph.calib_ns),
            ph.ok as f64 * 1e9 / ph.raw_ns,
            ph.raw_ns / ph.cycles as f64,
            quantile(&ph.raw_latencies_ns, 0.5) / 1e3,
            quantile(&ph.raw_latencies_ns, 0.99) / 1e3,
            raw_setup_ns / 1e9,
        );
    } else {
        let mut w = setup(&args.workload, args.seed, true);
        // An untraced third first, so the traced loop's overhead is
        // measured against the same process.
        let plain = measure(w.as_mut(), &calib, seconds / 3.0, None);
        let mut led = Ledger::default();
        let ph = measure(w.as_mut(), &calib, seconds - seconds / 3.0, Some(&mut led));
        w.finish(&mut led);
        led.wall_ns = ph.wall_ns - ph.oracle_ns - ph.redrive_ns;
        attempted = plain.ops + ph.ops;
        failed = plain.errors() + ph.errors();
        correct = plain.correct() && ph.correct() && w.consistent() && !led.mismatched;
        layer_metrics(&mut m, &led, &ph, &plain);
        println!(
            "{} seed {} traced: {} ops, {} failed; host.calib_ns below was measured on {nproc} CPUs",
            args.workload, args.seed, led.ops, failed,
        );
        print_ledger(&led);
    }
    for (name, value, unit) in &m.0 {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    ExitCode::SUCCESS
}

fn layer_metrics(m: &mut Metrics, led: &Ledger, ph: &Phase, plain: &Phase) {
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let runs = led.runs;
    m.put(
        "cpu.step_ns_per_cycle",
        per(led.step_ns, led.step_cycles),
        "ns",
    );
    m.put("cpu.decode_ns", per(led.decode_ns, runs), "ns");
    m.put("cpu.load_ns", per(led.load_ns, runs), "ns");
    m.put("cpu.mem_io_ns", per(led.mem_io_ns, runs), "ns");
    m.put(
        "cpu.fast_path_ratio",
        per(led.fast_runs as f64, runs),
        "fraction",
    );
    m.put("core.runner.ns_per_run", per(led.run_call_ns, runs), "ns");
    m.put("core.runner.build_ns", per(led.build_ns, runs), "ns");
    m.put(
        "core.kernels.assemble_ns",
        per(led.assemble_call_ns, led.assemblies),
        "ns",
    );
    m.put(
        "core.progcache.miss_ratio",
        per(led.misses as f64, runs),
        "fraction",
    );
    m.put(
        "query.index.build_ns",
        per(led.index_ns, led.index_builds),
        "ns",
    );
    m.put(
        "query.index.builds_per_query",
        per(led.index_builds as f64, led.queries),
        "fraction",
    );
    m.put(
        "query.engine.self_ns_per_query",
        per(led.engine_self_ns, led.queries),
        "ns",
    );
    m.put(
        "query.engine.set_ops_per_query",
        per(led.set_ops as f64, led.queries),
        "count",
    );
    m.put(
        "query.service.self_ns_per_req",
        per(led.service_self_ns, led.ops),
        "ns",
    );
    m.put("storage.commit_ns", per(led.commit_ns, led.writes), "ns");
    m.put(
        "storage.commit_p99_us",
        quantile(&led.commit_times, 0.99) / 1e3,
        "us",
    );
    m.put(
        "storage.wal_bytes_per_write",
        per(led.wal_bytes as f64, led.writes),
        "bytes",
    );
    m.put(
        "storage.bytes_per_user_byte",
        per(led.disk_bytes as f64, led.user_bytes),
        "ratio",
    );
    let calib: Vec<f64> = plain.calib_ns.iter().chain(&ph.calib_ns).copied().collect();
    m.put("host.calib_ns", median(&calib), "ns");
    m.put(
        "host.trace_overhead",
        per(ph.wall_ns, ph.ops) / per(plain.wall_ns, plain.ops) - 1.0,
        "fraction",
    );
    m.put(
        "host.unattributed_share",
        (led.wall_ns - led.attributed_ns()) / led.wall_ns,
        "fraction",
    );
}

/// Prints the ledger per traced op: every layer's self time and the
/// unattributed residual, which add up to the traced wall time.
fn print_ledger(led: &Ledger) {
    let per_op = |x: f64| {
        if led.ops == 0 {
            0.0
        } else {
            x / led.ops as f64
        }
    };
    let residual = led.wall_ns - led.attributed_ns();
    println!(
        "per op: traced wall {:.0} ns = layer self times {:.0} ns + unattributed {:.0} ns; {:.3} kernel runs per op",
        per_op(led.wall_ns),
        per_op(led.attributed_ns()),
        per_op(residual),
        per_op(led.runs as f64),
    );
    for (layer, ns) in [
        ("cpu step loop", led.step_ns),
        ("cpu decode", led.decode_ns),
        ("cpu program load", led.load_ns),
        ("cpu memory poke/peek", led.mem_io_ns),
        ("core processor build", led.build_ns),
        ("core kernel assembly", led.assemble_ns),
        ("core runner self", led.runner_self_ns),
        ("query index build", led.index_ns),
        ("query engine self", led.engine_self_ns),
        ("query service self", led.service_self_ns),
        ("storage commit", led.commit_ns),
        ("unattributed", residual),
    ] {
        println!("  self {layer:<24} {:>12.0} ns/op", per_op(ns));
    }
}
