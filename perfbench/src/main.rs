//! The repository benchmark: four workloads over the simulator and the
//! native lock service, measured end to end (tracing off) or per layer
//! (`--trace 1`).
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_two_phase --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Everything above it
//! is a human-readable report. See `perfbench/README.md` for the
//! workloads, the metrics and the layer map.

mod native;
mod probes;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;

/// Command-line arguments; every one is required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `std::thread::available_parallelism` of the host.
    pub host_cores: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    if kv.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

const WORKLOADS: [&str; 4] = [
    "sim_two_phase",
    "sim_cluster",
    "native_hot",
    "native_spread",
];

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("grants_per_s", "1/s"),
    ("acquire_p50_ns", "ns"),
    ("acquire_p99_ns", "ns"),
    ("mem_bytes", "bytes"),
];

/// One measured round: a fixed unit of the workload's work.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Host seconds, as measured.
    pub wall_s: f64,
    /// Mean calibration pass around the round (see [`Calib`]); filled
    /// in by [`run_rounds`].
    pub cal_s: f64,
    /// Lock grants completed in the round (simulated or real).
    pub grants: u64,
    pub traced: bool,
}

/// What a workload run hands back to the report.
pub struct Outcome {
    /// Median of the set-up samples, in seconds.
    pub setup_s: f64,
    pub rounds: Vec<Round>,
    /// Acquire latencies in ns: calibrated host time per sampled
    /// request (native), or simulated time per acquire on the modelled
    /// machine (sim).
    pub latencies_ns: Vec<f64>,
    /// Operations attempted and failed, as `fail_ratio` counts them.
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and validity guards; `true` = held.
    pub checks: Vec<(String, bool)>,
    /// Further end-to-end rows for the human report only (`sim_cycles`,
    /// `sim_wall_s`), which not every workload has.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer counts and timings from the workload itself.
    pub layer: BTreeMap<&'static str, f64>,
    /// Threads the workload ran on.
    pub threads: usize,
    /// The workload's own memory measure (the native service's
    /// footprint); `None` means the process's peak RSS.
    pub mem_bytes: Option<f64>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn new(setup_s: f64, threads: usize) -> Outcome {
        Outcome {
            setup_s,
            rounds: Vec::new(),
            latencies_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            extra: Vec::new(),
            layer: BTreeMap::new(),
            threads,
            mem_bytes: None,
            spans: Vec::new(),
        }
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

/// Nominal duration of one calibration pass. Every reported timing is
/// scaled by `CAL_REF_S / measured pass`: host seconds on a host whose
/// calibration pass takes exactly 10 ms.
pub const CAL_REF_S: f64 = 0.010;

/// Host-speed calibration: a fixed pass of integer arithmetic and
/// random reads over 16 MiB (past L2, into the shared L3), timed next
/// to every measured round. Shared
/// hosts drift by tens of percent within minutes; the pass slows with
/// the host, so the ratio of a round to its neighbouring passes stays
/// put while raw seconds wander.
pub struct Calib {
    buf: Vec<u64>,
}

impl Calib {
    fn new() -> Calib {
        Calib {
            buf: (0..1u64 << 21)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }

    /// Seconds one pass takes now on each of `threads` threads at once,
    /// the slowest: a workload on several cores runs at the pace of its
    /// slowest core.
    pub fn pass_on(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.pass();
        }
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..threads).map(|_| s.spawn(|| self.pass())).collect();
            hs.into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .fold(0.0, f64::max)
        })
    }

    /// Seconds one pass takes now.
    pub fn pass(&self) -> f64 {
        let t0 = Instant::now();
        let (mut x, mut acc) = (1u64, 0u64);
        for _ in 0..2_400_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // The top 21 bits index the 2^21-word buffer.
            acc = acc.wrapping_add(self.buf[(x >> 43) as usize] ^ acc.rotate_left(7));
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

/// Run `round` until `seconds` have passed and at least `min_rounds`
/// rounds are done, with a calibration pass on `threads` threads
/// between rounds. In trace mode rounds alternate traced and untraced,
/// so one run measures both sides of the tracing overhead.
pub fn run_rounds(
    args: &Args,
    min_rounds: usize,
    threads: usize,
    tracer: &mut Tracer,
    mut round: impl FnMut(bool, &mut Tracer) -> Round,
) -> Vec<Round> {
    let cal = Calib::new();
    let mut before = cal.pass_on(threads);
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || t0.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && out.len() % 2 == 1;
        let mut r = round(traced, tracer);
        let after = cal.pass_on(threads);
        r.cal_s = (before + after) / 2.0;
        before = after;
        out.push(r);
    }
    out
}

/// Calibrated median of `n` set-up samples: `f` returns its own timing
/// (so it can exclude tear-down); each sample is scaled by the mean of
/// the calibration passes around it.
pub fn median_setup(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let cal = Calib::new();
    let mut before = cal.pass();
    let mut v: Vec<f64> = (0..n)
        .map(|_| {
            let dt = f();
            let after = cal.pass();
            let scaled = dt * CAL_REF_S * 2.0 / (before + after);
            before = after;
            scaled
        })
        .collect();
    quantile(&mut v, 0.5)
}

impl Round {
    /// `wall_s` at the reference host speed.
    pub fn norm_s(&self) -> f64 {
        self.wall_s * CAL_REF_S / self.cal_s
    }
}

/// Quantile `p` of `v` (sorted in place). Up to 10,000 values use
/// linear interpolation between closest ranks. Larger sample sets
/// (latency samples: whole nanoseconds or cycles that pile up on a few
/// values, in mixtures whose modes shift with the host's cache state)
/// report the mean of the samples within a rank window around `p` of
/// half-width `n * min(p, 1 - p) / 5`: the 40th to 60th percentile at
/// the median, the 98.8th to 99.2nd at p99.
pub fn quantile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10_000 {
        let h = (n - 1) as f64 * p;
        let lo = h.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        return v[lo] + (h - lo as f64) * (v[hi] - v[lo]);
    }
    let w = (n as f64 * p.min(1.0 - p) / 5.0) as usize;
    let c = ((n - 1) as f64 * p) as usize;
    let (lo, hi) = (c.saturating_sub(w), (c + w).min(n - 1));
    v[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0)
}

/// Median uncalibrated wall and median calibration pass of the
/// untraced rounds.
fn raw_wall_and_cal(rounds: &[Round]) -> (f64, f64) {
    let plain = rounds.iter().filter(|r| !r.traced);
    let mut w: Vec<f64> = plain.clone().map(|r| r.wall_s).collect();
    let mut c: Vec<f64> = plain.map(|r| r.cal_s).collect();
    (quantile(&mut w, 0.5), quantile(&mut c, 0.5))
}

/// The end-to-end metrics of an outcome, from its untraced rounds.
fn e2e(o: &Outcome, mem_bytes: f64) -> BTreeMap<&'static str, f64> {
    let plain: Vec<&Round> = o.rounds.iter().filter(|r| !r.traced).collect();
    let mut walls: Vec<f64> = plain.iter().map(|r| r.norm_s()).collect();
    let total_s: f64 = walls.iter().sum();
    let grants: u64 = plain.iter().map(|r| r.grants).sum();
    let mut lat = o.latencies_ns.clone();
    BTreeMap::from([
        ("setup_s", o.setup_s),
        ("wall_s", quantile(&mut walls, 0.5)),
        ("grants_per_s", grants as f64 / total_s),
        ("acquire_p50_ns", quantile(&mut lat, 0.5)),
        ("acquire_p99_ns", quantile(&mut lat, 0.99)),
        ("mem_bytes", mem_bytes),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // A hung run (a deadlocked lock, a stuck cluster barrier) must still
    // end: past the limit the process exits non-zero without a result.
    let limit = args.seconds * 3.0 + 120.0;
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(limit));
        eprintln!("perfbench: run exceeded {limit} s; aborting without a result");
        std::process::exit(3);
    });
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let mut out = match args.workload.as_str() {
        "sim_two_phase" => sim::two_phase(&args, &mut tracer),
        "sim_cluster" => sim::cluster(&args, &mut tracer),
        "native_hot" => native::run(&args, native::Kind::Hot, epoch, &mut tracer),
        "native_spread" => native::run(&args, native::Kind::Spread, epoch, &mut tracer),
        _ => unreachable!("workload validated in parse_args"),
    };
    // Peak RSS before any probe runs, so it reflects the workload only.
    let mem = out.mem_bytes.unwrap_or_else(peak_rss_bytes);
    out.spans.append(&mut tracer.spans);
    let guard_threads = out.threads <= args.host_cores;
    out.check(
        format!("threads {} <= host_cores {}", out.threads, args.host_cores),
        guard_threads,
    );
    if !guard_threads {
        out.attempted += 1;
        out.failed += 1;
    }
    let e2e = e2e(&out, mem);
    let mut correct = out.checks.iter().all(|(_, ok)| *ok) && out.failed == 0;

    println!(
        "perfbench {} seed {} host_cores {} threads {} rounds {} ({} traced)",
        args.workload,
        args.seed,
        args.host_cores,
        out.threads,
        out.rounds.len(),
        out.rounds.iter().filter(|r| r.traced).count()
    );
    for (name, ok) in &out.checks {
        println!("  check {:<58} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<24} {:>18} ({} failed / {} attempted)",
        "fail_ratio", fail_ratio, out.failed, out.attempted
    );
    for (name, unit) in E2E {
        println!("  {:<24} {:>18.6} {unit}", name, e2e[name]);
    }
    for (name, v, unit) in &out.extra {
        println!("  {:<24} {:>18.6} {unit}", name, v);
    }
    let (raw_wall, cal) = raw_wall_and_cal(&out.rounds);
    println!(
        "  (raw median round {raw_wall:.6} s; calibration pass {cal:.6} s vs {CAL_REF_S} s reference)"
    );

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let layer = per_layer(&args, &out, &e2e);
        for (name, v, unit) in &layer {
            println!("  {:<32} {:>18.6} {unit}", name, v);
        }
        let path = format!("perfbench/traces/{}-seed{}.csv", args.workload, args.seed);
        match trace::write(&path, &out.spans) {
            Ok(()) => println!("  spans: {} written to {path}", out.spans.len()),
            Err(e) => println!("  spans: {} kept, not written ({e})", out.spans.len()),
        }
        layer
    } else {
        E2E.iter()
            .map(|&(n, u)| (n.to_string(), e2e[n], u))
            .collect()
    };
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        correct = false;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

/// Every per-layer metric for the traced run: the workload's own layer
/// counts (zero where the workload does not reach the layer), the
/// isolated probe timings, each layer's self time from the spans, each
/// layer's estimated share of the workload's wall time, and the tracing
/// overhead.
fn per_layer(
    args: &Args,
    o: &Outcome,
    e2e: &BTreeMap<&'static str, f64>,
) -> Vec<(String, f64, &'static str)> {
    let p = probes::run_all();
    let count = |k: &str| o.layer.get(k).copied().unwrap_or(0.0);
    let mut rows: Vec<(String, f64, &'static str)> = Vec::new();
    for &(name, unit) in probes::LAYER_COUNTS {
        rows.push((name.to_string(), count(name), unit));
    }
    for (name, ns) in &p {
        rows.push((name.to_string(), *ns, "ns"));
    }
    rows.push(("bench.host_cores".into(), args.host_cores as f64, "count"));
    rows.push(("bench.threads".into(), o.threads as f64, "count"));
    rows.push(("bench.calib_s".into(), raw_wall_and_cal(&o.rounds).1, "s"));

    // Self time per layer, from the spans of the traced rounds.
    let selfs = trace::self_times(&o.spans);
    let per = |name: &str| selfs.get(name).map_or(0.0, |&(ns, n)| ns / n.max(1) as f64);
    rows.push(("self.bench_round_s".into(), per("bench.round") / 1e9, "s"));
    rows.push(("self.sim_run_s".into(), per("sim.run") / 1e9, "s"));
    rows.push(("self.client_ns".into(), per("client.request"), "ns"));
    rows.push((
        "self.service_acquire_ns".into(),
        per("service.acquire"),
        "ns",
    ));
    rows.push((
        "self.service_release_ns".into(),
        per("service.release"),
        "ns",
    ));

    // Estimated share of the round's thread time: probe ns/op times the
    // workload's count of that op. Shares overlap (a coherence probe
    // also pays executor costs), so they need not sum to 1.
    // Probes are raw host time, so the base is the raw median round.
    let thread_ns = raw_wall_and_cal(&o.rounds).0 * 1e9 * o.threads as f64;
    // Layer counts are per round, except the service's cumulative
    // counters, which span every round of the run.
    let rounds = o.rounds.len().max(1) as f64;
    let g = |k: &str| p.iter().find(|(n, _)| *n == k).map_or(0.0, |x| x.1);
    let shares = [
        ("share.exec", g("exec.work_ns") * count("sim.events")),
        (
            "share.coherence",
            g("coherence.faa_ns") * count("coherence.dir_requests"),
        ),
        (
            "share.stats",
            g("stats.record_wait_ns") * count("stats.waits_recorded")
                + g("stats.bump_ns") * count("stats.bumps"),
        ),
        (
            "share.thread",
            g("thread.pingpong_ns") * count("thread.blocks"),
        ),
        (
            "share.parallel",
            g("parallel.epoch_ns") * count("parallel.epochs")
                + g("parallel.post_ns") * count("parallel.remote_msgs"),
        ),
        (
            "share.service_flat",
            g("service.flat_acquire_ns") * count("service.cold_object_grants"),
        ),
        (
            "share.service_inflated",
            g("service.inflated_acquire_ns") * count("service.hot_object_grants"),
        ),
        (
            "share.deadline",
            g("service.deadline_ns") * count("service.attempts"),
        ),
        (
            "share.limiter",
            g("limiter.try_acquire_ns")
                * (count("service.inflations") + count("service.deflations"))
                / rounds,
        ),
    ];
    for (name, ns) in shares {
        rows.push((name.to_string(), ns / thread_ns, "ratio"));
    }

    // Tracing overhead: traced minus untraced median round wall.
    let mut traced: Vec<f64> = o
        .rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.norm_s())
        .collect();
    let traced_wall = quantile(&mut traced, 0.5);
    let overhead = traced_wall - e2e["wall_s"];
    rows.push(("trace.overhead_s".into(), overhead, "s"));
    rows.push((
        "trace.overhead_ratio".into(),
        overhead / e2e["wall_s"],
        "ratio",
    ));
    rows
}
