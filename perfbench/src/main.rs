//! `perfbench`: the per-process half of the repository benchmark.
//!
//! `run.py` builds this binary and starts one process per operation, so
//! each process runs exactly one workload and its peak RSS is that
//! workload's. Every subcommand prints one JSON object on stdout:
//!
//! * `calib` — host context: `nproc` and the effective core count (wall
//!   time of one spinning thread against two).
//! * `oracle --workload W --seed S` — the answer computed without the
//!   simulator.
//! * `op --workload W --seed S --expect N` — set-up probes, then one timed
//!   `dcs_core::run` (the end-to-end metrics).
//! * `trace --workload W --seed S --expect N` — one untraced `run` and one
//!   traced assembly of the same run, checked equal counter by counter,
//!   plus isolated kernel timings (the per-layer metrics).

mod hist;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dcs_apps::{lcs, sha1};
use dcs_core::{run, Program, RunReport, Violation};
use dcs_sim::{EventQueue, VTime};

use workload::{Input, Workload};

/// Set-up probes per `op` process; `run.py` reports the median over all.
const SETUP_REPS: usize = 5;
/// Host time each isolated kernel loop runs for.
const KERNEL_TIME: Duration = Duration::from_millis(150);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        die("usage: perfbench <calib|oracle|op|trace> [--workload W --seed S --expect N]")
    };
    if cmd == "calib" {
        return calib();
    }
    let flag = |name: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == name)?;
        args.get(i + 1).map(String::as_str)
    };
    let name = flag("--workload").unwrap_or_else(|| die("missing --workload"));
    let seed: u64 = flag("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die("missing or bad --seed"));
    let wl = Workload::new(name, seed).unwrap_or_else(|| {
        die(&format!(
            "unknown workload '{name}' (one of {:?})",
            workload::NAMES
        ))
    });
    if cmd == "oracle" {
        println!("{{\"answer\": {}}}", wl.inputs().reference());
        return;
    }
    let expect: u64 = flag("--expect")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die("missing or bad --expect"));
    match cmd.as_str() {
        "op" => op(&wl, expect),
        "trace" => trace(&wl, expect),
        other => die(&format!("unknown subcommand '{other}'")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// Why a run does not count as a success, if it does not.
fn check(r: &RunReport, expect: u64) -> Option<String> {
    if !r.outcome.is_complete() {
        return Some(format!("outcome {:?}", r.outcome));
    }
    // Leaks are reported only when `run()` drops strict mode for a kill
    // plan, where entries on a dead worker's segment can never be freed;
    // every other violation is a real fault (the kill proptests judge the
    // same way).
    if let Some(wd) = &r.watchdog {
        let real: Vec<String> = wd
            .violations
            .iter()
            .filter(|v| !matches!(v, Violation::Leak { .. }))
            .map(Violation::to_string)
            .collect();
        if !real.is_empty() {
            return Some(format!("watchdog: {}", real.join("; ")));
        }
    }
    let got = r.result.as_u64();
    (got != expect).then(|| format!("answer {got}, reference {expect}"))
}

/// Every deterministic counter a run reports, by name. Two runs of the same
/// program and seed must agree on all of them exactly.
fn counters(r: &RunReport) -> BTreeMap<&'static str, u64> {
    let s = &r.stats;
    let f = &r.fabric;
    BTreeMap::from([
        ("result", r.result.as_u64()),
        ("vtime_ns", r.elapsed.as_ns()),
        ("steps", r.steps),
        ("threads", r.threads),
        ("busy_total_ns", r.busy_total.as_ns()),
        ("uni_peak", r.uni_peak),
        ("iso_peak", r.iso_peak),
        ("uni_conflicts", r.uni_conflicts),
        ("evac_peak", r.evac_peak),
        ("full_stack_peak", r.full_stack_peak),
        ("steals_ok", s.steals_ok),
        ("steals_failed", s.steals_failed),
        ("steals_abandoned", s.steals_abandoned),
        ("blacklist_skips", s.blacklist_skips),
        ("steal_latency_avg_ns", s.avg_steal_latency().as_ns()),
        ("copy_time_avg_ns", s.avg_copy_time().as_ns()),
        ("stolen_bytes_avg", s.avg_stolen_bytes()),
        ("outstanding_joins", s.outstanding_joins),
        ("outstanding_time_avg_ns", s.avg_outstanding_time().as_ns()),
        ("joins_fast", s.joins_fast),
        ("die_fast", s.die_fast),
        ("die_won", s.die_won),
        ("die_lost", s.die_lost),
        ("threads_spawned", s.threads_spawned),
        ("threads_died", s.threads_died),
        ("workers_lost", s.workers_lost),
        ("tasks_lost", s.tasks_lost),
        ("tasks_replayed", s.tasks_replayed),
        ("ckpt_puts", s.ckpt_puts),
        ("false_suspects", s.false_suspects),
        ("rejoins", s.rejoins),
        ("ff_dups", s.ff_dups),
        ("ff_lost_races", s.ff_lost_races),
        ("remote_gets", f.remote_gets),
        ("remote_puts", f.remote_puts),
        ("remote_amos", f.remote_amos),
        ("local_ops", f.local_ops),
        ("bytes_got", f.bytes_got),
        ("bytes_put", f.bytes_put),
        ("messages_sent", f.messages_sent),
        ("messages_handled", f.messages_handled),
        ("retries", f.retries),
        ("timeouts", f.timeouts),
        ("dead_fails", f.dead_fails),
        ("max_inflight", f.max_inflight),
        ("cq_polls", f.cq_polls),
        ("doorbell_chained", f.doorbell_chained),
        ("fenced_verbs", f.fenced_verbs),
        ("peak_resident_bytes", f.peak_resident_bytes),
    ])
}

fn json_map<V: std::fmt::Display>(m: &BTreeMap<&str, V>) -> String {
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print a result line; `error` set means the operation failed.
fn emit(error: Option<String>, fields: &[(&str, String)]) {
    let mut parts = vec![
        format!("\"ok\": {}", error.is_none()),
        format!("\"error\": {}", json_str(error.as_deref().unwrap_or(""))),
    ];
    parts.extend(fields.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    println!("{{{}}}", parts.join(", "));
}

/// Peak resident set size of this process, in MiB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up time: input generation plus a `run()` of the same configuration
/// whose root task returns at once.
fn setup_probe(wl: &Workload) -> (Duration, Input) {
    let t0 = Instant::now();
    let input = wl.inputs();
    let r = run(wl.cfg.clone(), Program::new(workload::empty_root, 0u64));
    let dt = t0.elapsed();
    assert!(r.outcome.is_complete(), "set-up probe did not complete");
    (dt, input)
}

fn op(wl: &Workload, expect: u64) {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let (dt, inp) = setup_probe(wl);
        setup.push(dt.as_secs_f64());
        input = Some(inp);
    }
    let program = input.expect("at least one set-up probe").program();
    let t0 = Instant::now();
    let r = run(wl.cfg.clone(), program);
    let host = t0.elapsed().as_secs_f64();
    let setup: Vec<String> = setup.iter().map(f64::to_string).collect();
    emit(
        check(&r, expect),
        &[
            ("host_s", host.to_string()),
            ("setup_s", format!("[{}]", setup.join(", "))),
            ("rss_mb", vm_hwm_mb().to_string()),
            ("det", json_map(&counters(&r))),
        ],
    );
}

/// Repeat `f` until `KERNEL_TIME` has passed; host ns per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 0u64;
    let t0 = Instant::now();
    loop {
        for _ in 0..64 {
            f();
        }
        calls += 64;
        let dt = t0.elapsed();
        if dt >= KERNEL_TIME {
            return dt.as_nanos() as f64 / calls as f64;
        }
    }
}

/// One `EventQueue` pop + push at a steady heap size of `workers`, with
/// pseudo-random reschedule offsets (the engine's slow path).
fn queue_ns_per_op(workers: usize) -> f64 {
    let mut q = EventQueue::new(workers);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    ns_per_call(|| {
        let (t, w) = q.pop().expect("queue never drains");
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        q.push(t + VTime::ns(1 + (x >> 53)), black_box(w));
    })
}

/// Host ns per DP cell of `lcs::leaf_kernel` on a random `block²` block.
fn lcs_leaf_ns_per_cell(block: usize) -> f64 {
    let p = lcs::LcsParams::random(block as u64, block as u64, 1);
    let zeros = vec![0u32; block + 1];
    let per_call = ns_per_call(|| {
        black_box(lcs::leaf_kernel(
            black_box(&p.a),
            black_box(&p.b),
            0,
            0,
            block,
            &zeros,
            &zeros,
        ));
    });
    per_call / (block * block) as f64
}

/// Host ns per `sha1::sha1_child` (one UTS child derivation).
fn sha1_child_ns() -> f64 {
    let mut d = [7u8; sha1::DIGEST_LEN];
    let mut i = 0u32;
    ns_per_call(|| {
        d = sha1::sha1_child(black_box(&d), i);
        i = i.wrapping_add(1);
    })
}

fn trace(wl: &Workload, expect: u64) {
    let input = wl.inputs();
    let t0 = Instant::now();
    let plain = run(wl.cfg.clone(), input.program());
    let host = t0.elapsed().as_secs_f64();
    let (traced, spans) = traced::run_traced(wl.cfg.clone(), input.program());

    let det = counters(&plain);
    let mut error = check(&plain, expect);
    let traced_det = counters(&traced);
    if error.is_none()
        && (traced_det != det || traced.outcome != plain.outcome || spans.steps != plain.steps)
    {
        let diff: Vec<String> = det
            .iter()
            .filter(|(k, v)| traced_det.get(*k) != Some(*v))
            .map(|(k, v)| format!("{k}: {v} vs {:?}", traced_det.get(k)))
            .collect();
        error = Some(format!(
            "traced run differs from run(): {}",
            diff.join(", ")
        ));
    }

    let workers = wl.cfg.workers as f64;
    let s = &plain.stats;
    let f = &plain.fabric;
    let attempts = s.steals_ok + s.steals_failed;
    let steal_success = if attempts == 0 {
        0.0
    } else {
        s.steals_ok as f64 / attempts as f64
    };
    let busy_frac = plain.busy_total.as_ns() as f64 / (workers * plain.elapsed.as_ns() as f64);
    let layer_det = BTreeMap::from([
        ("engine.steps", spans.steps as f64),
        ("engine.parks", spans.parks as f64),
        ("engine.wakes", spans.wakes as f64),
        ("sched.steals_ok", s.steals_ok as f64),
        ("sched.steals_failed", s.steals_failed as f64),
        ("sched.steal_success", steal_success),
        ("sched.steals_abandoned", s.steals_abandoned as f64),
        ("sched.steal_latency_us", s.avg_steal_latency().as_us_f64()),
        ("sched.joins_fast", s.joins_fast as f64),
        ("sched.joins_outstanding", s.outstanding_joins as f64),
        ("sched.join_wait_us", s.avg_outstanding_time().as_us_f64()),
        ("sched.busy_frac", busy_frac),
        ("sched.threads", plain.threads as f64),
        ("machine.remote_gets", f.remote_gets as f64),
        ("machine.remote_puts", f.remote_puts as f64),
        ("machine.remote_amos", f.remote_amos as f64),
        ("machine.bytes_moved", (f.bytes_got + f.bytes_put) as f64),
        ("machine.cq_polls", f.cq_polls as f64),
        ("machine.doorbell_chained", f.doorbell_chained as f64),
        ("machine.max_inflight", f.max_inflight as f64),
        ("machine.fenced_verbs", f.fenced_verbs as f64),
        ("machine.retries", f.retries as f64),
        ("mem.peak_resident_bytes", f.peak_resident_bytes as f64),
        (
            "mem.bytes_per_worker",
            f.peak_resident_bytes as f64 / workers,
        ),
        ("uniaddr.peak_bytes", plain.uni_peak as f64),
        ("uniaddr.evac_peak_bytes", plain.evac_peak as f64),
        ("uniaddr.conflicts", plain.uni_conflicts as f64),
        ("recovery.workers_lost", s.workers_lost as f64),
        ("recovery.tasks_replayed", s.tasks_replayed as f64),
        ("recovery.ckpt_puts", s.ckpt_puts as f64),
        ("recovery.false_suspects", s.false_suspects as f64),
    ]);

    let secs = |d: Duration| d.as_secs_f64();
    let engine_self = spans.engine_run.saturating_sub(spans.step + spans.wake);
    let leaf_ns = lcs_leaf_ns_per_cell(workload::LCS_BLOCK as usize);
    let sha_ns = sha1_child_ns();
    let unit_ns = match input {
        Input::Uts(_) => sha_ns,
        Input::Lcs(_) => leaf_ns,
    };
    let kernel_s = input.kernel_units(plain.result.as_u64()) as f64 * unit_ns * 1e-9;
    let layer_time = BTreeMap::from([
        ("engine.self_s", secs(engine_self)),
        (
            "engine.self_ns_per_step",
            engine_self.as_nanos() as f64 / spans.steps.max(1) as f64,
        ),
        ("engine.queue_ns_per_op", queue_ns_per_op(wl.cfg.workers)),
        ("sched.step_s", secs(spans.step)),
        ("sched.step_ns_p50", spans.step_hist.quantile(0.50)),
        ("sched.step_ns_p99", spans.step_hist.quantile(0.99)),
        ("machine.wake_s", secs(spans.wake)),
        ("setup.machine_s", secs(spans.machine)),
        ("setup.runtime_s", secs(spans.runtime)),
        ("setup.workers_s", secs(spans.workers)),
        ("setup.teardown_s", secs(spans.teardown)),
        ("apps.lcs_leaf_ns_per_cell", leaf_ns),
        ("apps.sha1_child_ns", sha_ns),
        ("apps.kernel_share", kernel_s / host),
        ("trace.overhead", secs(spans.total) / host),
    ]);
    emit(
        error,
        &[
            ("host_s", host.to_string()),
            ("det", json_map(&det)),
            ("layer_det", json_map(&layer_det)),
            ("layer_time", json_map(&layer_time)),
        ],
    );
}

/// Spin for a fixed amount of integer work; returns a value so the loop
/// cannot be removed.
fn spin(iters: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..iters {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    x
}

fn calib() {
    const ITERS: u64 = 60_000_000;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    black_box(spin(ITERS / 10));
    let t0 = Instant::now();
    black_box(spin(ITERS));
    let one = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(ITERS));
        let b = s.spawn(|| spin(ITERS));
        black_box(a.join().expect("spinner panicked") ^ b.join().expect("spinner panicked"));
    });
    let two = t0.elapsed().as_secs_f64();
    println!(
        "{{\"nproc\": {nproc}, \"one_thread_s\": {one}, \"two_threads_s\": {two}, \"effective_cores\": {}}}",
        2.0 * one / two
    );
}
