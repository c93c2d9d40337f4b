//! Fig. 6 companion — the two steal-protocol families head-to-head on
//! RecPFor (ITO-A).
//!
//! The deque hot path comes in two flavours (docs/PROTOCOLS.md):
//!
//! * `cas-lock`   — thieves serialize on a per-deque lock word (CAS to
//!   acquire, put to release); the paper's protocol and the baseline
//!   everywhere else in the repo,
//! * `fence-free` — thieves use plain reads and writes only (zero AMO
//!   verbs on the steal path); the resulting bounded multiplicity is
//!   closed at runtime by the done-flag/lineage dedup, so a doubly-taken
//!   task executes at most once observably.
//!
//! Reported per (config, protocol, fabric mode): virtual makespan, mean
//! steal latency, steal and AMO counts, and the fence-free dup/lost-race
//! counters that measure how often the multiplicity bound is actually
//! exercised. Acceptance bars asserted here:
//!
//! 1. fence-free issues strictly fewer remote AMOs than cas-lock in every
//!    cell, and **zero** under child-rtc + local collection (no DIE flags,
//!    no free-queue locks — the steal path is the only AMO client left);
//! 2. under `FabricMode::Pipelined` the fence-free thief overlaps the
//!    payload copy with the claim write (max verbs in flight ≥ 2).

use dcs_apps::pfor::{recpfor_program, PforParams};
use dcs_bench::{quick, sweep, workers_default, Csv};
use dcs_core::prelude::*;

struct Config {
    name: &'static str,
    policy: Policy,
    free: FreeStrategy,
}

const CONFIGS: [Config; 2] = [
    Config {
        name: "greedy",
        policy: Policy::ContGreedy,
        free: FreeStrategy::LocalCollection,
    },
    Config {
        name: "child-rtc",
        policy: Policy::ChildRtc,
        free: FreeStrategy::LocalCollection,
    },
];

const MODES: [FabricMode; 2] = [FabricMode::Blocking, FabricMode::Pipelined];

/// One cell: (elapsed, mean steal latency, steals, AMOs, dups, lost races,
/// max verbs in flight).
type Cell = (VTime, VTime, u64, u64, u64, u64, u64);

fn main() {
    let jobs = sweep::jobs_or_exit();
    let p = workers_default(if quick() { 8 } else { 32 });
    let n: u64 = if quick() { 256 } else { 1024 };
    let params = PforParams::paper(n);
    let profile = profiles::itoa();

    println!(
        "=== Fig. 6 protocols: RecPFor N = {n}, P = {p}, {} ===\n",
        profile.name
    );

    const REPS: u64 = 3;
    let mut cells: Vec<(usize, usize, usize, u64)> = Vec::new();
    for ci in 0..CONFIGS.len() {
        for pi in 0..Protocol::ALL.len() {
            for mi in 0..MODES.len() {
                for rep in 0..REPS {
                    cells.push((ci, pi, mi, rep));
                }
            }
        }
    }
    let raw: Vec<Cell> = sweep::run_matrix(&cells, jobs, |_, &(ci, pi, mi, rep)| {
        let cfg = &CONFIGS[ci];
        let r = run(
            RunConfig::new(p, cfg.policy)
                .with_profile(profile.clone())
                .with_free_strategy(cfg.free)
                .with_protocol(Protocol::ALL[pi])
                .with_fabric(MODES[mi])
                .with_seed(0x5EED + rep)
                .with_seg_bytes(64 << 20),
            recpfor_program(params),
        );
        assert!(
            r.outcome.is_complete(),
            "{} / {}: run completes",
            cfg.name,
            Protocol::ALL[pi].label()
        );
        (
            r.elapsed,
            r.stats.avg_steal_latency(),
            r.stats.steals_ok,
            r.fabric.remote_amos,
            r.stats.ff_dups,
            r.stats.ff_lost_races,
            r.fabric.max_inflight,
        )
    });
    // Mean the reps back into one cell per (config, protocol, mode).
    let mean = |ci: usize, pi: usize, mi: usize| -> Cell {
        let base = ((ci * Protocol::ALL.len() + pi) * MODES.len() + mi) * REPS as usize;
        let (mut e, mut l, mut s, mut a, mut dup, mut lost, mut d) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for r in 0..REPS as usize {
            let (re, rl, rs, ra, rdup, rlost, rd) = raw[base + r];
            e += re.as_ns();
            l += rl.as_ns();
            s += rs;
            a += ra;
            dup += rdup;
            lost += rlost;
            d = d.max(rd);
        }
        (
            VTime::ns(e / REPS),
            VTime::ns(l / REPS),
            s / REPS,
            a / REPS,
            dup / REPS,
            lost / REPS,
            d,
        )
    };

    let mut csv = Csv::create(
        "fig6_protocols",
        "config,protocol,fabric,p,n,elapsed_ns,steal_lat_ns,steals_ok,remote_amos,ff_dups,ff_lost,max_inflight,makespan_vs_caslock,steal_lat_vs_caslock",
    );
    println!(
        "{:<10} {:<11} {:>10} {:>12} {:>12} {:>7} {:>8} {:>5} {:>5} {:>9} {:>9}",
        "config", "protocol", "fabric", "elapsed", "steal-lat", "steals", "amos", "dups", "lost", "makespan", "lat-ratio"
    );

    for (ci, cfg) in CONFIGS.iter().enumerate() {
        for (mi, mode) in MODES.iter().enumerate() {
            // Ratios are against cas-lock under the same fabric mode.
            let (be, bl, _, ba, _, _, _) = mean(ci, 0, mi);
            for (pi, proto) in Protocol::ALL.iter().enumerate() {
                let (e, l, s, a, dup, lost, d) = mean(ci, pi, mi);
                let mk_ratio = e.as_ns() as f64 / be.as_ns() as f64;
                let lat_ratio = if bl.as_ns() == 0 {
                    1.0
                } else {
                    l.as_ns() as f64 / bl.as_ns() as f64
                };
                if *proto == Protocol::FenceFree {
                    assert!(
                        a < ba,
                        "acceptance: fence-free must issue fewer AMOs than \
                         cas-lock ({a} vs {ba}, {} {})",
                        cfg.name,
                        mode.label()
                    );
                    if cfg.policy == Policy::ChildRtc {
                        assert_eq!(
                            a, 0,
                            "acceptance: child-rtc + local collection + \
                             fence-free is the zero-AMO configuration"
                        );
                    }
                    if *mode == FabricMode::Pipelined && s > 0 {
                        assert!(
                            d >= 2,
                            "acceptance: pipelined fence-free steals overlap \
                             the claim write with the payload copy"
                        );
                    }
                }
                println!(
                    "{:<10} {:<11} {:>10} {:>12} {:>12} {:>7} {:>8} {:>5} {:>5} {:>8.3}x {:>9.3}",
                    cfg.name, proto.label(), mode.label(), e.to_string(), l.to_string(), s, a, dup, lost, mk_ratio, lat_ratio
                );
                csv.row(&[
                    &cfg.name,
                    &proto.label(),
                    &mode.label(),
                    &p,
                    &n,
                    &e.as_ns(),
                    &l.as_ns(),
                    &s,
                    &a,
                    &dup,
                    &lost,
                    &d,
                    &format!("{mk_ratio:.4}"),
                    &format!("{lat_ratio:.4}"),
                ]);
            }
        }
        println!();
    }

    println!("CSV written to {}", csv.path());
    println!("Expected shape: fence-free drops the lock round-trips and every");
    println!("steal-path AMO for a small dup/lost-race tax that the done-flag");
    println!("dedup absorbs without a second execution.");
}
