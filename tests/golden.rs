//! Golden regression tests: exact deterministic outputs for fixed seeds.
//!
//! The simulator's promise is that a run is a pure function of its
//! configuration. These tests pin that function's value for a handful of
//! configurations, so any *unintentional* change to protocol costs, RNG
//! streams, or scheduling order fails loudly. When a change is intentional
//! (e.g. recalibrating a latency), regenerate the constants and say so in
//! the commit message — that is the point of the test.

use dcs::apps::{lcs, lcs::LcsParams, pfor, pfor::PforParams, uts};
use dcs::prelude::*;

fn uts_run(policy: Policy) -> RunReport {
    run(
        RunConfig::new(4, policy)
            .with_seed(7)
            .with_seg_bytes(64 << 20),
        uts::program(uts::presets::tiny()),
    )
}

#[test]
fn golden_uts_cont_greedy() {
    let r = uts_run(Policy::ContGreedy);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(667_253));
    assert_eq!(r.stats.steals_ok, 13);
    assert_eq!(r.stats.steals_failed, 80);
    assert_eq!(r.steps, 10_970);
}

#[test]
fn golden_uts_cont_stalling() {
    let r = uts_run(Policy::ContStalling);
    assert_eq!(r.elapsed, VTime::ns(679_137));
    assert_eq!(r.stats.steals_ok, 13);
    assert_eq!(r.steps, 10_978);
}

#[test]
fn golden_uts_child_full() {
    let r = uts_run(Policy::ChildFull);
    assert_eq!(r.elapsed, VTime::ns(4_327_916));
    assert_eq!(r.stats.steals_ok, 15);
    assert_eq!(r.stats.steals_failed, 1_306);
}

#[test]
fn golden_uts_child_rtc() {
    let r = uts_run(Policy::ChildRtc);
    assert_eq!(r.elapsed, VTime::ns(509_100));
    assert_eq!(r.stats.steals_ok, 16);
}

/// 16-worker UTS on the ITO-A latency profile — one golden per policy.
/// Wider than the 4-worker pins above, so steal traffic (and therefore the
/// victim-RNG stream and the engine's fast-path/heap interleaving) is
/// exercised much harder; these pin the exact event order at a scale where
/// a subtle ordering bug would actually show.
fn uts16_itoa(policy: Policy) -> RunReport {
    run(
        RunConfig::new(16, policy)
            .with_profile(profiles::itoa())
            .with_seed(7)
            .with_seg_bytes(64 << 20),
        uts::program(uts::presets::tiny()),
    )
}

#[test]
fn golden_uts16_itoa_cont_greedy() {
    let r = uts16_itoa(Policy::ContGreedy);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(601_308));
    assert_eq!(r.stats.steals_ok, 32);
    assert_eq!(r.stats.steals_failed, 532);
    assert_eq!(r.stats.outstanding_joins, 8);
    assert_eq!(r.steps, 11_931);
    assert_eq!(r.threads, 1674);
}

#[test]
fn golden_uts16_itoa_cont_stalling() {
    let r = uts16_itoa(Policy::ContStalling);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(609_913));
    assert_eq!(r.stats.steals_ok, 29);
    assert_eq!(r.stats.steals_failed, 570);
    assert_eq!(r.steps, 12_005);
}

#[test]
fn golden_uts16_itoa_child_full() {
    let r = uts16_itoa(Policy::ChildFull);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(2_339_226));
    assert_eq!(r.stats.steals_ok, 53);
    assert_eq!(r.stats.steals_failed, 2_922);
    assert_eq!(r.stats.outstanding_joins, 769);
    assert_eq!(r.steps, 19_308);
}

#[test]
fn golden_uts16_itoa_child_rtc() {
    let r = uts16_itoa(Policy::ChildRtc);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(451_170));
    assert_eq!(r.stats.steals_ok, 34);
    assert_eq!(r.steps, 14_130);
}

#[test]
fn golden_recpfor_greedy() {
    let r = run(
        RunConfig::new(8, Policy::ContGreedy)
            .with_seed(7)
            .with_seg_bytes(64 << 20),
        pfor::recpfor_program(PforParams {
            n: 64,
            k: 2,
            m: VTime::us(5),
        }),
    );
    assert_eq!(r.elapsed, VTime::ns(1_812_926));
    assert_eq!(r.stats.steals_ok, 85);
    assert_eq!(r.stats.outstanding_joins, 5);
}

#[test]
fn golden_lcs_futures() {
    let params = LcsParams::random_alpha(64, 16, 3, 4);
    let r = run(
        RunConfig::new(6, Policy::ContGreedy)
            .with_seed(7)
            .with_seg_bytes(64 << 20),
        lcs::program(params),
    );
    assert_eq!(r.result.as_u64(), 35);
    assert_eq!(r.elapsed, VTime::ns(140_040));
    assert_eq!(r.stats.steals_ok, 2);
}

/// 16-worker ITO-A UTS under the fence-free protocol — one golden per
/// policy. Beyond the event-order pinning of `uts16_itoa`, these pin the
/// *multiplicity* counters: the child-stealing policies genuinely take
/// entries twice at this scale (`ff_dups > 0`) and the dedup absorbs every
/// one of them — the node count stays exactly serial.
fn uts16_itoa_ff(policy: Policy) -> RunReport {
    run(
        RunConfig::new(16, policy)
            .with_profile(profiles::itoa())
            .with_seed(7)
            .with_seg_bytes(64 << 20)
            .with_protocol(Protocol::FenceFree),
        uts::program(uts::presets::tiny()),
    )
}

#[test]
fn golden_uts16_itoa_ff_cont_greedy() {
    let r = uts16_itoa_ff(Policy::ContGreedy);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(430_568));
    assert_eq!(r.stats.steals_ok, 26);
    assert_eq!(r.stats.steals_failed, 804);
    assert_eq!(r.stats.ff_dups, 0);
    assert_eq!(r.stats.ff_lost_races, 16);
    assert_eq!(r.steps, 11_648);
    assert_eq!(r.threads, 1674);
}

#[test]
fn golden_uts16_itoa_ff_cont_stalling() {
    let r = uts16_itoa_ff(Policy::ContStalling);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(416_203));
    assert_eq!(r.stats.steals_ok, 27);
    assert_eq!(r.stats.steals_failed, 764);
    assert_eq!(r.stats.ff_dups, 0);
    assert_eq!(r.stats.ff_lost_races, 16);
    assert_eq!(r.steps, 11_609);
}

#[test]
fn golden_uts16_itoa_ff_child_full() {
    let r = uts16_itoa_ff(Policy::ChildFull);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(1_296_194));
    assert_eq!(r.stats.steals_ok, 52);
    assert_eq!(r.stats.steals_failed, 3_125);
    assert_eq!(r.stats.ff_dups, 14);
    assert_eq!(r.stats.ff_lost_races, 11);
    assert_eq!(r.stats.outstanding_joins, 776);
}

#[test]
fn golden_uts16_itoa_ff_child_rtc() {
    let r = uts16_itoa_ff(Policy::ChildRtc);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(256_104));
    assert_eq!(r.stats.steals_ok, 31);
    assert_eq!(r.stats.steals_failed, 402);
    assert_eq!(r.stats.ff_dups, 17);
    assert_eq!(r.stats.ff_lost_races, 6);
    assert_eq!(r.steps, 13_654);
}

// ----------------------------------------------------------------------
// Pipelined fabric: the posted-verb hot paths (overlapped steal commit and
// reap step, multi-steal probe ring, DIE/JOIN publication, multi-consumer
// stack-copy sweep, lock-queue free tail, local-collection sweep, the
// checkpoint put of an armed plan). Pinned field by field so a refactor
// of those paths must reproduce their charges exactly.
// ----------------------------------------------------------------------

/// `(elapsed ns, steals_ok, mean steal latency ns, max_inflight, steps)`.
fn pipelined_pins(r: &RunReport) -> (u64, u64, u64, u64, u64) {
    (
        r.elapsed.as_ns(),
        r.stats.steals_ok,
        r.stats.avg_steal_latency().as_ns(),
        r.fabric.max_inflight,
        r.steps,
    )
}

fn recpfor_pipelined(cfg: RunConfig) -> RunReport {
    run(
        cfg.with_seed(7)
            .with_seg_bytes(64 << 20)
            .with_fabric(FabricMode::Pipelined),
        pfor::recpfor_program(PforParams {
            n: 64,
            k: 2,
            m: VTime::us(5),
        }),
    )
}

fn uts16_itoa_pipelined(cfg: RunConfig) -> RunReport {
    run(
        cfg.with_profile(profiles::itoa())
            .with_seed(7)
            .with_seg_bytes(64 << 20)
            .with_fabric(FabricMode::Pipelined),
        uts::program(uts::presets::tiny()),
    )
}

#[test]
fn golden_pipelined_recpfor_cas_lock() {
    let r = recpfor_pipelined(RunConfig::new(8, Policy::ContGreedy));
    assert_eq!(pipelined_pins(&r), (1_716_181, 87, 24_361, 2, 6_391));
}

#[test]
fn golden_pipelined_uts16_ff_multi_steal_4() {
    let r = uts16_itoa_pipelined(
        RunConfig::new(16, Policy::ContGreedy)
            .with_protocol(Protocol::FenceFree)
            .with_multi_steal(4),
    );
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(pipelined_pins(&r), (563_935, 37, 17_933, 4, 12_014));
}

#[test]
fn golden_pipelined_lcs_futures() {
    // Multi-consumer futures: producers find suspended waiters, so the
    // DIE's batched stack-copy sweep runs.
    let r = run(
        RunConfig::new(16, Policy::ContGreedy)
            .with_seed(7)
            .with_seg_bytes(64 << 20)
            .with_fabric(FabricMode::Pipelined),
        lcs::program(LcsParams::random_alpha(256, 16, 3, 4)),
    );
    assert_eq!(pipelined_pins(&r), (2_902_639, 258, 23_759, 3, 7_625));
}

#[test]
fn golden_pipelined_uts16_child_rtc_lock_queue() {
    let r = uts16_itoa_pipelined(
        RunConfig::new(16, Policy::ChildRtc).with_free_strategy(FreeStrategy::LockQueue),
    );
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(pipelined_pins(&r), (356_052, 34, 22_990, 2, 13_944));
}

#[test]
fn golden_pipelined_uts16_cont_stalling_lock_queue() {
    // ChildRtc joiners free their own entries; under the stalling
    // continuation policy frees are remote, so the lock-queue tail runs.
    let r = uts16_itoa_pipelined(
        RunConfig::new(16, Policy::ContStalling).with_free_strategy(FreeStrategy::LockQueue),
    );
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(pipelined_pins(&r), (905_274, 26, 23_961, 2, 12_648));
}

#[test]
fn golden_pipelined_uts16_local_collection_sweep() {
    // A tiny collection limit forces free-bit sweeps, some of which
    // reclaim remotely freed objects.
    let mut cfg = RunConfig::new(16, Policy::ContGreedy);
    cfg.collect_limit = 256;
    let r = uts16_itoa_pipelined(cfg);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(pipelined_pins(&r), (611_170, 30, 23_959, 35, 12_103));
}

#[test]
fn golden_pipelined_uts16_recovery_armed() {
    // `recover=on` with no kill: the lineage log and the checkpoint put of
    // every continuation steal run, nothing is ever replayed.
    let r = uts16_itoa_pipelined(
        RunConfig::new(16, Policy::ContGreedy)
            .with_fault_plan(FaultPlan::none().with_recovery()),
    );
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(pipelined_pins(&r), (609_890, 29, 24_337, 3, 98_460));
}
