//! Property tests: random fail-stop kill schedules never change the
//! fork-join answer.
//!
//! The bag-of-tasks twin of this file lives in `crates/bot`; here the
//! subjects are the *fork-join* runtimes — child run-to-completion and both
//! continuation-stealing policies (greedy and stalling), the latter two
//! recoverable through the continuation-lineage log and buddy header
//! mirror. For UTS tree expansion and PFor flat loops, a run that loses up
//! to ⌊W/2⌋ workers at arbitrary times — worker 0 (the root holder)
//! explicitly included — must complete with exactly the fault-free answer:
//! lost subtrees are re-executed from their lineage records, join counters
//! are repaired, and a killed root re-elects a new holder. Lost work may
//! only ever show up in elapsed time, never in the result.
//!
//! A second family kills *two* workers inside one lease window — the
//! confirmer of the first death can itself die mid-replay, exercising the
//! record re-keying that makes a second kill recoverable. The contract
//! there: a result-identical completion or a typed abort, never a hang
//! (the bounded `max_steps` turns a hang into a loud panic).

use dcs_apps::pfor::{pfor_program, PforParams};
use dcs_apps::uts::{presets, program, serial_count};
use dcs_core::prelude::*;
use dcs_sim::{DegradeWindow, Detector};
use proptest::prelude::*;

const WORKERS: usize = 6;

/// Registry tuned so detection + replay happen well inside the tiny
/// workloads' makespans (lease ≥ hb, as the parser validates).
fn registry(mut plan: FaultPlan) -> FaultPlan {
    plan.hb_period = VTime::us(10);
    plan.lease = VTime::us(30);
    plan
}

/// Thin a raw (victim, at-µs) list to ≤ ⌊workers/2⌋ distinct victims.
fn kill_plan(raw: &[(usize, u64)], workers: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let mut victims: Vec<usize> = Vec::new();
    for &(v, at_us) in raw {
        let v = v % workers;
        if victims.len() >= workers / 2 && !victims.contains(&v) {
            continue;
        }
        if !victims.contains(&v) {
            victims.push(v);
        }
        plan = plan.with_kill(v, VTime::us(at_us));
    }
    registry(plan)
}

/// Two distinct victims killed `delta_ns` apart — strictly inside one
/// lease window, so the second can catch the first death's confirmer
/// mid-replay.
fn double_kill_plan(v1: usize, v2: usize, t1_us: u64, delta_ns: u64, workers: usize) -> FaultPlan {
    let v1 = v1 % workers;
    let mut v2 = v2 % workers;
    if v2 == v1 {
        v2 = (v1 + 1) % workers;
    }
    let plan = FaultPlan::none()
        .with_kill(v1, VTime::us(t1_us))
        .with_kill(v2, VTime::us(t1_us) + VTime::ns(delta_ns));
    registry(plan)
}

fn cfg(policy: Policy, plan: FaultPlan) -> RunConfig {
    cfg_proto(policy, Protocol::CasLock, plan)
}

fn cfg_proto(policy: Policy, protocol: Protocol, plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::new(WORKERS, policy)
        .with_profile(profiles::test_profile())
        .with_seg_bytes(64 << 20)
        .with_protocol(protocol)
        .with_fault_plan(plan)
        .with_watchdog(true);
    // A hung recovery must fail loudly (engine panic), not wedge the suite.
    cfg.max_steps = 50_000_000;
    cfg
}

/// Armed runs legitimately abandon resources mid-recovery; every other
/// violation (duplicated task, lost task, double free, stall) is a bug.
fn assert_clean_modulo_leaks(r: &RunReport, ctx: &str) {
    if let Some(wd) = &r.watchdog {
        let hard: Vec<_> = wd
            .violations
            .iter()
            .filter(|v| !matches!(v, Violation::Leak { .. }))
            .collect();
        assert!(hard.is_empty(), "{ctx}: {hard:?}");
    }
}

const POLICIES: [Policy; 3] = [Policy::ChildRtc, Policy::ContGreedy, Policy::ContStalling];

/// Victim selection under kills: uniform, and the hierarchical policy —
/// the one reader of the failure streak — on two-worker nodes, so failed
/// and stale takes steer the next draw.
fn victims() -> [(VictimPolicy, Topology); 2] {
    [
        (VictimPolicy::Uniform, Topology::Flat),
        (
            VictimPolicy::Hierarchical { local_tries: 2 },
            Topology::Hierarchical { node_size: 2, intra_factor: 0.5 },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// UTS: the result is the tree's node count — any lost or duplicated
    /// subtree shows up as a wrong number.
    #[test]
    fn uts_survives_random_kill_schedules(
        raw in proptest::collection::vec((0usize..8, 1u64..150), 1..4),
    ) {
        let spec = presets::tiny();
        let truth = serial_count(&spec).nodes;
        for policy in POLICIES {
            // Recovery must be steal-protocol-independent: lineage replay
            // dedups against a stale fence-free claim the same way it does
            // against a stale CAS.
            for protocol in Protocol::ALL {
                for (victim, topo) in victims() {
                    let r = run(
                        cfg_proto(policy, protocol, kill_plan(&raw, WORKERS))
                            .with_victim(victim)
                            .with_topology(topo),
                        program(spec.clone()),
                    );
                    let ctx = format!("{policy:?}/{}/{victim:?} raw={raw:?}", protocol.label());
                    assert!(r.outcome.is_complete(), "{ctx}: {:?}", r.outcome);
                    assert_eq!(r.result.as_u64(), truth, "{ctx}");
                    assert_clean_modulo_leaks(&r, &ctx);
                }
            }
        }
    }

    /// PFor returns unit, so the oracle is the watchdog: every iteration's
    /// task dies exactly once (duplication from a stale steal or a botched
    /// replay is caught even though the value cannot show it).
    #[test]
    fn pfor_survives_random_kill_schedules(
        raw in proptest::collection::vec((0usize..8, 1u64..60), 1..4),
    ) {
        let params = PforParams { n: 64, k: 2, m: VTime::us(2) };
        for policy in POLICIES {
            let r = run(cfg(policy, kill_plan(&raw, WORKERS)), pfor_program(params));
            assert!(r.outcome.is_complete(), "{policy:?} raw={raw:?}: {:?}", r.outcome);
            assert_clean_modulo_leaks(&r, &format!("{policy:?} raw={raw:?}"));
        }
    }

    /// Killing worker 0 specifically: the root frame and result slot die
    /// with it; the mirrored root must re-elect instead of aborting.
    #[test]
    fn root_holder_death_reelects(
        at_us in 1u64..120,
    ) {
        let spec = presets::tiny();
        let truth = serial_count(&spec).nodes;
        for policy in POLICIES {
            let plan = registry(FaultPlan::none().with_kill(0, VTime::us(at_us)));
            let r = run(cfg(policy, plan), program(spec.clone()));
            assert!(r.outcome.is_complete(), "{policy:?} kill=0@{at_us}us: {:?}", r.outcome);
            assert_eq!(r.result.as_u64(), truth, "{policy:?} kill=0@{at_us}us");
            assert_clean_modulo_leaks(&r, &format!("{policy:?} kill=0@{at_us}us"));
        }
    }

    /// Multi-steal probe rings under kills: K >= 2 keeps the new abandon
    /// and cancel paths hot (won-but-unused locks released, probes posted
    /// to freshly dead victims dropped un-acted-on) while workers die.
    /// Same contract as the serial path under every protocol family: the
    /// exact fault-free answer, never a hang — the pipelined fabric is the
    /// mode where the whole probe ring is actually in flight at once.
    #[test]
    fn multi_steal_survives_random_kill_schedules(
        raw in proptest::collection::vec((0usize..8, 1u64..150), 1..4),
        k in 2u32..5,
    ) {
        let spec = presets::tiny();
        let truth = serial_count(&spec).nodes;
        for policy in POLICIES {
            for protocol in Protocol::ALL {
                for (victim, topo) in victims() {
                    let r = run(
                        cfg_proto(policy, protocol, kill_plan(&raw, WORKERS))
                            .with_fabric(FabricMode::Pipelined)
                            .with_multi_steal(k)
                            .with_victim(victim)
                            .with_topology(topo),
                        program(spec.clone()),
                    );
                    let ctx =
                        format!("{policy:?}/{}/{victim:?} K={k} raw={raw:?}", protocol.label());
                    assert!(r.outcome.is_complete(), "{ctx}: {:?}", r.outcome);
                    assert_eq!(r.result.as_u64(), truth, "{ctx}");
                    assert_clean_modulo_leaks(&r, &ctx);
                }
            }
        }
    }

    /// Suspicion sweep: random degraded-NIC windows, random heartbeat
    /// drops and an aggressive suspect lease under the message detector —
    /// with ZERO real kills. Live workers get falsely evicted mid-steal,
    /// self-fence, and rejoin as fresh incarnations; whatever the windows
    /// do, every run must complete with exactly the fault-free answer
    /// (lost-looking work is replayed, never lost, never duplicated) under
    /// every steal protocol, both fabric modes, and probe rings K ∈ {1,2}.
    #[test]
    fn suspicion_only_runs_complete_with_identical_results(
        windows in proptest::collection::vec(
            // (worker, from-µs, duration-µs, flight-scale factor)
            (0usize..6, 0u64..20, 1u64..40, 2u64..40), 1..3),
        suspect_us in 3u64..8,
        drop_m in 0u32..3,
    ) {
        let spec = presets::tiny();
        let truth = serial_count(&spec).nodes;
        let mut plan = FaultPlan::none().with_detector(Detector::Message);
        plan.hb_period = VTime::us(1);
        plan.suspect = Some(VTime::us(suspect_us));
        plan.msg_drop_p = drop_m as f64 * 0.1;
        for &(w, from_us, dur_us, factor) in &windows {
            plan = plan.with_degrade(DegradeWindow {
                worker: w,
                from: VTime::us(from_us),
                until: VTime::us(from_us + dur_us),
                factor: factor as f64,
            });
        }
        for protocol in Protocol::ALL {
            for fabric in [FabricMode::Blocking, FabricMode::Pipelined] {
                for k in [1u32, 2] {
                    let r = run(
                        cfg_proto(Policy::ContGreedy, protocol, plan.clone())
                            .with_fabric(fabric)
                            .with_multi_steal(k),
                        program(spec.clone()),
                    );
                    let ctx = format!(
                        "{}/{fabric:?}/K={k} windows={windows:?} suspect={suspect_us}us",
                        protocol.label()
                    );
                    assert!(r.outcome.is_complete(), "{ctx}: {:?}", r.outcome);
                    assert_eq!(r.result.as_u64(), truth, "{ctx}");
                    assert_eq!(r.stats.workers_lost, 0, "{ctx}: kill=none lost a worker");
                    assert_eq!(
                        r.stats.rejoins, r.stats.false_suspects,
                        "{ctx}: every evicted-live worker rejoins"
                    );
                    assert_clean_modulo_leaks(&r, &ctx);
                }
            }
        }
    }

    /// Two workers down inside one lease window. Either the lineage log
    /// converges to the exact answer, or the run aborts with a typed
    /// reason — it must never hang or return a wrong result.
    #[test]
    fn double_kill_inside_one_lease_window(
        v1 in 0usize..6,
        v2 in 0usize..6,
        t1_us in 1u64..100,
        delta_ns in 0u64..30_000,
    ) {
        let spec = presets::tiny();
        let truth = serial_count(&spec).nodes;
        for policy in POLICIES {
            let plan = double_kill_plan(v1, v2, t1_us, delta_ns, WORKERS);
            let r = run(cfg(policy, plan.clone()), program(spec.clone()));
            match r.outcome {
                RunOutcome::Complete => {
                    assert_eq!(
                        r.result.as_u64(),
                        truth,
                        "{policy:?} plan={plan}: completed with the wrong answer"
                    );
                    assert_clean_modulo_leaks(&r, &format!("{policy:?} plan={plan}"));
                }
                RunOutcome::Unrecoverable { worker, ref reason, .. } => {
                    // Typed abort: the named worker must actually be one of
                    // the victims.
                    assert!(
                        plan.kill.iter().any(|k| k.worker == worker),
                        "{policy:?} plan={plan}: abort blamed unkilled worker {worker} ({reason})"
                    );
                }
            }
        }
    }
}

