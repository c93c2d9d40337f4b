//! Property-based tests over the whole stack (proptest).
//!
//! Strategy: generate random workload shapes, worker counts, policies and
//! seeds; assert the invariants the runtime must keep regardless of
//! schedule — result correctness, conservation of threads/entries (enforced
//! internally by strict mode), the work law, and determinism.
//!
//! The fault-plan, kill and protocol properties also run each fork-join
//! input through `run_hooked(.., &mut ())`, the polling loop that `run`'s
//! parked owner lock spins reproduce: both must produce the same report in
//! every field but the engine step count.

use proptest::prelude::*;

use dcs::apps::lcs::{self, LcsParams};
use dcs::apps::uts::{serial_count, Shape, UtsSpec};
use dcs::bot;
use dcs::prelude::*;
use dcs::sim::CrashWindow;

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::ContGreedy),
        Just(Policy::ContStalling),
        Just(Policy::ChildFull),
        Just(Policy::ChildRtc),
    ]
}

/// Run `cfg` with parked lock spins (`run`) and with the polling loop they
/// stand in for (`run_hooked` under the default schedule); require the
/// same report apart from the step count and return the parked run.
fn run_parked_and_polled(cfg: RunConfig, prog: impl Fn() -> Program) -> RunReport {
    let mut parked = run(cfg.clone(), prog());
    let mut polled = run_hooked(cfg, prog(), &mut ());
    let steps = parked.steps;
    assert!(steps <= polled.steps, "parking added engine steps");
    (parked.steps, polled.steps) = (0, 0);
    assert_eq!(format!("{parked:?}"), format!("{polled:?}"), "parking changed the run");
    parked.steps = steps;
    parked
}

/// Random fork-join reduction: sum of i² over a random-size range, random
/// branching in the task tree via an uneven split.
fn sum_task(arg: Value, _ctx: &mut TaskCtx) -> Effect {
    let (lo, hi) = arg.into_pair();
    let (lo, hi) = (lo.as_u64(), hi.as_u64());
    if hi - lo <= 1 {
        return Effect::ret(lo * lo);
    }
    // Uneven split (1/3 : 2/3) exercises imbalanced schedules.
    let mid = lo + 1 + (hi - lo - 1) / 3;
    Effect::fork(
        sum_task,
        Value::pair(lo.into(), mid.into()),
        frame(move |h, _| {
            let h = h.as_handle();
            Effect::call(
                sum_task,
                Value::pair(mid.into(), hi.into()),
                frame(move |r, _| {
                    let r = r.as_u64();
                    Effect::join(h, frame(move |l, _| Effect::ret(l.as_u64() + r)))
                }),
            )
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fork-join reduction is correct for every (policy, P, size, seed).
    #[test]
    fn forkjoin_reduction_correct(
        policy in any_policy(),
        workers in 1usize..9,
        n in 2u64..400,
        seed in 0u64..1000,
    ) {
        let cfg = RunConfig::new(workers, policy)
            .with_profile(profiles::test_profile())
            .with_seed(seed)
            .with_seg_bytes(64 << 20);
        let r = run(cfg, Program::new(sum_task, Value::pair(0u64.into(), n.into())));
        let expected: u64 = (0..n).map(|i| i * i).sum();
        prop_assert_eq!(r.result.as_u64(), expected);
        // Strict mode already asserted no leaks; double-check the counters.
        prop_assert_eq!(r.stats.threads_spawned, r.stats.threads_died);
    }

    /// Random UTS trees: fork-join count equals serial count; the one-sided
    /// BoT agrees too.
    #[test]
    fn uts_counts_agree(
        b0 in 2u32..6,
        gen_mx in 2u32..7,
        tree_seed in 0u64..500,
        workers in 1usize..7,
        fixed in proptest::bool::ANY,
    ) {
        let shape = if fixed { Shape::Fixed } else { Shape::Linear };
        let spec = UtsSpec::new(b0 as f64, gen_mx, shape, tree_seed);
        let expected = serial_count(&spec).nodes;
        let r = run(
            RunConfig::new(workers, Policy::ContGreedy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20),
            dcs::apps::uts::program(spec.clone()),
        );
        prop_assert_eq!(r.result.as_u64(), expected);
        let os = bot::onesided::run_uts(&spec, workers, profiles::test_profile(), tree_seed);
        prop_assert_eq!(os.nodes, expected);
    }

    /// LCS through the future machinery equals the reference DP for random
    /// sizes, block sizes, alphabets and schedules.
    #[test]
    fn lcs_matches_reference(
        n_log in 3u32..7,
        c_log in 2u32..5,
        alphabet in 2u8..8,
        workers in 1usize..7,
        seed in 0u64..500,
        policy in prop_oneof![
            Just(Policy::ContGreedy),
            Just(Policy::ContStalling),
            Just(Policy::ChildFull),
        ],
    ) {
        let n = 1u64 << n_log;
        let c = (1u64 << c_log).min(n);
        let params = LcsParams::random_alpha(n, c, seed, alphabet);
        let expected = lcs::lcs_reference(&params.a, &params.b) as u64;
        let r = run(
            RunConfig::new(workers, policy)
                .with_profile(profiles::test_profile())
                .with_seed(seed)
                .with_seg_bytes(64 << 20),
            lcs::program(params),
        );
        prop_assert_eq!(r.result.as_u64(), expected);
    }

    /// The work law T_P ≥ T1/P and the busy-time identity
    /// Σ busy ≤ P × elapsed hold for every schedule.
    #[test]
    fn time_accounting_sane(
        policy in any_policy(),
        workers in 1usize..9,
        seed in 0u64..100,
    ) {
        let params = dcs::apps::pfor::PforParams { n: 64, k: 2, m: VTime::us(5) };
        let r = run(
            RunConfig::new(workers, policy)
                .with_profile(profiles::itoa())
                .with_seed(seed)
                .with_seg_bytes(64 << 20),
            dcs::apps::pfor::pfor_program(params),
        );
        let t1 = params.pfor_t1(1.0);
        prop_assert!(r.elapsed >= t1 / workers as u64);
        prop_assert!(r.busy_total.as_ns() <= r.elapsed.as_ns() * workers as u64);
        // Busy time must at least cover the pure compute work.
        prop_assert!(r.busy_total >= t1);
    }

    /// Under randomized transient-fault schedules (verb failures, message
    /// drops and duplications) every runtime still terminates and produces
    /// the exact serial UTS node count — faults may only cost time.
    #[test]
    fn uts_counts_survive_random_faults(
        b0 in 2u32..5,
        gen_mx in 2u32..6,
        tree_seed in 0u64..200,
        workers in 2usize..7,
        policy in any_policy(),
        fault_permille in 5u64..120,
        fault_seed in 0u64..1000,
    ) {
        let spec = UtsSpec::new(b0 as f64, gen_mx, Shape::Linear, tree_seed);
        let expected = serial_count(&spec).nodes;
        let plan = FaultPlan::transient(fault_permille as f64 / 1000.0, fault_seed);
        let r = run_parked_and_polled(
            RunConfig::new(workers, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fault_plan(plan.clone()),
            || dcs::apps::uts::program(spec.clone()),
        );
        prop_assert_eq!(r.result.as_u64(), expected);
        if let Some(wd) = &r.watchdog {
            prop_assert!(wd.is_clean(), "watchdog: {}", wd);
        }
        let os = bot::onesided::run_uts_faulty(
            &spec,
            workers,
            profiles::test_profile(),
            tree_seed,
            bot::onesided::StealAmount::Half,
            plan.clone(),
        );
        prop_assert_eq!(os.nodes, expected);
        let ts = bot::twosided::run_uts_faulty(
            &spec,
            workers,
            profiles::test_profile(),
            bot::twosided::Variant::Lifeline,
            tree_seed,
            plan,
        );
        prop_assert_eq!(ts.nodes, expected);
    }

    /// LCS through the future machinery still equals the reference DP when
    /// the fabric injects transient faults.
    #[test]
    fn lcs_matches_reference_under_faults(
        n_log in 3u32..6,
        workers in 2usize..7,
        seed in 0u64..200,
        fault_permille in 5u64..100,
        policy in prop_oneof![
            Just(Policy::ContGreedy),
            Just(Policy::ContStalling),
            Just(Policy::ChildFull),
        ],
    ) {
        let n = 1u64 << n_log;
        let params = LcsParams::random_alpha(n, 4.min(n), seed, 4);
        let expected = lcs::lcs_reference(&params.a, &params.b) as u64;
        let r = run(
            RunConfig::new(workers, policy)
                .with_profile(profiles::test_profile())
                .with_seed(seed)
                .with_seg_bytes(64 << 20)
                .with_fault_plan(FaultPlan::transient(
                    fault_permille as f64 / 1000.0,
                    seed ^ 0xF00D,
                )),
            lcs::program(params),
        );
        prop_assert_eq!(r.result.as_u64(), expected);
    }

    /// The posted-verb refactor is conservative: for random verb sequences
    /// (mixed kinds, issuers, targets, faults), the blocking wrappers are
    /// bit-identical — in observed value, charged time, and FabricStats —
    /// to (a) manual post-at-ZERO + wait and (b) posting at a running
    /// absolute clock and charging `finish − now`. This is the contract
    /// that lets FabricMode::Blocking keep every golden valid.
    #[test]
    fn blocking_equals_posted(
        workers in 2usize..5,
        fault_permille in 0u64..80,
        fault_seed in 0u64..500,
        ops in proptest::collection::vec(
            (0u8..8, 0usize..4, 0u32..64, 1u64..1_000_000),
            1..40,
        ),
    ) {
        use dcs::sim::{FabricMode, GlobalAddr, Machine, MachineConfig};
        let mk = || {
            let mut cfg = MachineConfig::new(workers, profiles::itoa())
                .with_seg_bytes(1 << 20)
                .with_fabric(FabricMode::Pipelined);
            if fault_permille > 0 {
                cfg = cfg.with_faults(FaultPlan::transient(
                    fault_permille as f64 / 1000.0,
                    fault_seed,
                ));
            }
            Machine::new(cfg)
        };
        let (mut blk, mut posted, mut clocked) = (mk(), mk(), mk());
        let mut now = VTime::ZERO;
        for &(kind, tgt, woff, val) in &ops {
            let tgt = tgt % workers;
            let me = (tgt + val as usize) % workers; // sometimes local, sometimes remote
            let addr = GlobalAddr::new(tgt, 8 + woff * 8);
            let len = (val % 4096) as usize + 8;

            if kind == 6 {
                // Fence-free bounds/entry read: the 3-word span get must be
                // bit-identical across the three issue styles too.
                let (v_b, c_b) = blk.get_u64_span::<3>(me, addr);
                let (v_p, h) = posted.post_get_u64_span::<3>(me, addr, VTime::ZERO);
                let (_, c_p) = posted.wait(me, h);
                prop_assert_eq!(v_b, v_p, "span values diverged");
                prop_assert_eq!(c_b, c_p, "span cost diverged");
                let (v_c, h) = clocked.post_get_u64_span::<3>(me, addr, now);
                let (_, fin) = clocked.wait(me, h);
                prop_assert_eq!(v_b, v_c);
                prop_assert_eq!(fin.saturating_sub(now), c_b);
                now = fin;
                continue;
            }
            if kind == 7 {
                // Fence-free claim write: the unsignaled put is eager and
                // charges the same non-blocking injection on every machine.
                let c_b = blk.post_put_u64_unsignaled(me, addr, val);
                let c_p = posted.post_put_u64_unsignaled(me, addr, val);
                let c_c = clocked.post_put_u64_unsignaled(me, addr, val);
                prop_assert_eq!(c_b, c_p, "unsignaled cost diverged");
                prop_assert_eq!(c_b, c_c);
                now += c_c;
                continue;
            }

            // Blocking wrapper: (value, cost). Puts and bulks carry no value.
            let (v_b, c_b) = match kind {
                0 => blk.get_u64(me, addr),
                1 => (0, blk.put_u64(me, addr, val)),
                2 => blk.fetch_add_u64(me, addr, val),
                3 => blk.cas_u64(me, addr, val % 7, val),
                4 => (0, blk.get_bulk(me, tgt, len)),
                _ => (0, blk.put_bulk(me, tgt, len)),
            };

            // Manual post at VTime::ZERO + wait: finish IS the cost.
            let h = match kind {
                0 => posted.post_get_u64(me, addr, VTime::ZERO),
                1 => posted.post_put_u64(me, addr, val, VTime::ZERO),
                2 => posted.post_fetch_add_u64(me, addr, val, VTime::ZERO),
                3 => posted.post_cas_u64(me, addr, val % 7, val, VTime::ZERO),
                4 => posted.post_get_bulk(me, tgt, len, VTime::ZERO),
                _ => posted.post_put_bulk(me, tgt, len, VTime::ZERO),
            };
            let (v_p, c_p) = posted.wait(me, h);
            prop_assert_eq!(c_b, c_p, "cost diverged on kind {}", kind);
            if matches!(kind, 0 | 2 | 3) {
                prop_assert_eq!(v_b, v_p, "value diverged on kind {}", kind);
            }

            // Post at a running absolute clock: the relative charge
            // `finish − now` must equal the blocking cost (empty CQ, so the
            // same-QP clamp never engages).
            let h = match kind {
                0 => clocked.post_get_u64(me, addr, now),
                1 => clocked.post_put_u64(me, addr, val, now),
                2 => clocked.post_fetch_add_u64(me, addr, val, now),
                3 => clocked.post_cas_u64(me, addr, val % 7, val, now),
                4 => clocked.post_get_bulk(me, tgt, len, now),
                _ => clocked.post_put_bulk(me, tgt, len, now),
            };
            let (v_c, fin) = clocked.wait(me, h);
            prop_assert_eq!(fin.saturating_sub(now), c_b);
            if matches!(kind, 0 | 2 | 3) {
                prop_assert_eq!(v_b, v_c);
            }
            now = fin;
        }
        // Identical traffic ⇒ bit-identical per-worker fabric stats, and a
        // serial issue pattern never overlaps: depth 1, no CQ polls.
        for w in 0..workers {
            prop_assert_eq!(blk.stats(w), posted.stats(w));
            prop_assert_eq!(blk.stats(w), clocked.stats(w));
            prop_assert!(blk.stats(w).max_inflight <= 1);
            prop_assert_eq!(blk.stats(w).cq_polls, 0);
        }
    }

    /// Determinism: identical configuration ⇒ identical simulation.
    #[test]
    fn determinism(
        policy in any_policy(),
        workers in 2usize..8,
        seed in 0u64..100,
    ) {
        let mk = || {
            let spec = UtsSpec::new(3.0, 4, Shape::Linear, 11);
            run(
                RunConfig::new(workers, policy)
                    .with_profile(profiles::itoa())
                    .with_seed(seed)
                    .with_seg_bytes(64 << 20),
                dcs::apps::uts::program(spec),
            )
        };
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.elapsed, b.elapsed);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.stats.steals_ok, b.stats.steals_ok);
        prop_assert_eq!(a.stats.steals_failed, b.stats.steals_failed);
        prop_assert_eq!(a.fabric.bytes_got, b.fabric.bytes_got);
    }
}

// The protocol-agreement family runs both steal families per case (four
// full simulations each), so it gets its own smaller case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The two steal-protocol families are interchangeable: for every
    /// (tree, P, policy, fabric mode, fault schedule), cas-lock and
    /// fence-free both produce the exact serial UTS node count and
    /// conserve every PFor thread — under a fault-free fabric and under
    /// random transient verb faults alike. Fence-free's bounded
    /// multiplicity must never leak into the observable result.
    #[test]
    fn protocols_agree_on_results(
        b0 in 2u32..5,
        gen_mx in 2u32..6,
        tree_seed in 0u64..300,
        workers in 2usize..7,
        policy in any_policy(),
        pipelined in proptest::bool::ANY,
        fault_permille in 0u64..80,
        fault_seed in 0u64..500,
        watchdog in proptest::bool::ANY,
    ) {
        let spec = UtsSpec::new(b0 as f64, gen_mx, Shape::Linear, tree_seed);
        let expected = serial_count(&spec).nodes;
        let mode = if pipelined { FabricMode::Pipelined } else { FabricMode::Blocking };
        let params = dcs::apps::pfor::PforParams { n: 64, k: 2, m: VTime::us(2) };
        for protocol in Protocol::ALL {
            let cfg = || {
                let mut c = RunConfig::new(workers, policy)
                    .with_profile(profiles::test_profile())
                    .with_seg_bytes(64 << 20)
                    .with_fabric(mode)
                    .with_protocol(protocol)
                    .with_watchdog(watchdog);
                if fault_permille > 0 {
                    c = c.with_fault_plan(FaultPlan::transient(
                        fault_permille as f64 / 1000.0,
                        fault_seed,
                    ));
                }
                c
            };
            let r = run_parked_and_polled(cfg(), || dcs::apps::uts::program(spec.clone()));
            prop_assert_eq!(r.result.as_u64(), expected, "uts under {:?}", protocol);
            if let Some(wd) = &r.watchdog {
                prop_assert!(wd.is_clean(), "uts under {:?}: {}", protocol, wd);
            }
            let r = run_parked_and_polled(cfg(), || dcs::apps::pfor::pfor_program(params));
            prop_assert!(r.outcome.is_complete(), "pfor under {:?}", protocol);
            prop_assert_eq!(r.stats.threads_spawned, r.stats.threads_died);
        }
    }

    /// Fail-stop worker loss is protocol-independent: random kill schedules
    /// (the root holder explicitly included) leave every recoverable policy
    /// × protocol × fabric mode combination with the exact serial node
    /// count — replayed lineage records dedup against fence-free's claim
    /// set the same way a doubly-taken entry does.
    #[test]
    fn protocols_agree_under_kill(
        raw in proptest::collection::vec((0usize..8, 1u64..120), 1..3),
        pipelined in proptest::bool::ANY,
        policy in prop_oneof![
            Just(Policy::ChildRtc),
            Just(Policy::ContGreedy),
            Just(Policy::ContStalling),
        ],
    ) {
        const WORKERS: usize = 6;
        let spec = dcs::apps::uts::presets::tiny();
        let truth = serial_count(&spec).nodes;
        let mode = if pipelined { FabricMode::Pipelined } else { FabricMode::Blocking };
        // Thin the raw (victim, at-µs) list to ≤ ⌊W/2⌋ distinct victims and
        // tune the registry so detection + replay fit the tiny makespan.
        let mut plan = FaultPlan::none();
        let mut victims: Vec<usize> = Vec::new();
        for &(v, at_us) in &raw {
            let v = v % WORKERS;
            if victims.len() >= WORKERS / 2 && !victims.contains(&v) {
                continue;
            }
            if !victims.contains(&v) {
                victims.push(v);
            }
            plan = plan.with_kill(v, VTime::us(at_us));
        }
        plan.hb_period = VTime::us(10);
        plan.lease = VTime::us(30);
        for protocol in Protocol::ALL {
            let mut cfg = RunConfig::new(WORKERS, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fabric(mode)
                .with_protocol(protocol)
                .with_fault_plan(plan.clone())
                .with_watchdog(true);
            cfg.max_steps = 50_000_000;
            let r = run_parked_and_polled(cfg, || dcs::apps::uts::program(spec.clone()));
            prop_assert!(
                r.outcome.is_complete(),
                "{:?}/{:?}/{:?}: {:?}", policy, protocol, mode, r.outcome
            );
            prop_assert_eq!(
                r.result.as_u64(), truth,
                "{:?}/{:?}/{:?}", policy, protocol, mode
            );
            if let Some(wd) = &r.watchdog {
                // Armed runs legitimately abandon resources mid-recovery;
                // anything beyond a leak is a bug.
                let hard: Vec<_> = wd
                    .violations
                    .iter()
                    .filter(|v| !matches!(v, Violation::Leak { .. }))
                    .collect();
                prop_assert!(hard.is_empty(), "{:?}/{:?}: {:?}", policy, protocol, hard);
            }
        }
    }

    /// Crash windows and a tight watchdog stall limit: the two clock-driven
    /// events a parked lock spin must wake for without any write to wake
    /// it (its own crash-window start, the first poll that would report a
    /// stall). The parked run must still be the polling loop's twin —
    /// including each stall report's instant and the longest progress gap.
    #[test]
    fn parking_matches_polling_under_crash_windows_and_stalls(
        b0 in 2u32..5,
        gen_mx in 2u32..6,
        tree_seed in 0u64..300,
        workers in 2usize..7,
        policy in any_policy(),
        pipelined in proptest::bool::ANY,
        // Under the ITO-A profile a thief holds a lock for µs and these
        // runs take 5–100 µs: windows and the stall limit are scaled to
        // land inside them.
        windows in proptest::collection::vec((0usize..7, 0u64..120, 1u64..40), 1..6),
        stall_us in 5u64..80,
        fault_permille in 0u64..60,
    ) {
        let spec = UtsSpec::new(b0 as f64, gen_mx, Shape::Linear, tree_seed);
        let expected = serial_count(&spec).nodes;
        let mode = if pipelined { FabricMode::Pipelined } else { FabricMode::Blocking };
        let mut plan = FaultPlan::transient(fault_permille as f64 / 1000.0, tree_seed);
        for &(w, from_us, len_us) in &windows {
            plan = plan.with_crash(CrashWindow {
                worker: w % workers,
                from: VTime::us(from_us),
                until: VTime::us(from_us + len_us),
            });
        }
        for protocol in Protocol::ALL {
            let mut cfg = RunConfig::new(workers, policy)
                .with_profile(profiles::itoa())
                .with_seg_bytes(64 << 20)
                .with_fabric(mode)
                .with_protocol(protocol)
                .with_fault_plan(plan.clone());
            cfg.stall_limit = VTime::us(stall_us);
            // Stalls are reported, not fatal: the reports are compared.
            cfg.strict = false;
            let r = run_parked_and_polled(cfg, || dcs::apps::uts::program(spec.clone()));
            prop_assert_eq!(r.result.as_u64(), expected, "{:?}/{:?}", protocol, mode);
        }
    }
}
