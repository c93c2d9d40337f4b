//! Property test: the engine's peek-compare fast path is unobservable.
//!
//! The production [`Engine`] skips the heap push/pop when the stepping actor
//! remains the global minimum after a `Yield`. This test drives the same
//! randomized actor schedules through the production engine *and* through a
//! plain reference loop that always goes through the `BinaryHeap`, and
//! requires identical `(time, worker)` step sequences, end times, step
//! counts and final clocks — including the tricky schedules: zero-duration
//! yields (bumped to 1 ns), duplicate durations producing simultaneous
//! halts, actors with no yields at all, and a single actor running alone
//! (the all-fast-path extreme).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dcs_sim::{Actor, Engine, Step, VTime, WorkerId};
use proptest::prelude::*;

/// Trace of every step the engine performed, in execution order.
type Trace = Vec<(VTime, WorkerId)>;

/// An actor that follows a fixed yield script, then halts.
#[derive(Clone)]
struct Scripted {
    yields: Vec<u64>,
    next: usize,
}

impl Scripted {
    fn new(yields: Vec<u64>) -> Scripted {
        Scripted { yields, next: 0 }
    }
}

impl Actor<Trace> for Scripted {
    fn step(&mut self, me: WorkerId, now: VTime, world: &mut Trace) -> Step {
        world.push((now, me));
        match self.yields.get(self.next) {
            Some(&d) => {
                self.next += 1;
                Step::Yield(VTime::ns(d))
            }
            None => Step::Halt,
        }
    }
}

/// The pre-fast-path event loop: unconditional pop/push on every step. This
/// is the semantics the production engine must reproduce exactly.
fn reference_run(mut actors: Vec<Scripted>) -> (Trace, VTime, u64, Vec<VTime>) {
    let n = actors.len();
    let mut heap: BinaryHeap<Reverse<(VTime, WorkerId)>> = BinaryHeap::new();
    for w in 0..n {
        heap.push(Reverse((VTime::ZERO, w)));
    }
    let mut trace = Trace::new();
    let mut clocks = vec![VTime::ZERO; n];
    let mut steps = 0u64;
    let mut end = VTime::ZERO;
    while let Some(Reverse((t, w))) = heap.pop() {
        steps += 1;
        match actors[w].step(w, t, &mut trace) {
            Step::Yield(d) => {
                let nt = t + d.max(VTime::ns(1));
                clocks[w] = nt;
                heap.push(Reverse((nt, w)));
            }
            Step::Park => unreachable!("scripted actors never park"),
            Step::Halt => {
                clocks[w] = t;
                end = end.max(t);
            }
        }
    }
    (trace, end, steps, clocks)
}

fn fast_run(actors: Vec<Scripted>) -> (Trace, VTime, u64, Vec<VTime>) {
    let n = actors.len();
    let mut e = Engine::new(Trace::new(), actors);
    let r = e.run();
    let clocks = (0..n).map(|w| e.clock(w)).collect();
    let (trace, _) = e.into_parts();
    (trace, r.end_time, r.steps, clocks)
}

fn assert_equivalent(scripts: Vec<Vec<u64>>) {
    let actors: Vec<Scripted> = scripts.iter().cloned().map(Scripted::new).collect();
    let (rt, rend, rsteps, rclocks) = reference_run(actors.clone());
    let (ft, fend, fsteps, fclocks) = fast_run(actors);
    assert_eq!(rt, ft, "step sequences diverged for scripts {scripts:?}");
    assert_eq!(rend, fend, "end_time diverged for scripts {scripts:?}");
    assert_eq!(rsteps, fsteps, "step counts diverged for scripts {scripts:?}");
    assert_eq!(rclocks, fclocks, "final clocks diverged for scripts {scripts:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random fleets of 1–6 actors, each with 0–12 yields drawn from a
    /// small range so that collisions (equal wakeup times) are frequent.
    #[test]
    fn fast_path_is_unobservable(
        scripts in proptest::collection::vec(
            proptest::collection::vec(0u64..6, 0..12),
            1..6,
        )
    ) {
        assert_equivalent(scripts);
    }

    /// Long single-actor runs: the fast path never touches the heap after
    /// the first pop, the purest exercise of the peek-skip.
    #[test]
    fn single_actor_all_fast_path(script in proptest::collection::vec(0u64..50, 0..64)) {
        assert_equivalent(vec![script]);
    }
}

// ---------------------------------------------------------------------
// Park/wake: parking a polling actor is unobservable
// ---------------------------------------------------------------------

/// World for the park/wake tests: a release event, the park registry, and
/// the wake pipe the engine drains after every step.
struct PWorld {
    trace: Trace,
    /// Engine key `(clock, worker)` of the releasing step, once it ran.
    release: Option<(VTime, WorkerId)>,
    /// `(since, worker)` of the parked poller, if any.
    park: Option<(VTime, WorkerId)>,
    wakeups: Vec<(VTime, WorkerId)>,
    /// Poll period in ns.
    grid: u64,
}

/// A poll at `(now, me)` observes the release iff the releasing step ran
/// strictly before it in engine key order (effects are eager).
fn sees(release: Option<(VTime, WorkerId)>, now: VTime, me: WorkerId) -> bool {
    release.is_some_and(|k| k < (now, me))
}

#[derive(Clone)]
enum Role {
    /// Yields `delay` once, then "releases" on its second step and halts.
    Writer { delay: u64, fired: bool },
    /// Polls every `grid` ns until the release is visible, then halts.
    Spinner,
    /// Like `Spinner`, but parks instead of re-polling; the writer's
    /// release wakes it at the first poll instant that observes the
    /// release — the same rule `Machine::wake_parked` implements.
    Parker,
}

impl Actor<PWorld> for Role {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut PWorld) -> Step {
        w.trace.push((now, me));
        match self {
            Role::Writer { delay, fired } => {
                if !*fired {
                    *fired = true;
                    return Step::Yield(VTime::ns(*delay));
                }
                w.release = Some((now, me));
                if let Some((since, p)) = w.park.take() {
                    let d = now.as_ns() - since.as_ns();
                    let g = w.grid;
                    let (j0, rem) = (d / g, d % g);
                    // First poll index j ≥ 1 with (since + j·g, p) > (now, me).
                    let j = if rem != 0 {
                        j0 + 1
                    } else if j0 >= 1 && p > me {
                        j0
                    } else {
                        j0 + 1
                    };
                    w.wakeups.push((VTime::ns(since.as_ns() + j * g), p));
                }
                Step::Halt
            }
            Role::Spinner => {
                if sees(w.release, now, me) {
                    Step::Halt
                } else {
                    Step::Yield(VTime::ns(w.grid))
                }
            }
            Role::Parker => {
                if sees(w.release, now, me) {
                    Step::Halt
                } else {
                    w.park = Some((now, me));
                    Step::Park
                }
            }
        }
    }
}

fn poll_run(actors: Vec<Role>, grid: u64) -> (Trace, VTime, Vec<VTime>) {
    let n = actors.len();
    let world = PWorld {
        trace: Trace::new(),
        release: None,
        park: None,
        wakeups: Vec::new(),
        grid,
    };
    let mut e = Engine::new(world, actors).with_waker(|w, out| out.append(&mut w.wakeups));
    let r = e.run();
    let clocks = (0..n).map(|w| e.clock(w)).collect();
    let (world, _) = e.into_parts();
    (world.trace, r.end_time, clocks)
}

/// The parked run must halt every actor at the same virtual instant as the
/// polling run — its trace is the polling trace minus the skipped re-polls.
fn assert_park_equivalent(delay: u64, grid: u64, writer_first: bool) {
    let writer = Role::Writer { delay, fired: false };
    let (spin_fleet, park_fleet) = if writer_first {
        (
            vec![writer.clone(), Role::Spinner],
            vec![writer, Role::Parker],
        )
    } else {
        (
            vec![Role::Spinner, writer.clone()],
            vec![Role::Parker, writer],
        )
    };
    let (st, send, sclocks) = poll_run(spin_fleet, grid);
    let (pt, pend, pclocks) = poll_run(park_fleet, grid);
    assert_eq!(
        send, pend,
        "end_time diverged (delay={delay} grid={grid} writer_first={writer_first})"
    );
    assert_eq!(
        sclocks, pclocks,
        "final clocks diverged (delay={delay} grid={grid} writer_first={writer_first})"
    );
    // The parked trace is a subsequence of the polling trace (only failed
    // re-polls are skipped), with identical first and last poller steps.
    let mut si = st.iter();
    assert!(
        pt.iter().all(|e| si.any(|s| s == e)),
        "parked trace is not a subsequence (delay={delay} grid={grid} writer_first={writer_first})"
    );
    assert_eq!(st.last(), pt.last(), "final steps diverged");
    assert!(pt.len() <= st.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random release delays (on- and off-grid, both id orders): parking
    /// the poller never changes end time, final clocks, or the poller's
    /// wake step — only the number of host steps.
    #[test]
    fn park_is_unobservable(delay in 1u64..200, grid in 2u64..12, writer_first in proptest::bool::ANY) {
        assert_park_equivalent(delay, grid, writer_first);
    }
}

/// The exact-grid tie: release lands precisely on a poll instant. Whether
/// the poll at that instant sees it depends on the worker-id tiebreak.
#[test]
fn park_wake_grid_tie_is_exact() {
    for &grid in &[5u64, 10] {
        for k in 1..6 {
            assert_park_equivalent(k * grid, grid, true); // writer id < poller id
            assert_park_equivalent(k * grid, grid, false); // writer id > poller id
        }
    }
}

/// Under `run_with_hook` a park is a re-poll at the next grid instant and
/// the world's wakeups are dropped, so with the default schedule a parking
/// fleet steps exactly like the polling one: same trace, clocks and end.
#[test]
fn hooked_park_is_the_polling_loop() {
    for &(delay, grid) in &[(7u64, 3u64), (12, 4), (1, 5), (20, 10)] {
        for writer_first in [true, false] {
            let writer = Role::Writer { delay, fired: false };
            let (spin_fleet, park_fleet) = if writer_first {
                (vec![writer.clone(), Role::Spinner], vec![writer, Role::Parker])
            } else {
                (vec![Role::Spinner, writer.clone()], vec![Role::Parker, writer])
            };
            let n = park_fleet.len();
            let (st, send, sclocks) = poll_run(spin_fleet, grid);
            let world = PWorld {
                trace: Trace::new(),
                release: None,
                park: None,
                wakeups: Vec::new(),
                grid,
            };
            let mut e = Engine::new(world, park_fleet)
                .with_waker(|w, out| out.append(&mut w.wakeups))
                .with_repoll(|w, _| w.park.expect("parked").0 + VTime::ns(w.grid));
            let r = e.run_with_hook(&mut ());
            let clocks: Vec<VTime> = (0..n).map(|w| e.clock(w)).collect();
            let ctx = format!("delay={delay} grid={grid} writer_first={writer_first}");
            assert_eq!(e.world.trace, st, "{ctx}");
            assert_eq!(r.end_time, send, "{ctx}");
            assert_eq!(clocks, sclocks, "{ctx}");
        }
    }
}

#[test]
#[should_panic(expected = "still parked")]
fn lost_wakeup_panics() {
    // A parker with no writer: the queue drains with it still parked.
    let world = PWorld {
        trace: Trace::new(),
        release: None,
        park: None,
        wakeups: Vec::new(),
        grid: 10,
    };
    let mut e = Engine::new(world, vec![Role::Parker]).with_waker(|w, out| out.append(&mut w.wakeups));
    e.run();
}

#[test]
#[should_panic(expected = "requires a waker")]
fn park_without_waker_panics() {
    let world = PWorld {
        trace: Trace::new(),
        release: None,
        park: None,
        wakeups: Vec::new(),
        grid: 10,
    };
    let mut e = Engine::new(world, vec![Role::Parker]);
    e.run();
}

#[test]
fn zero_yield_actors_halt_in_id_order() {
    // Three actors that never yield: three Halt steps at t=0, ids 0,1,2.
    assert_equivalent(vec![vec![], vec![], vec![]]);
    let actors = vec![Scripted::new(vec![]); 3];
    let (trace, end, steps, _) = fast_run(actors);
    assert_eq!(trace, vec![(VTime::ZERO, 0), (VTime::ZERO, 1), (VTime::ZERO, 2)]);
    assert_eq!(end, VTime::ZERO);
    assert_eq!(steps, 3);
}

#[test]
fn simultaneous_halts_match_reference() {
    // Identical scripts → every wakeup and the final halts are ties; order
    // must be by worker id at each instant, same as the reference.
    assert_equivalent(vec![vec![5, 5, 5]; 4]);
    // Mixed: one straggler outlives simultaneous early halts.
    assert_equivalent(vec![vec![], vec![2, 2], vec![1, 1, 1, 1, 1, 1, 1]]);
}
