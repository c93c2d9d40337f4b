//! Checkable scenarios: small, oracle-bearing workloads the explorer drives.
//!
//! Each [`Scenario`] is a deterministic function from a [`dcs_sim::ScheduleHook`]
//! to a list of oracle violations (empty = clean). Three families:
//!
//! * **Raw deque protocols** (`deque-steal`, `broken-release`): an owner and
//!   thieves drive [`dcs_core::deque`] verbs directly against a simulated
//!   machine, with a shadow deque as the linearizability oracle — every
//!   pushed item is popped (LIFO, by the owner) or stolen (FIFO-from-top, by
//!   a thief) *exactly once*, and nobody observes a dead ring slot.
//!   `broken-release` recomposes the steal with the lock released *before*
//!   the top advance — the historical ordering this PR fixed — and exists to
//!   prove the checker catches that bug (`expect_violation`).
//! * **Full runtime** (`single-steal:*`, `fork-join`): real programs through
//!   [`dcs_core::run_hooked`] under every Policy × FreeStrategy, with the
//!   result value and the invariant watchdog (protocol + leak oracles) as
//!   the spec.
//! * **Termination** (`bot-term`): the BoT one-sided runtime on a micro UTS
//!   tree; oracles are termination safety (created == consumed, no resident
//!   work lost) and the serial node count.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use dcs_core::dedup::ClaimSet;
use dcs_core::deque::{
    ff_owner_pop, ff_owner_push, ff_thief_claim, lock_word, owner_pop, owner_push,
    thief_advance_top, thief_lock, thief_lock_epoch, thief_read_bounds, thief_release_lock,
    thief_take, thief_take_no_release, DequeError, FfSteal,
};
use dcs_core::frame::{frame, Effect, TaskCtx};
use dcs_core::layout::{SegLayout, DQ_LOCK, DQ_TOP};
use dcs_core::util::Slab;
use dcs_core::value::{ThreadHandle, Value};
use dcs_core::world::{QueueItem, WorkerShared};
use dcs_core::{run_hooked, FreeStrategy, Policy, Program, Protocol, RunConfig};
use dcs_sim::{
    profiles, Actor, Engine, FabricMode, GlobalAddr, Machine, MachineConfig, ScheduleHook, Step,
    VTime, VerbHandle, WorkerId,
};

use crate::explore::RunRecord;
use crate::hook::{ControllerHook, PctHook};

/// One run of a scenario under a schedule controller, yielding oracle
/// violations (empty = clean).
type ScenarioRunner = Box<dyn Fn(&mut dyn ScheduleHook) -> Vec<String> + Send + Sync>;

/// A named, explorable workload with built-in oracles.
pub struct Scenario {
    pub name: String,
    pub workers: usize,
    /// True for self-test scenarios that deliberately break a protocol:
    /// exploration is expected to find at least one violation (and the
    /// checker fails if it does NOT).
    pub expect_violation: bool,
    runner: ScenarioRunner,
}

impl Scenario {
    /// Drive one run under `hook`, returning oracle violations.
    pub fn run_hooked(&self, hook: &mut dyn ScheduleHook) -> Vec<String> {
        (self.runner)(hook)
    }

    /// Replay a choice vector (missing entries = native order). Panics in
    /// the scenario are caught and reported as a violation, so a protocol
    /// assert firing under a hostile schedule is a finding, not a crash.
    pub fn run_choices(&self, choices: &[u32]) -> RunRecord {
        let mut hook = ControllerHook::new(choices);
        let caught = catch_unwind(AssertUnwindSafe(|| (self.runner)(&mut hook)));
        let violations = match caught {
            Ok(v) => v,
            Err(p) => vec![format!("panic: {}", panic_message(p.as_ref()))],
        };
        RunRecord {
            eligible: std::mem::take(&mut hook.eligible),
            taken: std::mem::take(&mut hook.taken),
            violations,
        }
    }

    /// One randomized PCT run (see [`PctHook`]); the returned record's
    /// `taken` vector replays the run exactly through [`Self::run_choices`].
    pub fn run_pct(&self, seed: u64, depth: usize, horizon: u64) -> RunRecord {
        let mut hook = PctHook::new(self.workers, seed, depth, horizon);
        let caught = catch_unwind(AssertUnwindSafe(|| (self.runner)(&mut hook)));
        let violations = match caught {
            Ok(v) => v,
            Err(p) => vec![format!("panic: {}", panic_message(p.as_ref()))],
        };
        RunRecord {
            eligible: Vec::new(),
            taken: std::mem::take(&mut hook.taken),
            violations,
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Raw deque scenarios
// ---------------------------------------------------------------------------

/// Which steal composition the thief runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReleaseOrder {
    /// The shipped protocol: top advances no later than the lock release.
    Fixed,
    /// The historical bug, recomposed from the seam functions: entry taken,
    /// lock released, and only then — one engine step later — the top
    /// advanced. Between those steps the owner can observe the dead slot.
    Broken,
    /// The posted-verb composition the Pipelined fabric runs: take without
    /// release, advance the top, then post the lock-release put and the
    /// payload get together and reap them one engine step later. The window
    /// between post and completion is a real interleaving point — the
    /// overlap-race oracle checks the owner can race into it freely and
    /// that no completion is left unreaped at the end.
    Pipelined,
}

struct DqWorld {
    m: Machine,
    items: Slab<QueueItem>,
    lay: SegLayout,
    /// Linearizability oracle: tags in deque order (front = top = oldest).
    /// Thieves must take from the front, the owner pops from the back.
    shadow: VecDeque<u64>,
    violations: Vec<String>,
}

fn dq_body(_: Value, _: &mut TaskCtx) -> Effect {
    Effect::ret(0u64)
}

fn dq_item(tag: u64) -> QueueItem {
    QueueItem::Child {
        f: dq_body,
        arg: Value::U64(tag),
        handle: ThreadHandle::single(GlobalAddr::new(0, 8 * (tag as u32 + 1))),
    }
}

fn dq_tag(item: &QueueItem) -> u64 {
    match item {
        QueueItem::Child { arg, .. } => arg.as_u64(),
        QueueItem::Cont { th, .. } => th.tid,
    }
}

enum DqActor {
    Owner { to_push: u64, pushed: u64 },
    Thief { state: ThiefState, order: ReleaseOrder },
}

enum ThiefState {
    Locking { attempts: u32 },
    Take,
    /// Broken order only: lock already released, top advance still pending.
    Advance { new_top: u64 },
    /// Pipelined order only: release put + payload get posted, not reaped.
    Reap {
        h_release: VerbHandle,
        h_copy: VerbHandle,
    },
    Done,
}

impl Actor<DqWorld> for DqActor {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut DqWorld) -> Step {
        match self {
            DqActor::Owner { to_push, pushed } => {
                if *pushed < *to_push {
                    let tag = *pushed;
                    return match owner_push(&mut w.m, &mut w.items, &w.lay, me, dq_item(tag)) {
                        Ok(cost) => {
                            *pushed += 1;
                            w.shadow.push_back(tag);
                            Step::Yield(cost)
                        }
                        Err(DequeError::Busy) => Step::Yield(w.m.local_op(me)),
                        Err(DequeError::Dead(d)) => {
                            w.violations
                                .push(format!("owner_push observed dead slot: {d:?}"));
                            Step::Halt
                        }
                    };
                }
                // Drain phase: pop until the shadow confirms nothing is left.
                match owner_pop(&mut w.m, &mut w.items, &w.lay, me) {
                    Ok((Some(item), cost)) => {
                        let tag = dq_tag(&item);
                        match w.shadow.pop_back() {
                            Some(expect) if expect == tag => {}
                            other => w.violations.push(format!(
                                "owner_pop LIFO violated: got tag {tag}, shadow back was {other:?}"
                            )),
                        }
                        Step::Yield(cost)
                    }
                    Ok((None, cost)) => {
                        if w.shadow.is_empty() {
                            Step::Halt
                        } else {
                            // Items outstanding but the deque reads empty:
                            // either a thief is mid-steal (keep waiting) or
                            // an item was lost. The end-of-run leak oracle
                            // distinguishes the two.
                            Step::Yield(cost)
                        }
                    }
                    Err(DequeError::Busy) => Step::Yield(w.m.local_op(me)),
                    Err(DequeError::Dead(d)) => {
                        w.violations.push(format!(
                            "deque-protocol: owner_pop observed a dead ring slot at index {} (steal advanced the lock before the top)",
                            d.index
                        ));
                        Step::Halt
                    }
                }
            }
            DqActor::Thief { state, order } => match state {
                ThiefState::Locking { attempts } => {
                    let (locked, cost) = thief_lock(&mut w.m, &w.lay, me, 0);
                    if locked {
                        *state = ThiefState::Take;
                    } else {
                        *attempts += 1;
                        if *attempts >= 16 {
                            return Step::Halt; // give up: a failed steal
                        }
                    }
                    Step::Yield(cost)
                }
                ThiefState::Take => match order {
                    ReleaseOrder::Fixed => {
                        match thief_take(&mut w.m, &mut w.items, &w.lay, me, 0, None) {
                            Ok((Some((item, _size)), cost)) => {
                                check_fifo(w, &item);
                                *state = ThiefState::Done;
                                Step::Yield(cost)
                            }
                            Ok((None, cost)) => {
                                if !w.shadow.is_empty() {
                                    w.violations.push(format!(
                                        "steal missed items: deque read empty with {} outstanding",
                                        w.shadow.len()
                                    ));
                                }
                                *state = ThiefState::Done;
                                Step::Yield(cost)
                            }
                            Err(d) => {
                                w.violations
                                    .push(format!("thief_take observed dead slot: {d:?}"));
                                Step::Halt
                            }
                        }
                    }
                    ReleaseOrder::Broken => {
                        match thief_take_no_release(&mut w.m, &mut w.items, &w.lay, me, 0, None) {
                            Ok((Some((item, _size, top)), cost)) => {
                                check_fifo(w, &item);
                                // BUG (deliberate): release the lock now,
                                // advance the top only next step.
                                let cost = cost + thief_release_lock(&mut w.m, &w.lay, me, 0);
                                *state = ThiefState::Advance { new_top: top + 1 };
                                Step::Yield(cost)
                            }
                            Ok((None, cost)) => {
                                let cost = cost + thief_release_lock(&mut w.m, &w.lay, me, 0);
                                *state = ThiefState::Done;
                                Step::Yield(cost)
                            }
                            Err(d) => {
                                w.violations
                                    .push(format!("thief_take observed dead slot: {d:?}"));
                                Step::Halt
                            }
                        }
                    }
                    ReleaseOrder::Pipelined => {
                        match thief_take_no_release(&mut w.m, &mut w.items, &w.lay, me, 0, None) {
                            Ok((Some((item, size, top)), cost)) => {
                                check_fifo(w, &item);
                                // The shipped pipelined composition: top is
                                // advanced before the release is posted, so
                                // the deque is consistent the instant the
                                // release's (eager) effect lands.
                                thief_advance_top(&mut w.m, &w.lay, me, 0, top + 1);
                                let at = now + cost;
                                let lock = GlobalAddr::new(0, w.lay.dq_word(DQ_LOCK));
                                let h_release = w.m.post_put_u64(me, lock, 0, at);
                                let h_copy = w.m.post_get_bulk(me, 0, size, at);
                                *state = ThiefState::Reap { h_release, h_copy };
                                Step::Yield(cost)
                            }
                            Ok((None, cost)) => {
                                let cost = cost + thief_release_lock(&mut w.m, &w.lay, me, 0);
                                *state = ThiefState::Done;
                                Step::Yield(cost)
                            }
                            Err(d) => {
                                w.violations
                                    .push(format!("thief_take observed dead slot: {d:?}"));
                                Step::Halt
                            }
                        }
                    }
                },
                ThiefState::Advance { new_top } => {
                    thief_advance_top(&mut w.m, &w.lay, me, 0, *new_top);
                    *state = ThiefState::Done;
                    Step::Yield(w.m.local_op(me))
                }
                ThiefState::Reap { h_release, h_copy } => {
                    let (_, f1) = w.m.wait(me, *h_release);
                    let (_, f2) = w.m.wait(me, *h_copy);
                    *state = ThiefState::Done;
                    Step::Yield(f1.max(f2).saturating_sub(now))
                }
                ThiefState::Done => Step::Halt,
            },
        }
    }
}

fn check_fifo(w: &mut DqWorld, item: &QueueItem) {
    let tag = dq_tag(item);
    match w.shadow.pop_front() {
        Some(expect) if expect == tag => {}
        other => w.violations.push(format!(
            "steal FIFO violated: got tag {tag}, shadow front was {other:?}"
        )),
    }
}

/// Build a raw-deque scenario: worker 0 owns the deque and pushes `n_items`;
/// workers `1..workers` each attempt one steal with the given composition.
fn deque_scenario(name: &str, workers: usize, n_items: u64, order: ReleaseOrder) -> Scenario {
    assert!(workers >= 2);
    let expect_violation = order == ReleaseOrder::Broken;
    let fabric = if order == ReleaseOrder::Pipelined {
        FabricMode::Pipelined
    } else {
        FabricMode::Blocking
    };
    let name_owned = name.to_string();
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let cfg = RunConfig::new(workers, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(workers, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved)
                .with_fabric(fabric),
        );
        let world = DqWorld {
            m,
            items: Slab::new(),
            lay,
            shadow: VecDeque::new(),
            violations: Vec::new(),
        };
        let mut actors = vec![DqActor::Owner {
            to_push: n_items,
            pushed: 0,
        }];
        for _ in 1..workers {
            actors.push(DqActor::Thief {
                state: ThiefState::Locking { attempts: 0 },
                order,
            });
        }
        let mut engine = Engine::new(world, actors).with_max_steps(100_000);
        engine.run_with_hook(hook);
        let w = &mut engine.world;
        if !w.shadow.is_empty() {
            w.violations
                .push(format!("leak: {} pushed items never consumed", w.shadow.len()));
        }
        if !w.items.is_empty() {
            w.violations
                .push("leak: queue-item slab not empty at end of run".to_string());
        }
        for p in 0..workers {
            let depth = w.m.cq_depth(p);
            if depth > 0 {
                w.violations.push(format!(
                    "overlap-race: worker {p} ended with {depth} posted verbs never reaped"
                ));
            }
        }
        std::mem::take(&mut w.violations)
    };
    Scenario {
        name: name_owned,
        workers,
        expect_violation,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Fence-free deque scenarios (the multiplicity oracle)
// ---------------------------------------------------------------------------

/// World for the fence-free steal scenarios. Unlike the CAS-lock shadow
/// deque, the oracle here is a *multiplicity* ledger: fence-free steals are
/// read/write-only, so an occupancy may be **taken** (payload transferred)
/// by more than one party, but the claim arbitration must ensure every
/// pushed task is **executed** exactly once, with the total take count per
/// task bounded by the number of potential takers (owner + thieves = the
/// worker count). Delivery order is deliberately not part of the contract —
/// fence-free takers validate instead of serializing.
struct FfWorld {
    m: Machine,
    /// Worker 0's shared state: the item slab and the live-ticket map.
    ws: WorkerShared,
    /// The claim arbiter honest takers share (models the claim-write).
    claims: ClaimSet,
    lay: SegLayout,
    /// Per-tag (executions, take attempts); filled at push time.
    counts: HashMap<u64, (u32, u32)>,
    pushed: u64,
    /// The multiplicity bound k: owner + thieves.
    cap: u32,
    violations: Vec<String>,
}

impl FfWorld {
    /// A party got the payload and will run the task.
    fn note_exec(&mut self, tag: u64, who: &str) {
        let e = self.counts.entry(tag).or_insert((0, 0));
        e.0 += 1;
        e.1 += 1;
        if e.0 > 1 {
            self.violations.push(format!(
                "multiplicity: task {tag} executed {} times ({who} took it again)",
                e.0
            ));
        }
        if e.1 > self.cap {
            self.violations.push(format!(
                "multiplicity: task {tag} taken {} times, bound is {}",
                e.1, self.cap
            ));
        }
    }

    /// A party paid the payload transfer but lost the claim race.
    fn note_dup(&mut self, tag: u64) {
        let e = self.counts.entry(tag).or_insert((0, 0));
        e.1 += 1;
        if e.1 > self.cap {
            self.violations.push(format!(
                "multiplicity: task {tag} taken {} times, bound is {}",
                e.1, self.cap
            ));
        }
    }

    fn all_executed(&self) -> bool {
        self.counts.values().all(|&(e, _)| e >= 1)
    }
}

enum FfActor {
    Owner {
        to_push: u64,
    },
    Thief {
        state: FfThiefState,
        /// `Some` recomposes the deliberate bug: this thief arbitrates
        /// against its own private claim set — a claim-write that reaches
        /// nobody — so a take it wins is invisible to the owner and the
        /// task runs twice. The self-test (`broken-claim`) proves the
        /// multiplicity oracle catches exactly that.
        private_claims: Option<ClaimSet>,
    },
}

enum FfThiefState {
    Bounds { attempts: u32 },
    Claim { top: u64, attempts: u32 },
    Done,
}

impl Actor<FfWorld> for FfActor {
    fn step(&mut self, me: WorkerId, _now: VTime, w: &mut FfWorld) -> Step {
        match self {
            FfActor::Owner { to_push } => {
                if w.pushed < *to_push {
                    let tag = w.pushed;
                    let cost = ff_owner_push(&mut w.m, &mut w.ws, &w.lay, me, dq_item(tag));
                    w.pushed += 1;
                    w.counts.insert(tag, (0, 0));
                    return Step::Yield(cost);
                }
                match ff_owner_pop(&mut w.m, &mut w.ws, &mut w.claims, &w.lay, me) {
                    Ok((Some(item), cost)) => {
                        let tag = dq_tag(&item);
                        w.note_exec(tag, "owner_pop");
                        Step::Yield(cost)
                    }
                    Ok((None, cost)) => {
                        // Claim + execution bookkeeping are atomic within a
                        // taker's step, so an empty deque with every task
                        // executed means the run is over; otherwise a thief
                        // is still between bounds read and claim.
                        if w.pushed == *to_push && w.all_executed() {
                            Step::Halt
                        } else {
                            Step::Yield(cost)
                        }
                    }
                    Err(DequeError::Busy) => {
                        unreachable!("fence-free owners are never blocked")
                    }
                    Err(DequeError::Dead(d)) => {
                        w.violations
                            .push(format!("ff_owner_pop observed a corrupt slot: {d:?}"));
                        Step::Halt
                    }
                }
            }
            FfActor::Thief {
                state,
                private_claims,
            } => match state {
                FfThiefState::Bounds { attempts } => {
                    let ((top, bottom), cost) = thief_read_bounds(&mut w.m, &w.lay, me, 0);
                    if top >= bottom {
                        *attempts += 1;
                        if *attempts >= 16 {
                            return Step::Halt; // give up: a failed steal
                        }
                        return Step::Yield(cost);
                    }
                    *state = FfThiefState::Claim {
                        top,
                        attempts: *attempts,
                    };
                    Step::Yield(cost)
                }
                FfThiefState::Claim { top, attempts } => {
                    // Oracle-side peek at the slot the claim will target, so
                    // a Dup can be charged to the right task.
                    let keyp1 = w.m.read_own(0, GlobalAddr::new(0, w.lay.dq_slot(*top)));
                    let (outcome, mut cost) = match private_claims {
                        Some(p) => ff_thief_claim(&mut w.m, &mut w.ws, p, &w.lay, me, 0, *top),
                        None => ff_thief_claim(
                            &mut w.m,
                            &mut w.ws,
                            &mut w.claims,
                            &w.lay,
                            me,
                            0,
                            *top,
                        ),
                    };
                    match outcome {
                        FfSteal::Taken(item, size) => {
                            cost += w.m.get_bulk(me, 0, size);
                            let tag = dq_tag(&item);
                            w.note_exec(tag, &format!("thief {me}"));
                            *state = FfThiefState::Done; // one steal per thief
                            Step::Yield(cost)
                        }
                        FfSteal::Dup => {
                            let tag = keyp1
                                .checked_sub(1)
                                .and_then(|k| w.ws.items.get(k as u32))
                                .map(dq_tag);
                            if let Some(tag) = tag {
                                w.note_dup(tag);
                            }
                            *state = FfThiefState::Bounds {
                                attempts: *attempts + 1,
                            };
                            Step::Yield(cost)
                        }
                        FfSteal::Lost => {
                            *state = FfThiefState::Bounds {
                                attempts: *attempts + 1,
                            };
                            Step::Yield(cost)
                        }
                    }
                }
                FfThiefState::Done => Step::Halt,
            },
        }
    }
}

/// Build a fence-free steal scenario: worker 0 owns the ring and pushes
/// `n_items` `Child` descriptors; workers `1..workers` each run the
/// bounds-read → claim pipeline. With `broken_claim`, every thief arbitrates
/// against a private claim set (the no-op claim-write bug) and the
/// multiplicity oracle must catch a double execution.
fn ff_deque_scenario(name: &str, workers: usize, n_items: u64, broken_claim: bool) -> Scenario {
    assert!(workers >= 2);
    let name_owned = name.to_string();
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let cfg = RunConfig::new(workers, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(workers, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        let world = FfWorld {
            m,
            ws: WorkerShared::new(&cfg),
            claims: ClaimSet::default(),
            lay,
            counts: HashMap::new(),
            pushed: 0,
            cap: workers as u32,
            violations: Vec::new(),
        };
        let mut actors = vec![FfActor::Owner { to_push: n_items }];
        for _ in 1..workers {
            actors.push(FfActor::Thief {
                state: FfThiefState::Bounds { attempts: 0 },
                private_claims: broken_claim.then(ClaimSet::default),
            });
        }
        let mut engine = Engine::new(world, actors).with_max_steps(100_000);
        engine.run_with_hook(hook);
        let w = &mut engine.world;
        let mut tags: Vec<u64> = w.counts.keys().copied().collect();
        tags.sort_unstable();
        for tag in tags {
            let (exec, takes) = w.counts[&tag];
            if exec != 1 {
                w.violations.push(format!(
                    "multiplicity: task {tag} executed {exec} times, want exactly 1"
                ));
            }
            if takes > w.cap {
                w.violations.push(format!(
                    "multiplicity: task {tag} taken {takes} times, bound is {}",
                    w.cap
                ));
            }
        }
        if !w.ws.items.is_empty() {
            w.violations
                .push("leak: queue-item slab not empty at end of run".to_string());
        }
        if !w.ws.ff_tickets.is_empty() {
            w.violations
                .push("leak: live tickets left at end of run".to_string());
        }
        w.violations.sort_unstable();
        w.violations.dedup();
        std::mem::take(&mut w.violations)
    };
    Scenario {
        name: name_owned,
        workers,
        expect_violation: broken_claim,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Multi-steal probe-ring scenarios
// ---------------------------------------------------------------------------

/// World for the multi-steal probe rings: TWO owners (workers 0 and 1) each
/// drive their own deque; each thief keeps a probe on both victims in flight
/// at once — the `--multi-steal` composition — and commits the first in ring
/// order that holds work, abandoning the other. Oracles: per-deque
/// exactly-once FIFO/LIFO (shadow deques), every victim's lock word reads 0
/// at the end of the run (an abandoned steal must release a won-but-unused
/// lock), and no posted verb is left unreaped.
struct MsWorld {
    m: Machine,
    items: Vec<Slab<QueueItem>>,
    lay: SegLayout,
    shadow: Vec<VecDeque<u64>>,
    violations: Vec<String>,
}

enum MsActor {
    Owner { to_push: u64, pushed: u64 },
    Thief { state: MsThiefState, pipelined: bool },
}

enum MsThiefState {
    /// Probe both victims in one step (the ring is posted as a unit).
    Probe { attempts: u32 },
    /// Ring winner committed: the lock is held and the bounds are frozen
    /// across this engine-step boundary — the window the owners and the
    /// other thieves interleave into.
    Take { victim: WorkerId, top: u64, bottom: u64 },
    Done,
}

impl Actor<MsWorld> for MsActor {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut MsWorld) -> Step {
        match self {
            MsActor::Owner { to_push, pushed } => {
                if *pushed < *to_push {
                    let tag = me as u64 * 100 + *pushed;
                    return match owner_push(&mut w.m, &mut w.items[me], &w.lay, me, dq_item(tag))
                    {
                        Ok(cost) => {
                            *pushed += 1;
                            w.shadow[me].push_back(tag);
                            Step::Yield(cost)
                        }
                        Err(DequeError::Busy) => Step::Yield(w.m.local_op(me)),
                        Err(DequeError::Dead(d)) => {
                            w.violations
                                .push(format!("owner_push observed dead slot: {d:?}"));
                            Step::Halt
                        }
                    };
                }
                match owner_pop(&mut w.m, &mut w.items[me], &w.lay, me) {
                    Ok((Some(item), cost)) => {
                        let tag = dq_tag(&item);
                        match w.shadow[me].pop_back() {
                            Some(expect) if expect == tag => {}
                            other => w.violations.push(format!(
                                "owner_pop LIFO violated: got tag {tag}, shadow back was {other:?}"
                            )),
                        }
                        Step::Yield(cost)
                    }
                    Ok((None, cost)) => {
                        if w.shadow[me].is_empty() {
                            Step::Halt
                        } else {
                            Step::Yield(cost)
                        }
                    }
                    Err(DequeError::Busy) => Step::Yield(w.m.local_op(me)),
                    Err(DequeError::Dead(d)) => {
                        w.violations.push(format!(
                            "multi-steal: owner_pop observed a dead ring slot at index {}",
                            d.index
                        ));
                        Step::Halt
                    }
                }
            }
            MsActor::Thief { state, pipelined } => match state {
                MsThiefState::Probe { attempts } => {
                    const RING: [usize; 2] = [0, 1];
                    let mut cost = VTime::ZERO;
                    // (victim, lock won, top, bottom) per ring slot.
                    let mut probes: Vec<(usize, bool, u64, u64)> = Vec::new();
                    if *pipelined {
                        // The shipped pipelined ring: every probe's CAS and
                        // bounds read posted behind one doorbell, reaped
                        // together; decisions use the eager values.
                        w.m.chain_begin(me);
                        let mut handles = Vec::new();
                        for &v in &RING {
                            let lock = GlobalAddr::new(v, w.lay.dq_word(DQ_LOCK));
                            let h_cas = w.m.post_cas_u64(me, lock, 0, me as u64 + 1, now);
                            let top_addr = GlobalAddr::new(v, w.lay.dq_word(DQ_TOP));
                            let (vals, h_b) = w.m.post_get_u64_span::<2>(me, top_addr, now);
                            handles.push((v, h_cas, h_b, vals));
                        }
                        w.m.chain_end(me);
                        let mut fin_max = now;
                        for (v, h_cas, h_b, vals) in handles {
                            let (observed, f1) = w.m.wait(me, h_cas);
                            let (_, f2) = w.m.wait(me, h_b);
                            fin_max = fin_max.max(f1).max(f2);
                            probes.push((v, observed == 0, vals[0], vals[1]));
                        }
                        cost = fin_max.saturating_sub(now);
                    } else {
                        for &v in &RING {
                            let (locked, c1) = thief_lock(&mut w.m, &w.lay, me, v);
                            cost += c1;
                            if locked {
                                let ((top, bottom), c2) =
                                    thief_read_bounds(&mut w.m, &w.lay, me, v);
                                cost += c2;
                                probes.push((v, true, top, bottom));
                            } else {
                                probes.push((v, false, 0, 0));
                            }
                        }
                    }
                    // First in ring order with the lock AND work wins; every
                    // other won lock is released before this step ends — a
                    // leak here is exactly what the end-of-run lock oracle
                    // catches.
                    let mut won: Option<(usize, u64, u64)> = None;
                    for &(v, locked, top, bottom) in &probes {
                        if !locked {
                            continue;
                        }
                        if won.is_none() && top < bottom {
                            won = Some((v, top, bottom));
                        } else {
                            cost += thief_release_lock(&mut w.m, &w.lay, me, v);
                        }
                    }
                    match won {
                        Some((v, top, bottom)) => {
                            *state = MsThiefState::Take { victim: v, top, bottom };
                            Step::Yield(cost)
                        }
                        None => {
                            *attempts += 1;
                            if *attempts >= 16 {
                                return Step::Halt; // give up: failed steals
                            }
                            Step::Yield(cost.max(w.m.local_op(me)))
                        }
                    }
                }
                MsThiefState::Take { victim, top, bottom } => {
                    let v = *victim;
                    match thief_take(
                        &mut w.m,
                        &mut w.items[v],
                        &w.lay,
                        me,
                        v,
                        Some((*top, *bottom)),
                    ) {
                        Ok((Some((item, _size)), cost)) => {
                            let tag = dq_tag(&item);
                            match w.shadow[v].pop_front() {
                                Some(expect) if expect == tag => {}
                                other => w.violations.push(format!(
                                    "steal FIFO violated on victim {v}: got tag {tag}, shadow front was {other:?}"
                                )),
                            }
                            *state = MsThiefState::Done;
                            Step::Yield(cost)
                        }
                        Ok((None, cost)) => {
                            // The bounds were read under the held lock, so
                            // the owner cannot have drained the slot since.
                            w.violations.push(format!(
                                "multi-steal: probe promised work on victim {v} but the known-bounds take found none"
                            ));
                            *state = MsThiefState::Done;
                            Step::Yield(cost)
                        }
                        Err(d) => {
                            w.violations
                                .push(format!("known-bounds thief_take observed dead slot: {d:?}"));
                            Step::Halt
                        }
                    }
                }
                MsThiefState::Done => Step::Halt,
            },
        }
    }
}

/// Build a multi-steal probe-ring scenario: workers 0 and 1 own deques and
/// push `n_items` each; workers `2..workers` run the two-victim probe ring
/// (posted as one doorbell chain when `pipelined`).
fn multi_steal_scenario(name: &str, workers: usize, n_items: u64, pipelined: bool) -> Scenario {
    let workers = workers.max(3);
    let fabric = if pipelined {
        FabricMode::Pipelined
    } else {
        FabricMode::Blocking
    };
    let name_owned = name.to_string();
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let cfg = RunConfig::new(workers, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(workers, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved)
                .with_fabric(fabric),
        );
        let world = MsWorld {
            m,
            items: (0..workers).map(|_| Slab::new()).collect(),
            lay,
            shadow: vec![VecDeque::new(); workers],
            violations: Vec::new(),
        };
        let mut actors = vec![
            MsActor::Owner { to_push: n_items, pushed: 0 },
            MsActor::Owner { to_push: n_items, pushed: 0 },
        ];
        for _ in 2..workers {
            actors.push(MsActor::Thief {
                state: MsThiefState::Probe { attempts: 0 },
                pipelined,
            });
        }
        let mut engine = Engine::new(world, actors).with_max_steps(100_000);
        engine.run_with_hook(hook);
        let w = &mut engine.world;
        for v in 0..2usize {
            if !w.shadow[v].is_empty() {
                w.violations.push(format!(
                    "leak: {} items of victim {v} never consumed",
                    w.shadow[v].len()
                ));
            }
            if !w.items[v].is_empty() {
                w.violations
                    .push(format!("leak: victim {v}'s queue-item slab not empty"));
            }
            let lock = w.m.read_own(v, GlobalAddr::new(v, w.lay.dq_word(DQ_LOCK)));
            if lock != 0 {
                w.violations.push(format!(
                    "abandoned lock: victim {v}'s deque lock still held by {lock} at end of run"
                ));
            }
        }
        for p in 0..workers {
            let depth = w.m.cq_depth(p);
            if depth > 0 {
                w.violations.push(format!(
                    "overlap-race: worker {p} ended with {depth} posted verbs never reaped"
                ));
            }
        }
        std::mem::take(&mut w.violations)
    };
    Scenario {
        name: name_owned,
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

/// World for the fence-free multi-steal variant: two owners with their own
/// rings, ticket maps and claim arbiters; thieves probe both victims'
/// bounds, then run the claim pipeline against the ring winner ONLY. The
/// multiplicity ledger is the double-claim oracle: a thief that claimed the
/// victim it abandoned would execute a task twice (or leak a ticket, caught
/// at end of run).
struct MsFfWorld {
    m: Machine,
    ws: Vec<WorkerShared>,
    claims: Vec<ClaimSet>,
    lay: SegLayout,
    /// Per (victim, tag): (executions, take attempts).
    counts: HashMap<(usize, u64), (u32, u32)>,
    /// Takers per deque: its owner + every thief.
    cap: u32,
    violations: Vec<String>,
}

impl MsFfWorld {
    fn note_exec(&mut self, victim: usize, tag: u64, who: &str) {
        let e = self.counts.entry((victim, tag)).or_insert((0, 0));
        e.0 += 1;
        e.1 += 1;
        if e.0 > 1 {
            self.violations.push(format!(
                "multiplicity: victim {victim} task {tag} executed {} times ({who} took it again)",
                e.0
            ));
        }
        if e.1 > self.cap {
            self.violations.push(format!(
                "multiplicity: victim {victim} task {tag} taken {} times, bound is {}",
                e.1, self.cap
            ));
        }
    }

    fn note_dup(&mut self, victim: usize, tag: u64) {
        let e = self.counts.entry((victim, tag)).or_insert((0, 0));
        e.1 += 1;
        if e.1 > self.cap {
            self.violations.push(format!(
                "multiplicity: victim {victim} task {tag} taken {} times, bound is {}",
                e.1, self.cap
            ));
        }
    }

    fn owner_done(&self, me: usize) -> bool {
        self.counts
            .iter()
            .filter(|((v, _), _)| *v == me)
            .all(|(_, &(e, _))| e >= 1)
    }
}

enum MsFfActor {
    Owner { to_push: u64, pushed: u64 },
    Thief { state: MsFfState },
}

enum MsFfState {
    /// Read both victims' bounds in one step (the posted ring).
    Probe { attempts: u32 },
    /// Claim against the ring winner only — never the abandoned victim.
    Claim { victim: usize, top: u64, attempts: u32 },
    Done,
}

impl Actor<MsFfWorld> for MsFfActor {
    fn step(&mut self, me: WorkerId, _now: VTime, w: &mut MsFfWorld) -> Step {
        match self {
            MsFfActor::Owner { to_push, pushed } => {
                if *pushed < *to_push {
                    let tag = *pushed;
                    let cost =
                        ff_owner_push(&mut w.m, &mut w.ws[me], &w.lay, me, dq_item(tag));
                    *pushed += 1;
                    w.counts.insert((me, tag), (0, 0));
                    return Step::Yield(cost);
                }
                match ff_owner_pop(&mut w.m, &mut w.ws[me], &mut w.claims[me], &w.lay, me) {
                    Ok((Some(item), cost)) => {
                        let tag = dq_tag(&item);
                        w.note_exec(me, tag, "owner_pop");
                        Step::Yield(cost)
                    }
                    Ok((None, cost)) => {
                        if *pushed == *to_push && w.owner_done(me) {
                            Step::Halt
                        } else {
                            Step::Yield(cost)
                        }
                    }
                    Err(DequeError::Busy) => {
                        unreachable!("fence-free owners are never blocked")
                    }
                    Err(DequeError::Dead(d)) => {
                        w.violations
                            .push(format!("ff_owner_pop observed a corrupt slot: {d:?}"));
                        Step::Halt
                    }
                }
            }
            MsFfActor::Thief { state } => match state {
                MsFfState::Probe { attempts } => {
                    const RING: [usize; 2] = [0, 1];
                    let mut cost = VTime::ZERO;
                    let mut won: Option<(usize, u64)> = None;
                    for &v in &RING {
                        let ((top, bottom), c) = thief_read_bounds(&mut w.m, &w.lay, me, v);
                        cost += c;
                        if won.is_none() && top < bottom {
                            won = Some((v, top));
                        }
                        // An abandoned ready victim needs no cancel under
                        // fence-free: the probe was a plain read, no ticket
                        // was claimed.
                    }
                    match won {
                        Some((v, top)) => {
                            *state = MsFfState::Claim { victim: v, top, attempts: *attempts };
                            Step::Yield(cost)
                        }
                        None => {
                            *attempts += 1;
                            if *attempts >= 16 {
                                return Step::Halt; // give up: failed steals
                            }
                            Step::Yield(cost)
                        }
                    }
                }
                MsFfState::Claim { victim, top, attempts } => {
                    let v = *victim;
                    // Oracle-side peek at the claim target so a Dup can be
                    // charged to the right task.
                    let keyp1 = w.m.read_own(v, GlobalAddr::new(v, w.lay.dq_slot(*top)));
                    let (outcome, mut cost) = ff_thief_claim(
                        &mut w.m,
                        &mut w.ws[v],
                        &mut w.claims[v],
                        &w.lay,
                        me,
                        v,
                        *top,
                    );
                    match outcome {
                        FfSteal::Taken(item, size) => {
                            cost += w.m.get_bulk(me, v, size);
                            let tag = dq_tag(&item);
                            w.note_exec(v, tag, &format!("thief {me}"));
                            *state = MsFfState::Done; // one steal per thief
                            Step::Yield(cost)
                        }
                        FfSteal::Dup => {
                            let tag = keyp1
                                .checked_sub(1)
                                .and_then(|k| w.ws[v].items.get(k as u32))
                                .map(dq_tag);
                            if let Some(tag) = tag {
                                w.note_dup(v, tag);
                            }
                            *state = MsFfState::Probe { attempts: *attempts + 1 };
                            Step::Yield(cost)
                        }
                        FfSteal::Lost => {
                            *state = MsFfState::Probe { attempts: *attempts + 1 };
                            Step::Yield(cost)
                        }
                    }
                }
                MsFfState::Done => Step::Halt,
            },
        }
    }
}

/// Build the fence-free multi-steal scenario: workers 0 and 1 own rings and
/// push `n_items` each; workers `2..workers` probe both and claim from the
/// ring winner only.
fn ms_ff_scenario(name: &str, workers: usize, n_items: u64) -> Scenario {
    let workers = workers.max(3);
    let name_owned = name.to_string();
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let cfg = RunConfig::new(workers, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(workers, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        let world = MsFfWorld {
            m,
            ws: (0..workers).map(|_| WorkerShared::new(&cfg)).collect(),
            claims: (0..workers).map(|_| ClaimSet::default()).collect(),
            lay,
            counts: HashMap::new(),
            cap: (workers - 1) as u32,
            violations: Vec::new(),
        };
        let mut actors = vec![
            MsFfActor::Owner { to_push: n_items, pushed: 0 },
            MsFfActor::Owner { to_push: n_items, pushed: 0 },
        ];
        for _ in 2..workers {
            actors.push(MsFfActor::Thief {
                state: MsFfState::Probe { attempts: 0 },
            });
        }
        let mut engine = Engine::new(world, actors).with_max_steps(100_000);
        engine.run_with_hook(hook);
        let w = &mut engine.world;
        let mut keys: Vec<(usize, u64)> = w.counts.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let (exec, takes) = w.counts[&key];
            if exec != 1 {
                w.violations.push(format!(
                    "multiplicity: victim {} task {} executed {exec} times, want exactly 1",
                    key.0, key.1
                ));
            }
            if takes > w.cap {
                w.violations.push(format!(
                    "multiplicity: victim {} task {} taken {takes} times, bound is {}",
                    key.0, key.1, w.cap
                ));
            }
        }
        for v in 0..2usize {
            if !w.ws[v].items.is_empty() {
                w.violations
                    .push(format!("leak: victim {v}'s queue-item slab not empty"));
            }
            if !w.ws[v].ff_tickets.is_empty() {
                w.violations.push(format!(
                    "leak: victim {v} has live tickets left at end of run (double claim?)"
                ));
            }
        }
        w.violations.sort_unstable();
        w.violations.dedup();
        std::mem::take(&mut w.violations)
    };
    Scenario {
        name: name_owned,
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Full-runtime scenarios
// ---------------------------------------------------------------------------

fn leaf(arg: Value, _ctx: &mut TaskCtx) -> Effect {
    Effect::ret(arg.as_u64() * 2)
}

/// Root forks one leaf and joins it: the smallest program whose every run
/// exercises push, pop-parent (the Fig. 4 DIE fast path) and — under a
/// hostile schedule — a steal racing that fast path on a one-item deque.
fn single_steal_root(_arg: Value, _ctx: &mut TaskCtx) -> Effect {
    Effect::fork(
        leaf,
        7u64,
        frame(|h, _| {
            let h = h.as_handle();
            Effect::join(h, frame(|v, _| Effect::ret(v.as_u64() + 1)))
        }),
    )
}

fn fib(arg: Value, _ctx: &mut TaskCtx) -> Effect {
    let n = arg.as_u64();
    if n < 2 {
        return Effect::ret(n);
    }
    Effect::fork(
        fib,
        n - 1,
        frame(move |h, _| {
            let h = h.as_handle();
            Effect::call(
                fib,
                n - 2,
                frame(move |b, _| {
                    let b = b.as_u64();
                    Effect::join(h, frame(move |a, _| Effect::ret(a.as_u64() + b)))
                }),
            )
        }),
    )
}

fn policy_slug(p: Policy) -> &'static str {
    match p {
        Policy::ContGreedy => "greedy",
        Policy::ContStalling => "stalling",
        Policy::ChildFull => "child-full",
        Policy::ChildRtc => "child-rtc",
    }
}

fn strategy_slug(s: FreeStrategy) -> &'static str {
    match s {
        FreeStrategy::LockQueue => "lockq",
        FreeStrategy::LocalCollection => "localc",
    }
}

/// What a full-runtime scenario executes and expects back.
#[derive(Clone, Copy)]
struct ProgSpec {
    root: dcs_core::TaskFn,
    arg: u64,
    expected: u64,
}

/// A full-runtime scenario: run the program under the policy/strategy pair
/// with the watchdog on (non-strict, so leaks and protocol violations are
/// reported instead of panicking) and check the result value.
#[allow(clippy::too_many_arguments)]
fn runtime_scenario(
    name: String,
    workers: usize,
    seed: u64,
    policy: Policy,
    strategy: FreeStrategy,
    fabric: FabricMode,
    protocol: Protocol,
    multi_steal: u32,
    spec: ProgSpec,
) -> Scenario {
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let cfg = RunConfig::new(workers, policy)
            .with_profile(profiles::test_profile())
            .with_free_strategy(strategy)
            .with_watchdog(true)
            .with_strict(false)
            .with_seed(seed)
            .with_fabric(fabric)
            .with_protocol(protocol)
            .with_multi_steal(multi_steal);
        let report = run_hooked(cfg, Program::new(spec.root, spec.arg), hook);
        let mut violations = Vec::new();
        if report.result.as_u64() != spec.expected {
            violations.push(format!(
                "wrong result: got {}, expected {}",
                report.result.as_u64(),
                spec.expected
            ));
        }
        match &report.watchdog {
            Some(wd) => violations.extend(wd.violations.iter().map(|v| v.to_string())),
            None => violations.push("watchdog missing from report".to_string()),
        }
        violations
    };
    Scenario {
        name,
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Fail-stop crash scenarios
// ---------------------------------------------------------------------------

/// Crash-recovery oracle: a run that loses a worker mid-run must still
/// produce the exact fault-free answer under EVERY schedule —
/// continuation-lineage replay plus done-flag dedup means at-least-once
/// execution with exactly-once effects. Covers every recoverable policy:
/// ChildRtc replays stolen child descriptors; the continuation policies
/// replay forked continuation frames and repair the ContGreedy FAA race /
/// ContStalling wait queues through the buddy mirror; killing worker 0
/// additionally exercises root re-election. Leak violations are expected
/// (entries on the dead segment can never be freed, and orphaned duplicate
/// subtrees are tolerated-but-leaky) and filtered; anything else the
/// watchdog reports is a finding.
fn crash_recovery_scenario(
    name: &str,
    workers: usize,
    seed: u64,
    policy: Policy,
    victim: usize,
) -> Scenario {
    use dcs_core::RunOutcome;
    let name_owned = name.to_string();
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let mut plan = dcs_sim::FaultPlan::none().with_kill(victim, VTime::ns(100));
        plan.lease = VTime::us(5); // keep death confirmation inside the run
        let cfg = RunConfig::new(workers, policy)
            .with_profile(profiles::test_profile())
            .with_watchdog(true)
            .with_strict(false)
            .with_seed(seed)
            .with_fault_plan(plan);
        let report = run_hooked(cfg, Program::new(fib, 9u64), hook);
        let mut violations = Vec::new();
        if !matches!(report.outcome, RunOutcome::Complete) {
            violations.push(format!(
                "recoverable kill aborted the run: {:?}",
                report.outcome
            ));
        } else if report.result.as_u64() != 34 {
            violations.push(format!(
                "wrong result after recovery: got {}, expected 34 (workers_lost={}, replayed={})",
                report.result.as_u64(),
                report.stats.workers_lost,
                report.stats.tasks_replayed
            ));
        }
        if let Some(wd) = &report.watchdog {
            violations.extend(
                wd.violations
                    .iter()
                    .filter(|v| !matches!(v, dcs_core::watchdog::Violation::Leak { .. }))
                    .map(|v| v.to_string()),
            );
        }
        violations
    };
    Scenario {
        name: name_owned,
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

/// Crash-abort oracle: ChildFull is the one policy whose lost state (full
/// private stacks of suspendable tied threads) genuinely cannot be replayed
/// or mirrored, so a kill that fires mid-run must end in a typed
/// `Unrecoverable` outcome naming the lost worker with the `FullStacks`
/// reason — never a silent wrong answer or a wedged run (a wedge surfaces
/// as a missing root result, which panics and is caught).
fn crash_abort_scenario(workers: usize, seed: u64) -> Scenario {
    use dcs_core::{RunOutcome, UnrecoverableReason};
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let mut plan = dcs_sim::FaultPlan::none().with_kill(workers - 1, VTime::ns(100));
        plan.lease = VTime::us(5);
        let cfg = RunConfig::new(workers, Policy::ChildFull)
            .with_profile(profiles::test_profile())
            .with_watchdog(true)
            .with_strict(false)
            .with_seed(seed)
            .with_fault_plan(plan);
        let report = run_hooked(cfg, Program::new(fib, 9u64), hook);
        let mut violations = Vec::new();
        match (&report.outcome, report.stats.workers_lost) {
            // The schedule let the run finish before the kill landed: the
            // answer must simply be right.
            (RunOutcome::Complete, 0) => {
                if report.result.as_u64() != 34 {
                    violations.push(format!(
                        "wrong result: got {}, expected 34",
                        report.result.as_u64()
                    ));
                }
            }
            (RunOutcome::Complete, _) => violations.push(
                "full-stack child-stealing run completed despite losing a worker's stacks"
                    .to_string(),
            ),
            (RunOutcome::Unrecoverable { worker, reason, .. }, _) => {
                if *worker != workers - 1 {
                    violations.push(format!(
                        "abort blamed worker {worker}, killed {}",
                        workers - 1
                    ));
                }
                if *reason != UnrecoverableReason::FullStacks {
                    violations.push(format!(
                        "abort carried the wrong typed reason: {reason:?}"
                    ));
                }
                let named = report.watchdog.as_ref().is_some_and(|wd| {
                    wd.violations.iter().any(|v| {
                        matches!(v, dcs_core::watchdog::Violation::WorkerLost { .. })
                    })
                });
                if !named {
                    violations
                        .push("abort did not record a worker-lost diagnostic".to_string());
                }
            }
        }
        violations
    };
    Scenario {
        name: "crash-abort".to_string(),
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Zombie-steal scenarios (imperfect failure detection)
// ---------------------------------------------------------------------------

/// The zombie seam, recomposed from the raw deque verbs. Worker 0 owns the
/// deque; worker 1 (the *zombie*) locks it with an epoch-stamped lock word
/// and then pauses mid-steal; worker 2 (the *suspector*) plays a message
/// detector with a false positive — it observes the held lock, evicts the
/// live holder (epoch bump), breaks the now-stale lock exactly as the
/// owner's `break_dead_lock` would, and steals in the zombie's place.
///
/// Shipped composition: the zombie re-checks its own incarnation epoch
/// before every deque mutation (the runtime's self-fence) and abandons the
/// steal the moment it observes its own eviction — so no schedule can make
/// an evicted incarnation touch the deque. With `broken`, the epoch check
/// is removed from the take-verb class: the zombie completes the take with
/// its pre-eviction view, executing a task in a dead incarnation — the
/// two-epochs oracle (and, on nastier schedules, the shadow FIFO and slab
/// tears) must catch it.
enum ZombieActor {
    Owner {
        to_push: u64,
        pushed: u64,
    },
    Zombie {
        state: ZombieState,
        broken: bool,
    },
    Suspector {
        state: SuspectorState,
    },
}

enum ZombieState {
    Locking { attempts: u32 },
    /// Lock held, take pending: the eviction window the explorer aims at.
    Pause,
    Take,
    Done,
}

enum SuspectorState {
    /// Poll the victim's lock word until the zombie is seen holding it.
    Watch { attempts: u32 },
    Locking { attempts: u32 },
    Take,
    Done,
}

impl Actor<DqWorld> for ZombieActor {
    fn step(&mut self, me: WorkerId, _now: VTime, w: &mut DqWorld) -> Step {
        match self {
            ZombieActor::Owner { to_push, pushed } => {
                owner_step(me, w, to_push, pushed)
            }
            ZombieActor::Zombie { state, broken } => {
                // The runtime's self-fence: a worker observing its own
                // eviction quiesces before issuing another verb. The broken
                // variant drops the check from the take class only, so the
                // lock acquisition stays faithful either way.
                match state {
                    ZombieState::Locking { attempts } => {
                        let (locked, cost) = thief_lock_epoch(&mut w.m, &w.lay, me, 0, 0);
                        if locked {
                            *state = ZombieState::Pause;
                        } else {
                            *attempts += 1;
                            if *attempts >= 16 {
                                return Step::Halt;
                            }
                        }
                        Step::Yield(cost)
                    }
                    ZombieState::Pause => {
                        // One idle beat between lock and take: the window a
                        // degraded NIC opens in the real runtime, and the
                        // window the suspector's eviction lands in.
                        *state = ZombieState::Take;
                        Step::Yield(w.m.local_op(me))
                    }
                    ZombieState::Take => {
                        if !*broken && w.m.epoch_of(me) > 0 {
                            // Shipped: observed own eviction — abandon. The
                            // lock is already someone else's problem (the
                            // suspector broke it as stale).
                            *state = ZombieState::Done;
                            return Step::Yield(w.m.local_op(me));
                        }
                        match thief_take(&mut w.m, &mut w.items, &w.lay, me, 0, None) {
                            Ok((Some((item, _size)), cost)) => {
                                if w.m.epoch_of(me) > 0 {
                                    w.violations.push(
                                        "zombie-steal: task taken by an evicted \
                                         incarnation (epoch fence missing on the \
                                         take verb)"
                                            .to_string(),
                                    );
                                }
                                check_fifo(w, &item);
                                *state = ZombieState::Done;
                                Step::Yield(cost)
                            }
                            Ok((None, cost)) => {
                                *state = ZombieState::Done;
                                Step::Yield(cost)
                            }
                            Err(d) => {
                                w.violations
                                    .push(format!("zombie thief_take observed dead slot: {d:?}"));
                                Step::Halt
                            }
                        }
                    }
                    ZombieState::Done => Step::Halt,
                }
            }
            ZombieActor::Suspector { state } => match state {
                SuspectorState::Watch { attempts } => {
                    let lock = GlobalAddr::new(0, w.lay.dq_word(DQ_LOCK));
                    let (word, cost) = w.m.get_u64(me, lock);
                    if word == lock_word(0, 1) {
                        // False suspicion: the holder is alive, but its
                        // heartbeats look stale from here. Evict it and
                        // break the stale-epoch lock (the owner-side
                        // `break_dead_lock` clause, run by a survivor).
                        w.m.evict(1);
                        let cost = cost + w.m.put_u64(me, lock, 0);
                        *state = SuspectorState::Locking { attempts: 0 };
                        return Step::Yield(cost);
                    }
                    *attempts += 1;
                    if *attempts >= 40 {
                        return Step::Halt; // the zombie finished first: no eviction
                    }
                    Step::Yield(cost)
                }
                SuspectorState::Locking { attempts } => {
                    let (locked, cost) = thief_lock_epoch(&mut w.m, &w.lay, me, 0, 0);
                    if locked {
                        *state = SuspectorState::Take;
                    } else {
                        *attempts += 1;
                        if *attempts >= 16 {
                            return Step::Halt;
                        }
                    }
                    Step::Yield(cost)
                }
                SuspectorState::Take => {
                    match thief_take(&mut w.m, &mut w.items, &w.lay, me, 0, None) {
                        Ok((Some((item, _size)), cost)) => {
                            check_fifo(w, &item);
                            *state = SuspectorState::Done;
                            Step::Yield(cost)
                        }
                        Ok((None, cost)) => {
                            *state = SuspectorState::Done;
                            Step::Yield(cost)
                        }
                        Err(d) => {
                            w.violations
                                .push(format!("suspector thief_take observed dead slot: {d:?}"));
                            Step::Halt
                        }
                    }
                }
                SuspectorState::Done => Step::Halt,
            },
        }
    }
}

/// Owner push/drain shared by the zombie scenario (the plain deque
/// scenario's owner, factored so both actor enums can use it).
fn owner_step(me: WorkerId, w: &mut DqWorld, to_push: &mut u64, pushed: &mut u64) -> Step {
    if *pushed < *to_push {
        let tag = *pushed;
        return match owner_push(&mut w.m, &mut w.items, &w.lay, me, dq_item(tag)) {
            Ok(cost) => {
                *pushed += 1;
                w.shadow.push_back(tag);
                Step::Yield(cost)
            }
            Err(DequeError::Busy) => Step::Yield(w.m.local_op(me)),
            Err(DequeError::Dead(d)) => {
                w.violations
                    .push(format!("owner_push observed dead slot: {d:?}"));
                Step::Halt
            }
        };
    }
    match owner_pop(&mut w.m, &mut w.items, &w.lay, me) {
        Ok((Some(item), cost)) => {
            let tag = dq_tag(&item);
            match w.shadow.pop_back() {
                Some(expect) if expect == tag => {}
                other => w.violations.push(format!(
                    "owner_pop LIFO violated: got tag {tag}, shadow back was {other:?}"
                )),
            }
            Step::Yield(cost)
        }
        Ok((None, cost)) => {
            if w.shadow.is_empty() {
                Step::Halt
            } else {
                Step::Yield(cost)
            }
        }
        Err(DequeError::Busy) => Step::Yield(w.m.local_op(me)),
        Err(DequeError::Dead(d)) => {
            w.violations.push(format!(
                "deque-protocol: owner_pop observed a dead ring slot at index {}",
                d.index
            ));
            Step::Halt
        }
    }
}

/// Build the zombie-steal scenario (3 workers: owner, zombie, suspector).
/// `broken` removes the epoch self-fence from the zombie's take.
fn zombie_steal_scenario(name: &str, n_items: u64, broken: bool) -> Scenario {
    let workers = 3;
    let name_owned = name.to_string();
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let cfg = RunConfig::new(workers, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(workers, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        let world = DqWorld {
            m,
            items: Slab::new(),
            lay,
            shadow: VecDeque::new(),
            violations: Vec::new(),
        };
        let actors = vec![
            ZombieActor::Owner {
                to_push: n_items,
                pushed: 0,
            },
            ZombieActor::Zombie {
                state: ZombieState::Locking { attempts: 0 },
                broken,
            },
            ZombieActor::Suspector {
                state: SuspectorState::Watch { attempts: 0 },
            },
        ];
        let mut engine = Engine::new(world, actors).with_max_steps(100_000);
        engine.run_with_hook(hook);
        let w = &mut engine.world;
        // A broken-variant zombie may have consumed an item it had no right
        // to; the explicit two-epochs oracle has already fired then, so the
        // leak oracles only apply to the shipped composition.
        if !broken {
            if !w.shadow.is_empty() {
                w.violations
                    .push(format!("leak: {} pushed items never consumed", w.shadow.len()));
            }
            if !w.items.is_empty() {
                w.violations
                    .push("leak: queue-item slab not empty at end of run".to_string());
            }
        }
        std::mem::take(&mut w.violations)
    };
    Scenario {
        name: name_owned,
        workers,
        expect_violation: broken,
        runner: Box::new(runner),
    }
}

/// Full-runtime suspicion scenarios: a message detector with an aggressive
/// lease and a degraded-NIC window on worker 1, **zero kills**. Every
/// explored schedule must complete with the exact fault-free answer —
/// false suspicion may evict live workers mid-steal, tear into their
/// in-flight joins and replay their lineage, but can never lose or
/// duplicate work. `until` bounds the degraded window: a finite window
/// lets the evictee's beats recover, un-suspects it, clears its blacklist
/// entry and (rejoin on) puts the fresh incarnation back to work.
fn suspicion_scenario(
    name: &str,
    workers: usize,
    seed: u64,
    policy: Policy,
    until: VTime,
) -> Scenario {
    use dcs_core::RunOutcome;
    let name_owned = name.to_string();
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let mut plan = dcs_sim::FaultPlan::none()
            .with_detector(dcs_sim::Detector::Message)
            .with_suspect(VTime::us(3))
            .with_degrade(dcs_sim::DegradeWindow {
                worker: 1,
                from: VTime::ZERO,
                until,
                factor: 20.0,
            });
        plan.hb_period = VTime::us(1);
        let cfg = RunConfig::new(workers, policy)
            .with_profile(profiles::test_profile())
            .with_watchdog(true)
            .with_strict(false)
            .with_seed(seed)
            .with_fault_plan(plan);
        let report = run_hooked(cfg, Program::new(fib, 10u64), hook);
        let mut violations = Vec::new();
        if !matches!(report.outcome, RunOutcome::Complete) {
            violations.push(format!(
                "suspicion-only run aborted: {:?} (false_suspects={})",
                report.outcome, report.stats.false_suspects
            ));
        } else if report.result.as_u64() != 55 {
            violations.push(format!(
                "result diverged from fault-free: got {}, expected 55 \
                 (false_suspects={}, rejoins={}, replayed={})",
                report.result.as_u64(),
                report.stats.false_suspects,
                report.stats.rejoins,
                report.stats.tasks_replayed
            ));
        }
        if report.stats.workers_lost != 0 {
            violations.push(format!(
                "a kill=none run counted {} workers as genuinely lost",
                report.stats.workers_lost
            ));
        }
        if let Some(wd) = &report.watchdog {
            violations.extend(
                wd.violations
                    .iter()
                    .filter(|v| !matches!(v, dcs_core::watchdog::Violation::Leak { .. }))
                    .map(|v| v.to_string()),
            );
        }
        violations
    };
    Scenario {
        name: name_owned,
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Termination scenario
// ---------------------------------------------------------------------------

/// Micro UTS tree for the BoT termination oracle: small enough for
/// exploration, deep enough that the token circulates while steals and
/// re-activations are still in flight.
fn bot_term_scenario(name: &str, workers: usize, seed: u64, fabric: FabricMode) -> Scenario {
    use dcs_apps::uts::{serial_count, Shape, UtsSpec};
    let name_owned = name.to_string();
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let spec = UtsSpec::new(2.0, 3, Shape::Fixed, 5);
        let truth = serial_count(&spec).nodes;
        let out = dcs_bot::onesided::run_uts_hooked_fabric(
            &spec,
            workers,
            profiles::test_profile(),
            seed,
            hook,
            dcs_sim::FaultPlan::none(),
            fabric,
        );
        let mut violations = Vec::new();
        if out.created != out.consumed {
            violations.push(format!(
                "termination unsafe: created {} != consumed {}",
                out.created, out.consumed
            ));
        }
        if !out.bags_nonempty.is_empty() {
            violations.push(format!(
                "terminated with resident work in bags of workers {:?}",
                out.bags_nonempty
            ));
        }
        if out.nodes != truth {
            violations.push(format!(
                "wrong node count: got {}, serial truth {truth}",
                out.nodes
            ));
        }
        violations
    };
    Scenario {
        name: name_owned,
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// All checkable scenarios at the given scale. `single-steal:*` covers every
/// Policy × FreeStrategy pair; `broken-release` is the self-test that must
/// fail under exploration.
pub fn catalog(workers: usize, seed: u64) -> Vec<Scenario> {
    let workers = workers.max(2);
    let mut v = vec![
        deque_scenario("deque-steal", workers, 2, ReleaseOrder::Fixed),
        deque_scenario("broken-release", 2, 1, ReleaseOrder::Broken),
        deque_scenario("deque-steal-pipelined", workers, 2, ReleaseOrder::Pipelined),
        // The fence-free family: read/write-only steals with bounded
        // multiplicity, and the no-op-claim-write self-test the
        // multiplicity oracle must catch.
        ff_deque_scenario("fence-free-steal", workers, 2, false),
        ff_deque_scenario("broken-claim", 2, 1, true),
        // The multi-steal probe rings (`--multi-steal`): two victims, each
        // thief's probes in flight at once, first hit in ring order wins and
        // the rest are abandoned — the abandoned-lock and double-claim
        // oracles close the new cancel paths.
        multi_steal_scenario("multi-steal-probe", workers, 2, false),
        multi_steal_scenario("multi-steal-probe-pipelined", workers, 2, true),
        ms_ff_scenario("multi-steal-ff", workers, 2),
    ];
    for policy in Policy::ALL {
        for strategy in [FreeStrategy::LockQueue, FreeStrategy::LocalCollection] {
            v.push(runtime_scenario(
                format!("single-steal:{}:{}", policy_slug(policy), strategy_slug(strategy)),
                workers,
                seed,
                policy,
                strategy,
                FabricMode::Blocking,
                Protocol::CasLock,
                1,
                ProgSpec {
                    root: single_steal_root,
                    arg: 0,
                    expected: 15,
                },
            ));
        }
        // The same join race with the posted-verb fabric: steals and retval
        // publications now have a window between post and completion that
        // the explorer can interleave into.
        v.push(runtime_scenario(
            format!("single-steal-pipelined:{}", policy_slug(policy)),
            workers,
            seed,
            policy,
            FreeStrategy::LocalCollection,
            FabricMode::Pipelined,
            Protocol::CasLock,
            1,
            ProgSpec {
                root: single_steal_root,
                arg: 0,
                expected: 15,
            },
        ));
        // The Fig. 4 one-item race again, but stealing fence-free: the
        // thief's claim races the owner's ff_owner_pop_parent fast path and
        // the dedup arbitration (not a lock) must keep the join exact.
        v.push(runtime_scenario(
            format!("single-steal-ff:{}", policy_slug(policy)),
            workers,
            seed,
            policy,
            FreeStrategy::LocalCollection,
            FabricMode::Blocking,
            Protocol::FenceFree,
            1,
            ProgSpec {
                root: single_steal_root,
                arg: 0,
                expected: 15,
            },
        ));
    }
    v.push(runtime_scenario(
        "fork-join".to_string(),
        workers,
        seed,
        Policy::ContGreedy,
        FreeStrategy::LocalCollection,
        FabricMode::Blocking,
        Protocol::CasLock,
        1,
        ProgSpec {
            root: fib,
            arg: 8,
            expected: 21,
        },
    ));
    v.push(runtime_scenario(
        "fork-join-pipelined".to_string(),
        workers,
        seed,
        Policy::ContGreedy,
        FreeStrategy::LocalCollection,
        FabricMode::Pipelined,
        Protocol::CasLock,
        1,
        ProgSpec {
            root: fib,
            arg: 8,
            expected: 21,
        },
    ));
    // Fence-free termination: a full fork-join tree must drain, terminate
    // and pass the end-of-run leak oracles (finalize reclaims thief-claimed
    // slots) under every explored schedule — in both fabric modes.
    v.push(runtime_scenario(
        "fence-free-term".to_string(),
        workers,
        seed,
        Policy::ContGreedy,
        FreeStrategy::LocalCollection,
        FabricMode::Blocking,
        Protocol::FenceFree,
        1,
        ProgSpec {
            root: fib,
            arg: 8,
            expected: 21,
        },
    ));
    v.push(runtime_scenario(
        "fence-free-term-pipelined".to_string(),
        workers,
        seed,
        Policy::ContGreedy,
        FreeStrategy::LocalCollection,
        FabricMode::Pipelined,
        Protocol::FenceFree,
        1,
        ProgSpec {
            root: fib,
            arg: 8,
            expected: 21,
        },
    ));
    // The full runtime with K=2 probe rings under every protocol family —
    // the pipelined fabric keeps both probes genuinely in flight, so the
    // explorer can interleave owners into the probe/commit window.
    for protocol in Protocol::ALL {
        v.push(runtime_scenario(
            format!("multi-steal:{}", protocol.label()),
            workers,
            seed,
            Policy::ContGreedy,
            FreeStrategy::LocalCollection,
            FabricMode::Pipelined,
            protocol,
            2,
            ProgSpec {
                root: fib,
                arg: 8,
                expected: 21,
            },
        ));
    }
    v.push(bot_term_scenario("bot-term", workers, seed, FabricMode::Blocking));
    v.push(bot_term_scenario(
        "bot-term-pipelined",
        workers,
        seed,
        FabricMode::Pipelined,
    ));
    v.push(crash_recovery_scenario(
        "crash-recovery",
        workers,
        seed,
        Policy::ChildRtc,
        workers - 1,
    ));
    v.push(crash_recovery_scenario(
        "crash-recovery-greedy",
        workers,
        seed,
        Policy::ContGreedy,
        workers - 1,
    ));
    v.push(crash_recovery_scenario(
        "crash-recovery-stalling",
        workers,
        seed,
        Policy::ContStalling,
        workers - 1,
    ));
    // Worker 0 holds the root frame: killing it exercises re-election of the
    // root holder from the mirrored lineage record.
    v.push(crash_recovery_scenario(
        "crash-recovery-root",
        workers,
        seed,
        Policy::ContGreedy,
        0,
    ));
    v.push(crash_abort_scenario(workers, seed));
    // Imperfect failure detection: the zombie seam on the raw deque (plus
    // its planted-bug self-test) and the kill=none false-suspicion runs
    // that must stay result-identical to fault-free.
    v.push(zombie_steal_scenario("zombie-steal", 2, false));
    v.push(zombie_steal_scenario("broken-fence", 2, true));
    v.push(suspicion_scenario(
        "false-suspect-term",
        workers,
        seed,
        Policy::ContGreedy,
        VTime::MAX,
    ));
    v.push(suspicion_scenario(
        "rejoin-replay",
        workers,
        seed,
        Policy::ChildRtc,
        VTime::us(6),
    ));
    v
}

/// Look up one scenario by name (as printed by the catalog).
pub fn by_name(name: &str, workers: usize, seed: u64) -> Option<Scenario> {
    catalog(workers, seed).into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_schedule_is_clean_for_correct_scenarios() {
        for s in catalog(2, 1) {
            let rec = s.run_choices(&[]);
            if !s.expect_violation {
                assert!(
                    rec.violations.is_empty(),
                    "{} violated under the native schedule: {:?}",
                    s.name,
                    rec.violations
                );
            }
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let s = by_name("deque-steal", 2, 1).unwrap();
        let a = s.run_choices(&[0, 1, 0, 2]);
        let b = s.run_choices(&[0, 1, 0, 2]);
        assert_eq!(a.taken, b.taken);
        assert_eq!(a.eligible, b.eligible);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let cat = catalog(3, 0);
        for s in &cat {
            assert!(by_name(&s.name, 3, 0).is_some(), "{} not resolvable", s.name);
        }
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }
}

