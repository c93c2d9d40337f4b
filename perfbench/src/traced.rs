//! The traced run: the same simulation `dcs_core::run` performs, assembled
//! from the public parts it is made of, with a timer around every call
//! into a layer.
//!
//! `Worker::step` is wrapped in a timing [`Actor`] and `Machine::take_wakeups`
//! in a timing waker; the set-up constructors, `Engine::run` and the final
//! drop are timed as one span each. Step spans are far too many to keep, so
//! they are folded as they happen into a total and a log₂ histogram. No
//! code inside `dcs-sim` or `dcs-core` is instrumented.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcs_core::layout::SegLayout;
use dcs_core::sched::Worker;
use dcs_core::world::{RtShared, World};
use dcs_core::{Program, RunConfig, RunOutcome, RunReport, Value};
use dcs_sim::{Actor, Engine, Machine, MachineConfig, Step, VTime, WorkerId};

use crate::hist::Log2Hist;

/// Host time spent in each layer of one traced run.
pub struct Spans {
    pub machine: Duration,
    pub runtime: Duration,
    pub workers: Duration,
    pub engine_run: Duration,
    pub teardown: Duration,
    /// Whole traced run, set-up to teardown.
    pub total: Duration,
    pub steps: u64,
    pub parks: u64,
    pub step: Duration,
    pub step_hist: Log2Hist,
    pub wakes: u64,
    pub wake: Duration,
}

/// Per-step tallies, shared by the actor wrapper and the waker (which must
/// be a plain `fn`, so it cannot carry its own state).
#[derive(Default)]
struct Tally {
    steps: u64,
    parks: u64,
    step_ns: u64,
    hist: Log2Hist,
    wakes: u64,
    wake_ns: u64,
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

struct TimedWorker(Worker);

impl Actor<World> for TimedWorker {
    fn step(&mut self, me: WorkerId, now: VTime, world: &mut World) -> Step {
        let t0 = Instant::now();
        let s = self.0.step(me, now, world);
        let ns = t0.elapsed().as_nanos() as u64;
        TALLY.with(|t| {
            let mut t = t.borrow_mut();
            t.steps += 1;
            t.parks += u64::from(s == Step::Park);
            t.step_ns += ns;
            t.hist.record(ns);
        });
        s
    }
}

fn timed_waker(world: &mut World, out: &mut Vec<(VTime, WorkerId)>) {
    let before = out.len();
    let t0 = Instant::now();
    world.m.take_wakeups(out);
    let ns = t0.elapsed().as_nanos() as u64;
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.wakes += (out.len() - before) as u64;
        t.wake_ns += ns;
    });
}

/// Run `program` under `cfg` exactly as `dcs_core::run` does, timing each
/// layer from outside. The returned report is compared field by field with
/// an untraced `run()` by the caller.
pub fn run_traced(mut cfg: RunConfig, program: Program) -> (RunReport, Spans) {
    TALLY.with(|t| *t.borrow_mut() = Tally::default());
    let start = Instant::now();

    // Same strict-mode rule as `run`: kill plans and suspicion-capable
    // detectors make the end-of-run leak asserts inapplicable.
    cfg.strict = cfg.strict && cfg.fault.kill.is_empty() && !cfg.fault.suspicion_possible();
    let lay = SegLayout::new(&cfg);
    let mut machine = Machine::new(
        MachineConfig::new(cfg.workers, cfg.profile.clone())
            .with_seg_bytes(cfg.seg_bytes)
            .with_reserved(lay.reserved)
            .with_topology(cfg.topology.clone())
            .with_faults(cfg.fault.clone())
            .with_fabric(cfg.fabric)
            .with_doorbell(cfg.doorbell),
    );
    if let Some(init) = program.init {
        init(&mut machine);
    }
    let t_machine = start.elapsed();

    let (max_steps, seed, workers) = (cfg.max_steps, cfg.seed, cfg.workers);
    let t0 = Instant::now();
    let rt = RtShared::new(cfg);
    let t_runtime = t0.elapsed();

    let mut world = World { m: machine, rt };
    let t0 = Instant::now();
    let actors: Vec<TimedWorker> = (0..workers)
        .map(|w| {
            let root = (w == 0).then(|| (program.root, program.arg.clone()));
            TimedWorker(Worker::new(
                w,
                &mut world,
                lay,
                Arc::clone(&program.app),
                root,
                seed,
            ))
        })
        .collect();
    let t_workers = t0.elapsed();

    let mut engine = Engine::new(world, actors)
        .with_max_steps(max_steps)
        .with_waker(timed_waker);
    let t0 = Instant::now();
    let er = engine.run();
    let t_engine = t0.elapsed();

    let (world, actors) = engine.into_parts();
    let World { m, mut rt } = world;
    rt.watch_settle_lineage();
    let watchdog = rt.watch_finish();
    let outcome = match rt.unrecoverable.take() {
        Some((worker, frames, reason)) => RunOutcome::Unrecoverable {
            worker,
            frames,
            reason,
        },
        None => RunOutcome::Complete,
    };
    let report = RunReport {
        outcome,
        result: rt.result.take().unwrap_or(Value::Unit),
        elapsed: er.end_time,
        busy_total: rt.stats.busy_total,
        threads: rt.stats.threads_spawned,
        fabric: m.stats_total(),
        steps: er.steps,
        uni_peak: rt
            .per
            .iter()
            .map(|w| w.uni.stats().peak_bytes)
            .max()
            .unwrap_or(0),
        iso_peak: rt.iso.peak_bytes(),
        uni_conflicts: rt.per.iter().map(|w| w.uni.stats().conflicts).sum(),
        evac_peak: rt
            .per
            .iter()
            .map(|w| w.evac.peak_bytes())
            .max()
            .unwrap_or(0),
        full_stack_peak: rt.per.iter().map(|w| w.full_stacks_peak).max().unwrap_or(0),
        stats: std::mem::take(&mut rt.stats),
        watchdog,
    };

    let t0 = Instant::now();
    drop((m, rt, actors));
    let t_teardown = t0.elapsed();
    let total = start.elapsed();

    let tally = TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()));
    let spans = Spans {
        machine: t_machine,
        runtime: t_runtime,
        workers: t_workers,
        engine_run: t_engine,
        teardown: t_teardown,
        total,
        steps: tally.steps,
        parks: tally.parks,
        step: Duration::from_nanos(tally.step_ns),
        step_hist: tally.hist,
        wakes: tally.wakes,
        wake: Duration::from_nanos(tally.wake_ns),
    };
    (report, spans)
}
