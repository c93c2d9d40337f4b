//! Run-state steps: advancing the current thread and applying its
//! effects (return/call/fork/join dispatch, compute, yield, RMA).

use super::*;

impl Worker {
    // ------------------------------------------------------------------
    // state steps
    // ------------------------------------------------------------------

    pub(crate) fn step_run(&mut self, now: VTime, world: &mut World) -> Step {
        if self.pending.is_none() {
            let eff = self.advance_cur(now);
            self.pending = Some(PendingOp::Effect(eff));
        }
        match self.apply_pending(now, world) {
            Ok(cost) => Step::Yield(cost),
            Err(Busy) => {
                // A dead thief can hold our deque lock forever; break it
                // once the death is lease-confirmed so the retry converges.
                self.break_dead_lock(now, world);
                let cost = world.m.local_op(self.me);
                if self.may_park(world) {
                    // The thief holds our lock across multi-µs verbs while
                    // each re-poll is one local op: park on the lock word
                    // instead of re-stepping every poll.
                    world
                        .m
                        .park_on_own_word(self.me, self.lay.dq_word(DQ_LOCK), cost, Self::SPIN_CHARGE);
                    Step::Park
                } else {
                    Step::Yield(cost)
                }
            }
        }
    }

    /// Apply `self.pending`; on `Busy` the operation is restored untouched.
    pub(crate) fn apply_pending(&mut self, now: VTime, world: &mut World) -> Result<VTime, Busy> {
        let op = self.pending.take().expect("no pending op");
        let result = match op {
            PendingOp::Effect(eff) => self.apply_effect(now, world, eff),
            PendingOp::JoinSlow { handle } => self.join_slow(now, world, handle),
        };
        if let Err((op, Busy)) = result {
            self.pending = Some(op);
            return Err(Busy);
        }
        Ok(result.ok().expect("checked"))
    }

    pub(crate) fn apply_effect(
        &mut self,
        now: VTime,
        world: &mut World,
        eff: Effect,
    ) -> Result<VTime, (PendingOp, Busy)> {
        match eff {
            Effect::Return(v) => {
                let th = self.cur.as_mut().expect("return without thread");
                if !th.would_complete() {
                    // Plain control transfer to the caller frame: free (the
                    // frame body's own cost is modelled by its effects).
                    th.pending = Pending::Resume(v);
                    Ok(VTime::ZERO)
                } else {
                    // die() probes the deque lock before any side effect, so
                    // on Busy the cloned value re-applies cleanly next step.
                    let keep = v.clone();
                    self.die(now, world, v)
                        .map_err(|b| (PendingOp::Effect(Effect::Return(keep)), b))
                }
            }
            Effect::Call { callee, arg, cont } => {
                // An ordinary subroutine call on the same stack: free.
                let th = self.cur.as_mut().expect("call without thread");
                th.frames.push(cont);
                th.pending = Pending::Start(callee, arg);
                Ok(VTime::ZERO)
            }
            Effect::Fork {
                child,
                arg,
                consumers,
                cont,
            } => self
                .fork(now, world, child, arg, consumers, cont)
                .map_err(|(child, arg, consumers, cont, b)| {
                    (
                        PendingOp::Effect(Effect::Fork {
                            child,
                            arg,
                            consumers,
                            cont,
                        }),
                        b,
                    )
                }),
            Effect::Join { handle, cont } => {
                // Step A: read the flag.
                let th = self.cur.as_mut().expect("join without thread");
                th.frames.push(cont);
                let (flag, cost) = world.m.get_u64(self.me, handle.entry.field(E_FLAG));
                let done = if handle.consumers == 1 {
                    flag != 0
                } else {
                    flag & DONE_BIT != 0
                };
                if done {
                    let (v, c2) = self.join_complete_fast(world, handle);
                    let th = self.cur.as_mut().expect("checked");
                    th.pending = Pending::Resume(v);
                    world.rt.stats.note_join_fast();
                    Ok(cost + c2)
                } else {
                    // Step B happens next step: the producer may slip in
                    // between, exercising the race paths.
                    self.pending = Some(PendingOp::JoinSlow { handle });
                    Ok(cost)
                }
            }
            Effect::Compute { dur, work, cont } => {
                let v = match work {
                    Some(w) => {
                        let mut ctx = TaskCtx {
                            worker: self.me,
                            app: &self.app,
                            compute_scale: self.compute_scale_at(now),
                        };
                        w(&mut ctx)
                    }
                    None => Value::Unit,
                };
                let th = self.cur.as_mut().expect("compute without thread");
                th.frames.push(cont);
                th.pending = Pending::Resume(v);
                Ok(dur)
            }
            Effect::Yield { cont } => self
                .yield_now(now, world, cont)
                .map_err(|(cont, b)| (PendingOp::Effect(Effect::Yield { cont }), b)),
            Effect::Rma { op, cont } => {
                let (v, cost) = self.do_rma(world, op);
                let th = self.cur.as_mut().expect("rma without thread");
                th.frames.push(cont);
                th.pending = Pending::Resume(v);
                Ok(cost)
            }
        }
    }

    /// Execute a one-sided global-memory access on behalf of the current
    /// task, charging the fabric cost.
    pub(crate) fn do_rma(&mut self, world: &mut World, op: RmaOp) -> (Value, VTime) {
        let me = self.me;
        match op {
            RmaOp::GetWord(addr) => {
                let (v, c) = world.m.get_u64(me, addr);
                (Value::U64(v), c)
            }
            RmaOp::PutWord(addr, v) => (Value::Unit, world.m.put_u64(me, addr, v)),
            RmaOp::FetchAdd(addr, add) => {
                let (v, c) = world.m.fetch_add_u64(me, addr, add);
                (Value::U64(v), c)
            }
            RmaOp::GetBlock(addr, words) => {
                let owner = addr.rank as usize;
                let mut out = Vec::with_capacity(words as usize);
                for i in 0..words {
                    out.push(world.m.read_own(owner, addr.field(i)));
                }
                let cost = world.m.get_bulk(me, owner, words as usize * 8);
                (Value::U64s(out.into()), cost)
            }
            RmaOp::PutBlock(addr, vals) => {
                let owner = addr.rank as usize;
                for (i, &v) in vals.iter().enumerate() {
                    world.m.write_own(owner, addr.field(i as u32), v);
                }
                let cost = world.m.put_bulk(me, owner, vals.len() * 8);
                (Value::Unit, cost)
            }
        }
    }

    /// Re-enqueue the current thread as ready work and go find something
    /// else (cooperative yield).
    pub(crate) fn yield_now(
        &mut self,
        now: VTime,
        world: &mut World,
        cont: Box<dyn Frame>,
    ) -> Result<VTime, (Box<dyn Frame>, Busy)> {
        match self.policy {
            Policy::ContGreedy | Policy::ContStalling => {
                // CAS-lock only: probe the deque lock before any side
                // effect (the other families never block the owner).
                if self.needs_lock_probe() {
                    let (lock, _) = world
                        .m
                        .get_u64(self.me, GlobalAddr::new(self.me, self.lay.dq_word(0)));
                    if lock != 0 {
                        return Err((cont, Busy));
                    }
                }
                let mut th = self.cur.take().expect("yield without thread");
                th.frames.push(cont);
                th.pending = Pending::Resume(Value::Unit);
                let cost = self
                    .dq_push(
                        world,
                        QueueItem::Cont {
                            th,
                            spawned_child: GlobalAddr::NULL,
                            since: now,
                        },
                    )
                    .expect("lock probed free within the same atomic step");
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(cost + world.m.ctx_restore(self.me))
            }
            Policy::ChildFull => {
                // Tied threads cannot migrate; a yield parks the thread in
                // the local wait queue with no entry to wait on — the next
                // round-robin poll resumes it unconditionally.
                let mut th = self.cur.take().expect("yield without thread");
                th.frames.push(cont);
                th.pending = Pending::AwaitValue;
                let cost = world.m.ctx_switch(self.me);
                self.wait_q.push_back(Waiting {
                    th,
                    handle: ThreadHandle::single(GlobalAddr::NULL),
                });
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(cost)
            }
            Policy::ChildRtc => {
                panic!("run-to-completion threads cannot yield (§IV-B)")
            }
        }
    }

    /// Fast join completion: flag already set. Handles the multi-consumer
    /// consumed counter and entry freeing by the last consumer.
    pub(crate) fn join_complete_fast(&mut self, world: &mut World, h: ThreadHandle) -> (Value, VTime) {
        let (v, mut cost) = self.get_retval(world, h);
        if h.consumers == 1 {
            cost += self.free_entry_here(world, h);
        } else {
            let (old, c) =
                world
                    .m
                    .fetch_add_u64(self.me, h.entry.field(EM_CONSUMED), 1);
            cost += c;
            if old + 1 == h.consumers as u64 {
                cost += self.free_entry_here(world, h);
            }
        }
        (v, cost)
    }

    // ------------------------------------------------------------------
    // FORK
    // ------------------------------------------------------------------

    #[allow(clippy::type_complexity)]
    pub(crate) fn fork(
        &mut self,
        now: VTime,
        world: &mut World,
        child: TaskFn,
        arg: Value,
        consumers: u32,
        cont: Box<dyn Frame>,
    ) -> Result<VTime, (TaskFn, Value, u32, Box<dyn Frame>, Busy)> {
        // The push must succeed before any side effect; under CAS-lock,
        // probe the deque lock first so a Busy retry is side-effect free
        // (the fence-free owner can never be blocked).
        if self.needs_lock_probe() {
            let (lock, _) = world
                .m
                .get_u64(self.me, GlobalAddr::new(self.me, self.lay.dq_word(0)));
            if lock != 0 {
                return Err((child, arg, consumers, cont, Busy));
            }
        }
        let mut cost = VTime::ZERO;
        let (h, c_alloc) = alloc_entry(
            &mut world.m,
            &mut world.rt.per[self.me],
            &self.lay,
            self.strategy,
            self.me,
            consumers,
            &mut world.rt.meta,
        );
        cost += c_alloc;

        if self.policy.is_cont() {
            let tid = world.rt.fresh_tid();
            // Continuation stealing: the parent's continuation becomes
            // stealable; the child runs immediately on this worker (plain
            // function-call cost — the work-first principle).
            let mut parent = self.cur.take().expect("fork without thread");
            parent.frames.push(cont);
            parent.pending = Pending::Resume(Value::Handle(h));
            let parent_home = parent.home;
            let push_cost = self
                .dq_push(
                    world,
                    QueueItem::Cont {
                        th: parent,
                        spawned_child: h.entry,
                        since: now,
                    },
                )
                .expect("lock probed free within the same atomic step");
            cost += push_cost;
            // Continuation-lineage log: the child's origin is pure data;
            // record it at the split so a survivor can re-execute it if
            // this worker dies before the child's entry flag is published.
            let rec = self
                .kills
                .then(|| self.record_lineage(world, tid, child, arg.clone(), h));
            let mut th = VThread::new(tid, child, arg, h);
            th.replay_rec = rec;
            let slot_len = world.rt.cfg.stack_slot;
            th.home = Some(self.place_stack(world, parent_home, slot_len));
            self.cur = Some(th);
            Ok(cost + world.m.local_op(self.me))
        } else {
            // Child stealing: push the descriptor, parent continues.
            let push_cost = self
                .dq_push(world, QueueItem::Child { f: child, arg, handle: h })
                .expect("lock probed free within the same atomic step");
            cost += push_cost;
            let th = self.cur.as_mut().expect("fork without thread");
            th.frames.push(cont);
            th.pending = Pending::Resume(Value::Handle(h));
            Ok(cost)
        }
    }

}
