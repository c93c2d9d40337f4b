//! The idle loop: termination, local pops, victim selection, the
//! cross-step steal protocol, wait-queue/nest polling, finalization.

use super::*;

impl Worker {
    // ------------------------------------------------------------------
    // victim blacklisting (fault-injection resilience)
    // ------------------------------------------------------------------

    /// Decay half-life of a victim's misbehaviour score.
    const BL_HALF_LIFE: VTime = VTime::us(200);
    /// One fault's worth of score, Q32.32 fixed point.
    const BL_ONE: u64 = 1 << 32;
    /// Decayed score above which a victim is skipped (3 faults' worth).
    const BL_THRESHOLD: u64 = 3 * Self::BL_ONE;
    /// Sentinel for a permanent entry (confirmed-dead victim): immune to
    /// decay and skipped outright by victim selection.
    const BL_FOREVER: u64 = u64::MAX;

    /// Integer-shift exponential decay: one halving per *fully elapsed*
    /// half-life. Deterministic across hosts and `--jobs` widths — no f64
    /// `powf` in the engine's hot path.
    fn bl_decayed(score: u64, at: VTime, now: VTime) -> u64 {
        if score == Self::BL_FOREVER {
            // Permanent entry (confirmed-dead victim): decay never clears it.
            return score;
        }
        let halves = now.saturating_sub(at).as_ns() / Self::BL_HALF_LIFE.as_ns();
        if halves >= 64 {
            0
        } else {
            score >> halves
        }
    }

    /// Attribute `faults` transient fabric faults observed while stealing
    /// from `victim`. Allocates the blacklist on first use, so fault-free
    /// runs never touch it (and stay bit-identical).
    pub(crate) fn note_victim_faults(&mut self, victim: WorkerId, faults: u64, now: VTime) {
        if faults == 0 {
            return;
        }
        let bl = self
            .blacklist
            .get_or_insert_with(|| Box::new(Blacklist::new()));
        let e = bl.entries.entry(victim).or_insert((0, VTime::ZERO));
        if e.0 == Self::BL_FOREVER {
            // Permanent: a transient-fault bump must not disturb (or
            // overflow) the sentinel.
            return;
        }
        e.0 = Self::bl_decayed(e.0, e.1, now)
            .saturating_add(faults.saturating_mul(Self::BL_ONE))
            .min(Self::BL_FOREVER - 1);
        e.1 = now;
    }

    /// Blacklist `victim` permanently: a confirmed-dead worker never comes
    /// back, so its score is pinned at infinity (immune to decay).
    pub(crate) fn blacklist_forever(&mut self, victim: WorkerId, now: VTime) {
        let bl = self
            .blacklist
            .get_or_insert_with(|| Box::new(Blacklist::new()));
        bl.entries.insert(victim, (Self::BL_FOREVER, now));
        bl.fallback = None; // the permanent set changed
    }

    /// Drop `victim`'s blacklist entry entirely (permanent or not): the
    /// "confirmed dead" verdict was revoked — a falsely-suspected worker's
    /// delayed beats landed, or an evicted worker rejoined as a fresh
    /// incarnation — so it is a first-class steal target again.
    pub(crate) fn blacklist_clear(&mut self, victim: WorkerId) {
        if let Some(bl) = &mut self.blacklist {
            if bl.entries.remove(&victim).is_some_and(|e| e.0 == Self::BL_FOREVER) {
                bl.fallback = None; // the permanent set changed
            }
        }
    }

    /// Is `victim` permanently blacklisted (confirmed dead)? Permanent
    /// entries must never be returned by victim selection: probing one is
    /// a guaranteed wasted round trip, forever.
    pub(crate) fn victim_blocked_forever(&self, victim: WorkerId) -> bool {
        match &self.blacklist {
            Some(bl) => bl.entries.get(&victim).is_some_and(|e| e.0 == Self::BL_FOREVER),
            None => false,
        }
    }

    /// Is `victim` currently blacklisted?
    pub(crate) fn victim_blocked(&self, victim: WorkerId, now: VTime) -> bool {
        match &self.blacklist {
            Some(bl) => bl
                .entries
                .get(&victim)
                .is_some_and(|&(score, at)| Self::bl_decayed(score, at, now) > Self::BL_THRESHOLD),
            None => false,
        }
    }

    /// Pick a victim, redrawing (bounded) past blacklisted choices. With no
    /// blacklist allocated this is exactly one [`Self::pick_victim`] draw.
    ///
    /// The bounded redraw may exhaust its budget on a *transiently*
    /// blacklisted victim — that draw stands (the score decays, and an
    /// occasional probe of a flaky peer is how it earns its way back). A
    /// *permanent* (confirmed-dead) entry must never be returned: when the
    /// redraws end on one, fall back to the cheapest (topology-nearest)
    /// non-permanent victim instead. Only when every peer is permanently
    /// blacklisted does the doomed draw escape, and the caller's
    /// `dead_guard` turns it into a fail-fast RTT.
    pub(crate) fn select_victim(&mut self, now: VTime, world: &mut World) -> WorkerId {
        let mut victim = self.pick_victim(&world.m);
        if self.blacklist.is_none() {
            return victim;
        }
        for _ in 0..3 {
            if !self.victim_blocked(victim, now) {
                return victim;
            }
            world.rt.stats.blacklist_skips += 1;
            victim = self.pick_victim(&world.m);
        }
        if !self.victim_blocked_forever(victim) {
            return victim;
        }
        world.rt.stats.blacklist_skips += 1;
        // Cheapest-live fallback, cached: the answer is a pure function of
        // the permanent-blacklist set and the (static) topology, so the
        // O(W) sweep runs once per death/revocation — not once per draw,
        // which starved a sole survivor of 10⁵ dead peers.
        let cached = self.blacklist.as_ref().and_then(|bl| bl.fallback);
        let fallback = match cached {
            Some(f) => f,
            None => {
                let topo = world.m.topology();
                let mut best: Option<(f64, WorkerId)> = None;
                for v in 0..self.n {
                    if v == self.me || self.victim_blocked_forever(v) {
                        continue;
                    }
                    let f = topo.factor(self.me, v);
                    if best.is_none_or(|(bf, _)| f < bf) {
                        best = Some((f, v));
                    }
                }
                let f = best.map(|(_, v)| v);
                if let Some(bl) = &mut self.blacklist {
                    bl.fallback = Some(f);
                }
                f
            }
        };
        fallback.unwrap_or(victim)
    }

    // ------------------------------------------------------------------
    // IDLE loop
    // ------------------------------------------------------------------

    /// Pick a steal victim per the configured policy. Node-restricted
    /// choices fall back to uniform when the caller's node has no other
    /// workers.
    pub(crate) fn pick_victim(&mut self, world: &Machine) -> WorkerId {
        let topo = world.topology();
        let pick_local = |rng: &mut SimRng, me: usize, n: usize| -> Option<WorkerId> {
            let size = topo.node_size()?;
            let node = topo.node_of(me);
            let lo = node * size;
            let hi = ((node + 1) * size).min(n);
            if hi - lo < 2 {
                return None;
            }
            let mut v = lo + rng.below((hi - lo - 1) as u64) as usize;
            if v >= me {
                v += 1;
            }
            Some(v)
        };
        match self.victim_policy {
            VictimPolicy::Uniform => self.rng.victim(self.n, self.me),
            VictimPolicy::Locality { p_local } => {
                if self.rng.unit_f64() < p_local {
                    if let Some(v) = pick_local(&mut self.rng, self.me, self.n) {
                        return v;
                    }
                }
                self.rng.victim(self.n, self.me)
            }
            VictimPolicy::Hierarchical { local_tries } => {
                if self.fail_streak < local_tries {
                    if let Some(v) = pick_local(&mut self.rng, self.me, self.n) {
                        return v;
                    }
                }
                self.rng.victim(self.n, self.me)
            }
        }
    }

    // ------------------------------------------------------------------
    // fail-stop recovery (kill plans only)
    // ------------------------------------------------------------------

    /// Detector-registry scan: confirm newly-expired peers, blacklist them,
    /// and — first confirmer of each incarnation only — evict the peer
    /// (epoch bump) and move its unfinished lineage records into the shared
    /// replay pool.
    ///
    /// Under the oracle detector a confirmation is ground truth and the
    /// latch never revokes. Under the message detector it is a *suspicion*
    /// (no visible heartbeat for a lease): delayed beats landing later
    /// un-confirm the peer, and the un-latch branch clears the permanent
    /// blacklist entry so the falsely-suspected (or rejoined) worker is
    /// stealable again. The eviction itself stands either way — the epoch
    /// bump already invalidated the old incarnation's verbs, and the peer
    /// self-fences and rejoins at its next step.
    ///
    /// Work is O(detector status changes), not O(workers) per poll: the
    /// machine's candidate feed names exactly the peers whose registry
    /// status may have flipped since this worker's last scan, and only
    /// those are re-examined. Candidates are processed in increasing id
    /// order — the same relative order the former full `0..n` sweep
    /// visited them in — so every golden stays byte-identical.
    pub(crate) fn fail_stop_scan(&mut self, now: VTime, world: &mut World) {
        let mut cands: Vec<WorkerId> = Vec::new();
        world.m.death_candidates(&mut self.death_cursor, now, &mut cands);
        if cands.is_empty() {
            return;
        }
        cands.sort_unstable();
        cands.dedup();
        for d in cands {
            if d == self.me {
                continue;
            }
            let confirmed_now = world.m.confirmed_dead(d, now);
            if self.confirmed.contains(&d) {
                if !confirmed_now {
                    // Revoked: the peer's beats resumed (false suspicion
                    // cleared, or a fresh incarnation rejoined).
                    self.confirmed.remove(&d);
                    self.blacklist_clear(d);
                    world.rt.watch_unsuspect(d);
                }
                continue;
            }
            if !confirmed_now {
                continue;
            }
            self.confirmed.insert(d);
            self.blacklist_forever(d, now);
            if world.m.suspicion_possible() {
                world.rt.watch_suspect(d);
            }
            // Exactly-once per incarnation: the first confirmer of
            // `(d, epoch)` evicts and drains; racing confirmers of the same
            // incarnation observe the claim and stand down. (ChildFull
            // records no lineage, so its drain is vacuous.)
            let epoch = world.m.epoch_of(d);
            if world.rt.evictions.first_claim(evict_key(d, epoch)) {
                world.m.evict(d);
                for (i, rec) in world.rt.lineage.log(d).iter().enumerate() {
                    if !rec.done.is_done() {
                        world.rt.replay_pool.push_back((d, i));
                    }
                }
            }
        }
    }

    /// Re-adopt one lost thread from the replay pool. The record is
    /// superseded (marked done) and re-recorded under this worker, so a
    /// second kill hitting the replayer is itself recoverable. Returns
    /// `None` when nothing (relevant) is pooled.
    pub(crate) fn try_replay(&mut self, now: VTime, world: &mut World) -> Option<Step> {
        loop {
            let (w, i) = world.rt.replay_pool.pop_front()?;
            let rec = world.rt.lineage.rec(w, i);
            if rec.done.is_done() {
                // Completed before the kill: the entry flag is already
                // visible to the waiting parent — replaying would run the
                // task's effect twice.
                continue;
            }
            let is_root = rec.handle.entry.is_null();
            if is_root && world.rt.result.is_some() {
                // The root published its result before its holder died;
                // termination is already racing in — nothing to re-elect.
                continue;
            }
            if !is_root
                && !self.policy.is_cont()
                && world.m.is_dead(rec.handle.entry.rank as usize, now)
            {
                // ChildRtc ties a task to the parent frame that owns its
                // entry: if that parent died too, the ancestor subtree
                // that re-creates it (and this task) replays from its own
                // record instead. Continuation records always replay —
                // after a migration the joiner may be alive anywhere, and
                // the entry words stay readable on the buddy mirror.
                continue;
            }
            let (f, arg, handle) = (rec.f, rec.arg.clone(), rec.handle);
            // Claiming the record settles the original incarnation's fate:
            // it died with its worker and can never complete — retire it so
            // the fresh-id replay is the only live copy the oracles track.
            world.rt.watch_retire(rec.tid);
            world.rt.lineage.rec_mut(w, i).done.set();
            let tid = world.rt.fresh_tid();
            let mut th = VThread::new(tid, f, arg.clone(), handle);
            th.replay_rec = Some(self.record_lineage(world, tid, f, arg, handle));
            if self.policy.is_cont() {
                // Re-materialized continuations (root included) need a
                // stack home in this worker's region.
                let slot_len = world.rt.cfg.stack_slot;
                th.home = Some(self.place_stack(world, None, slot_len));
            }
            world.rt.stats.tasks_replayed += 1;
            let cost = world.m.ctx_restore(self.me);
            self.start_thread(world, now, th);
            world.rt.watch_progress(now);
            return Some(Step::Yield(cost));
        }
    }

    /// Checkpoint put of a stolen continuation's header to the thief's
    /// buddy, posted into the steal's commit group. The put is
    /// fire-and-forget (unsignaled): the mirror only has to land before a
    /// lease expiry — microseconds after the split — so the thief pays the
    /// injection, never a round trip.
    pub(crate) fn mirror_split(&mut self, world: &mut World, now: VTime, g: &mut VerbGroup) {
        if let Some(b) = self.buddy(&world.m, now) {
            world.rt.stats.ckpt_puts += 1;
            g.put_bulk_unsignaled(&mut world.m, b, Self::CKPT_HDR_BYTES);
        }
    }

    /// A steal attempt came up empty: count it, extend the failure streak
    /// and re-poll blocked work (Fig. 3). `cost` is what the attempt
    /// charged this step.
    pub(crate) fn steal_missed(&mut self, now: VTime, world: &mut World, cost: VTime) -> Step {
        world.rt.stats.steal_failed();
        self.fail_streak += 1;
        let c_wait = self.poll_blocked(now, world);
        Step::Yield(cost + c_wait)
    }

    pub(crate) fn step_idle(&mut self, now: VTime, world: &mut World) -> Step {
        // Termination: the root has completed and published the flag.
        if world.m.is_done() {
            self.finalize(world, now);
            return Step::Halt;
        }
        world.rt.watch_stall(now);
        if self.kills {
            self.fail_stop_scan(now, world);
            if self.policy != Policy::ChildFull {
                if let Some(step) = self.try_replay(now, world) {
                    return step;
                }
            }
        }
        // 1. Local pop.
        match self.dq_pop(world) {
            Err(DequeError::Busy) => {
                self.break_dead_lock(now, world);
                let cost = world.m.local_op(self.me);
                if self.may_park(world) {
                    // Same lock-spin park as `step_run`'s Busy arm; the
                    // done flag is re-checked on wake (`set_done` wakes all
                    // parked workers), so termination is never missed.
                    world
                        .m
                        .park_on_own_word(self.me, self.lay.dq_word(DQ_LOCK), cost, Self::SPIN_CHARGE);
                    Step::Park
                } else {
                    Step::Yield(cost)
                }
            }
            Err(DequeError::Dead(d)) => {
                self.deque_violation(world, self.me, &d);
                Step::Yield(d.cost)
            }
            Ok((Some(item), cost)) => {
                let c2 = self.adopt_item(now, world, item, None);
                Step::Yield(cost + c2)
            }
            Ok((None, cost)) => {
                // 2. Steal (if anybody to steal from).
                if self.n >= 2 {
                    if self.multi_steal >= 2 {
                        return self.step_idle_multi(now, world, cost);
                    }
                    let victim = self.select_victim(now, world);
                    if self.kills {
                        if let Some(c_dead) = world.m.dead_guard(self.me, victim, now) {
                            // Fail-fast verb against a dead victim: one RTT,
                            // a failed steal, and a blacklist bump so the
                            // selector stops drawing it even before the
                            // lease confirms the death.
                            self.note_victim_faults(victim, 1, now);
                            return self.steal_missed(now, world, cost + c_dead);
                        }
                    }
                    // Drop fault counts accrued before this attempt so the
                    // post-attempt drain attributes only this victim's
                    // faults.
                    let _ = world.m.take_faults(self.me);
                    let vepoch = world.m.epoch_of(victim);
                    if self.protocol == Protocol::CasLock {
                        // Step 1 of the CAS-lock steal: take the lock. The
                        // lock word encodes our rank *and* epoch, so the
                        // victim can break it if we are evicted mid-steal.
                        let (locked, c_lock) =
                            thief_lock_epoch(&mut world.m, &self.lay, self.me, victim, self.my_epoch);
                        let faults = world.m.take_faults(self.me);
                        self.note_victim_faults(victim, faults, now);
                        if locked {
                            self.state = WState::StealTake {
                                victim,
                                t0: now,
                                bounds: None,
                                vepoch,
                            };
                            return Step::Yield(cost + c_lock);
                        }
                        return self.steal_missed(now, world, cost + c_lock);
                    }
                    // Fence-free step 1: a plain bounds read (one span
                    // get, no lock, no atomic). The claim runs next step,
                    // leaving the real protocol's race window open
                    // between the two.
                    let ((top, bottom), c_bounds) =
                        thief_read_bounds(&mut world.m, &self.lay, self.me, victim);
                    let faults = world.m.take_faults(self.me);
                    self.note_victim_faults(victim, faults, now);
                    // Fence-free `top` is a hint that can momentarily
                    // exceed `bottom`; treat that as empty.
                    if top < bottom {
                        self.state = WState::StealClaim {
                            victim,
                            top,
                            t0: now,
                            vepoch,
                        };
                        return Step::Yield(cost + c_bounds);
                    }
                    return self.steal_missed(now, world, cost + c_bounds);
                }
                // Single worker: only blocked local work can make progress.
                let c_wait = self.poll_blocked(now, world);
                Step::Yield(cost + c_wait)
            }
        }
    }

    /// Multi-steal probe ring (`--multi-steal K`, K ≥ 2): instead of paying
    /// a full round trip per victim per miss, keep steal probes on up to K
    /// distinct victims in flight at once and commit the first (in ring
    /// order) that lands with work.
    ///
    /// Per `--protocol` family the probe is:
    ///
    /// * **CAS-lock** — a doorbell-chained pair per victim: the lock CAS
    ///   and the `[top, bottom]` span get, posted back to back on the
    ///   victim's QP. Issuing the bounds read before the CAS outcome is
    ///   known is sound — gets have no memory effects, and same-QP
    ///   in-order retirement lands the bounds after the CAS; a *won* CAS
    ///   freezes the bounds until release, so the winner's take step
    ///   reuses them (one small-get round trip saved). A won-but-unused
    ///   lock (ring order lost, or empty deque) is always released
    ///   immediately with an unsignaled put.
    /// * **fence-free** — one chained bounds span get per victim;
    ///   losers' reads are simply dropped (nothing to cancel).
    ///   The winner proceeds through the ordinary [`WState::StealClaim`]
    ///   step, so a fence-free ticket is claimed for the ring's single
    ///   winner at most — and the shared ClaimSet arbitrates races with
    ///   rival thieves exactly as at K = 1.
    ///
    /// Blocking and pipelined fabrics issue the identical verb sequence in
    /// the identical order (memory effects are eager at post), so both
    /// modes reach the same answers; only the charged time differs —
    /// blocking sums the round trips, pipelined fences the overlapped
    /// chain.
    fn step_idle_multi(&mut self, now: VTime, world: &mut World, mut cost: VTime) -> Step {
        let k = self.multi_steal.min(self.n - 1);
        let mut victims: Vec<WorkerId> = Vec::with_capacity(k);
        for _ in 0..k {
            let v = self.select_victim(now, world);
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        // Dead victims fail fast (one guard RTT each, counted as failed
        // steals) and leave the ring before any probe verb is issued.
        let mut ring: Vec<WorkerId> = Vec::with_capacity(victims.len());
        for &v in &victims {
            if self.kills {
                if let Some(c_dead) = world.m.dead_guard(self.me, v, now) {
                    self.note_victim_faults(v, 1, now);
                    world.rt.stats.steal_failed();
                    self.fail_streak += 1;
                    cost += c_dead;
                    continue;
                }
            }
            ring.push(v);
        }
        if ring.is_empty() {
            let c_wait = self.poll_blocked(now, world);
            return Step::Yield(cost + c_wait);
        }
        // Drop fault counts accrued before the probes so the per-victim
        // drains below attribute only each victim's own faults.
        let _ = world.m.take_faults(self.me);
        // Probe every ring victim inside one doorbell chain. Serial probes
        // sum their round trips; overlapped ones retire at the slowest.
        let mut probes: Vec<(WorkerId, bool, u64, u64)> = Vec::with_capacity(ring.len());
        let mut g = world.m.group(self.me, now + cost, Doorbell::Chained);
        for &v in &ring {
            let won = self.protocol != Protocol::CasLock || {
                let lock = GlobalAddr::new(v, self.lay.dq_word(DQ_LOCK));
                let word = lock_word(self.my_epoch, self.me);
                g.cas(&mut world.m, lock, 0, word) == 0
            };
            let top_word = GlobalAddr::new(v, self.lay.dq_word(DQ_TOP));
            let [top, bottom] = g.get_span::<2>(&mut world.m, top_word);
            let faults = world.m.take_faults(self.me);
            self.note_victim_faults(v, faults, now);
            probes.push((v, won, top, bottom));
        }
        cost += g.fence(&mut world.m);
        // Commit the first probe in ring order that landed with work;
        // cancel the rest. The abandon releases ride their own doorbell
        // chain (they are issued back to back once the probe results are
        // in).
        let mut won: Option<(WorkerId, u64, u64)> = None;
        let mut g = world.m.group(self.me, now + cost, Doorbell::Chained);
        for (v, locked, top, bottom) in probes {
            if !locked {
                // CAS lost: an ordinary failed attempt.
                world.rt.stats.steal_failed();
                self.fail_streak += 1;
                continue;
            }
            let has_work = top < bottom;
            if won.is_none() && has_work {
                won = Some((v, top, bottom));
                continue;
            }
            if self.protocol == Protocol::CasLock {
                // A won-but-unused lock is always released, whether the
                // deque was empty or the ring already committed elsewhere
                // (unsignaled put: injection only, no round trip).
                let lock = GlobalAddr::new(v, self.lay.dq_word(DQ_LOCK));
                g.put_unsignaled(&mut world.m, lock, 0);
            }
            if has_work {
                // Work was there but the ring committed to an earlier
                // victim: an abandoned attempt, never a latency sample.
                world.rt.stats.steal_abandoned();
            } else {
                world.rt.stats.steal_failed();
                self.fail_streak += 1;
            }
        }
        cost += g.fence(&mut world.m);
        match won {
            Some((victim, top, bottom)) => {
                // Probes and the commit run inside this one step, so the
                // victim's epoch now is the epoch every probe saw.
                let vepoch = world.m.epoch_of(victim);
                self.state = if self.protocol == Protocol::CasLock {
                    WState::StealTake {
                        victim,
                        t0: now,
                        bounds: Some((top, bottom)),
                        vepoch,
                    }
                } else {
                    WState::StealClaim {
                        victim,
                        top,
                        t0: now,
                        vepoch,
                    }
                };
                Step::Yield(cost)
            }
            None => {
                let c_wait = self.poll_blocked(now, world);
                Step::Yield(cost + c_wait)
            }
        }
    }

    /// Re-poll blocked work after a failed steal attempt: stalling policies
    /// round-robin the wait queue (Fig. 3); ChildRtc re-checks the join
    /// buried at the top of the nest (the scheduler-in-a-loop of a
    /// run-to-completion thread re-reads the flag between tasks).
    pub(crate) fn poll_blocked(&mut self, now: VTime, world: &mut World) -> VTime {
        if self.policy == Policy::ChildRtc {
            return self.poll_nest_top(now, world);
        }
        self.poll_wait_queue(now, world)
    }

    /// ChildRtc: check whether the join buried directly below became ready.
    pub(crate) fn poll_nest_top(&mut self, now: VTime, world: &mut World) -> VTime {
        let Some(top) = self.nest.last() else {
            return VTime::ZERO;
        };
        let h = top.handle;
        let (flag, mut cost) = world.m.get_u64(self.me, h.entry.field(E_FLAG));
        let done = if h.consumers == 1 {
            flag != 0
        } else {
            flag & DONE_BIT != 0
        };
        if done {
            let Nested { mut th, handle } = self.nest.pop().expect("checked non-empty");
            self.close_suspension(world, &mut th, now);
            let (v, c2) = self.join_complete_fast_value(world, handle);
            cost += c2;
            th.supply(v);
            self.start_thread(world, now, th);
        }
        cost
    }

    /// Round-robin check of one wait-queue entry (stalling strategies; runs
    /// after each failed steal attempt, Fig. 3).
    pub(crate) fn poll_wait_queue(&mut self, now: VTime, world: &mut World) -> VTime {
        let Some(Waiting { mut th, handle }) = self.wait_q.pop_front() else {
            return VTime::ZERO;
        };
        // A NULL handle marks a cooperative yield: always ready.
        if handle.entry.is_null() {
            th.supply(Value::Unit);
            let cost = world.m.ctx_switch(self.me);
            self.start_thread(world, now, th);
            return cost;
        }
        let (flag, mut cost) = world.m.get_u64(self.me, handle.entry.field(E_FLAG));
        let done = if handle.consumers == 1 {
            flag != 0
        } else {
            flag & DONE_BIT != 0
        };
        if done {
            self.close_suspension(world, &mut th, now);
            let (v, c2) = self.join_complete_fast_value(world, handle);
            cost += c2;
            if self.policy == Policy::ContStalling && self.scheme == AddressScheme::Uni {
                if th.home.is_some() {
                    world.rt.per[self.me]
                        .evac
                        .restore(th.stack_bytes() as u64);
                }
                self.claim_home(world, &mut th);
            }
            th.supply(v);
            cost += world.m.ctx_switch(self.me);
            self.start_thread(world, now, th);
        } else {
            self.wait_q.push_back(Waiting { th, handle });
        }
        cost
    }

    /// Begin running a deque item (locally popped or freshly stolen).
    /// `steal` carries `(victim, t0, done, copy, size)` for stolen items:
    /// the steal's latency runs from `t0` to `done`, of which `copy` was
    /// the payload transfer (already charged by the commit group).
    pub(crate) fn adopt_item(
        &mut self,
        now: VTime,
        world: &mut World,
        item: QueueItem,
        steal: Option<(WorkerId, VTime, VTime, VTime, usize)>,
    ) -> VTime {
        let mut cost = VTime::ZERO;
        match item {
            QueueItem::Cont { mut th, .. } => {
                if let Some((victim, ..)) = steal {
                    // Uni-address: the stack leaves the victim's region and
                    // lands at the same virtual address here. Iso-address:
                    // the globally unique range simply travels along.
                    if self.scheme == AddressScheme::Uni {
                        if let Some(home) = th.home {
                            world.rt.per[victim].uni.release(home);
                        }
                        self.claim_home(world, &mut th);
                    }
                }
                cost += world.m.ctx_restore(self.me);
                self.start_thread(world, now, th);
            }
            QueueItem::Child { f, arg, handle } => {
                let tid = world.rt.fresh_tid();
                let th = VThread::new(tid, f, arg, handle);
                if self.policy == Policy::ChildFull {
                    // Full threads start on a fresh private stack.
                    world.rt.per[self.me].note_full_stack_alloc();
                    cost += world.m.ctx_switch(self.me);
                } else if self.policy.is_cont() {
                    // Continuation runs never create child descriptors.
                    unreachable!("child descriptor under continuation stealing");
                } else {
                    // RtC threads run as a plain call on the worker stack.
                    cost += world.m.ctx_restore(self.me);
                }
                self.start_thread(world, now, th);
            }
        }
        if let Some((victim, t0, done, copy, size)) = steal {
            let latency = done.saturating_sub(t0);
            world.rt.stats.steal_ok(latency, copy, size);
            world.rt.stats.note_steal_event(self.me, victim, t0, t0 + latency);
            world.rt.watch_progress(now);
        }
        cost
    }

    /// Adopt a stolen item whose commit group has retired, binding a
    /// stolen child to the lineage record made at take time.
    fn adopt_stolen(
        &mut self,
        now: VTime,
        world: &mut World,
        item: QueueItem,
        steal: (WorkerId, VTime, VTime, VTime, usize),
        rec: Option<(WorkerId, usize)>,
    ) -> VTime {
        let cost = self.adopt_item(now, world, item, Some(steal));
        if let Some((w, i)) = rec {
            if let Some(th) = self.cur.as_mut() {
                // The stolen child materialized as a thread only now: bind
                // its id to the record.
                world.rt.lineage.rec_mut(w, i).tid = th.tid;
                th.replay_rec = rec;
            }
        }
        cost
    }

    /// Void a steal step whose victim died (`dead_guard`) or was evicted
    /// and rejoined (epoch fence) since the previous step: its segment or
    /// deque is gone, so touching it would tear the fresh incarnation.
    /// Returns the step to yield, or `None` when the victim is intact.
    fn steal_voided(
        &mut self,
        now: VTime,
        world: &mut World,
        victim: WorkerId,
        vepoch: u64,
    ) -> Option<Step> {
        if !self.kills {
            return None;
        }
        if let Some(c_dead) = world.m.dead_guard(self.me, victim, now) {
            self.state = WState::Idle;
            self.note_victim_faults(victim, 1, now);
            return Some(self.steal_missed(now, world, c_dead));
        }
        if world.m.fence_verb(self.me, vepoch, victim) {
            // Unreachable under the oracle detector: an eviction there
            // implies a confirmed death, which the dead guard catches.
            self.state = WState::Idle;
            return Some(self.steal_missed(now, world, VTime::ZERO));
        }
        None
    }

    /// Complete a steal whose lock we won last step: read the bounds (or
    /// reuse the ones a multi-steal probe read in the lock's doorbell
    /// chain — the won lock froze them), take the oldest entry, advance
    /// `top`, and commit with the lock release as the group's first verb.
    pub(crate) fn step_steal_take(
        &mut self,
        now: VTime,
        world: &mut World,
        victim: WorkerId,
        t0: VTime,
        bounds: Option<(u64, u64)>,
        vepoch: u64,
    ) -> Step {
        if let Some(step) = self.steal_voided(now, world, victim, vepoch) {
            return step;
        }
        let took = {
            let (_me_ws, victim_ws) = world.rt.two(self.me, victim);
            let items = &mut victim_ws.items;
            thief_take_no_release(&mut world.m, items, &self.lay, self.me, victim, bounds)
        };
        let lock = GlobalAddr::new(victim, self.lay.dq_word(DQ_LOCK));
        let (cost, g) = match took {
            Err(mut d) => {
                // The victim's deque (not ours) held the corpse: release so
                // the victim can progress, leave the bounds untouched.
                d.cost += thief_release_lock(&mut world.m, &self.lay, self.me, victim);
                self.deque_violation(world, victim, &d);
                (d.cost, None)
            }
            Ok((None, mut cost)) => {
                // Empty: release the lock (non-blocking put suffices).
                cost += world.m.post_put_u64_unsignaled(self.me, lock, 0);
                (cost, None)
            }
            Ok((Some((item, size, top)), cost)) => {
                // The advance is issued before the release and rides its
                // packet window (adjacent words); same-QP in-order
                // retirement guarantees any later thief that wins the
                // freed lock also observes the advanced bounds.
                thief_advance_top(&mut world.m, &self.lay, self.me, victim, top + 1);
                let mut g = world.m.group(self.me, now + cost, Doorbell::PerVerb);
                g.put(&mut world.m, lock, 0);
                (cost, Some((g, item, size)))
            }
        };
        let faults = world.m.take_faults(self.me);
        self.note_victim_faults(victim, faults, now);
        self.state = WState::Idle;
        match g {
            Some((g, item, size)) => self.commit_steal(now, world, victim, t0, item, size, cost, g),
            None => self.steal_missed(now, world, cost),
        }
    }

    /// Commit a won take or claim, shared by both protocols: `g` is
    /// the protocol's commit group, holding its own release (CAS-lock) or
    /// claim-write (fence-free). Record the steal lineage, add the
    /// checkpoint put and the payload transfer, and adopt the item — in
    /// this step if the group closes retired, otherwise one step later in
    /// [`Self::step_steal_reap`].
    ///
    /// The lineage is recorded before the payload crosses the wire, keyed
    /// by us (the executor): if we die before the entry flag is set, our
    /// death's confirmer re-adopts the work from this record. Child
    /// descriptors get a fresh record; a stolen continuation migrates an
    /// existing one (re-keyed here), and its header is mirrored to our
    /// buddy so either side of the split survives one death.
    #[allow(clippy::too_many_arguments)]
    fn commit_steal(
        &mut self,
        now: VTime,
        world: &mut World,
        victim: WorkerId,
        t0: VTime,
        mut item: QueueItem,
        size: usize,
        cost: VTime,
        mut g: VerbGroup,
    ) -> Step {
        let rec = match &mut item {
            QueueItem::Child { f, arg, handle }
                if self.kills && self.policy == Policy::ChildRtc =>
            {
                Some(self.record_lineage(world, 0, *f, arg.clone(), *handle))
            }
            QueueItem::Cont { th, .. } if self.kills => {
                if !self.rekey_lineage(world, th) {
                    // The victim died and a confirmer already claimed this
                    // continuation's record for replay; our take (virtually
                    // earlier, later in execution order) holds a stale
                    // duplicate. The take still commits protocol-wise —
                    // release or claim-write posted — but running the
                    // duplicate would execute the thread twice: a failed
                    // steal, streak included.
                    let c = g.fence(&mut world.m);
                    return self.steal_missed(now, world, cost + c);
                }
                self.mirror_split(world, now, &mut g);
                None
            }
            _ => None,
        };
        let copy = g.get_bulk(&mut world.m, victim, size);
        self.fail_streak = 0;
        let (c_post, retired) = g.close(&mut world.m);
        if !retired {
            self.pending_steal = Some(PendingSteal {
                item,
                size,
                t0,
                group: g,
                copy,
                rec,
            });
            self.state = WState::StealReap { victim };
            return Step::Yield(cost + c_post);
        }
        let done = now + cost + c_post;
        let c2 = self.adopt_stolen(now, world, item, (victim, t0, done, copy, size), rec);
        Step::Yield(cost + c_post + c2)
    }

    /// Complete a fence-free steal whose bounds read saw `top < bottom`
    /// last step: entry span read (plain get), host-side ticket
    /// arbitration, then a plain claim-write of the `top` hint — no atomic
    /// anywhere. The cross-step window since the bounds read is where the
    /// races live: a `Lost` race (slot consumed or reused) costs only the
    /// span read; a `Dup` (already claimed) pays the wasted payload
    /// transfer and discards.
    pub(crate) fn step_steal_claim(
        &mut self,
        now: VTime,
        world: &mut World,
        victim: WorkerId,
        top: u64,
        t0: VTime,
        vepoch: u64,
    ) -> Step {
        if let Some(step) = self.steal_voided(now, world, victim, vepoch) {
            return step;
        }
        self.state = WState::Idle;
        let slot = GlobalAddr::new(victim, self.lay.dq_slot(top));
        let (vals, mut cost) = world.m.get_u64_span::<3>(self.me, slot);
        let outcome = {
            let rt = &mut world.rt;
            ff_decide(&mut rt.per[victim], &mut rt.ff_claims, vals)
        };
        let faults = world.m.take_faults(self.me);
        self.note_victim_faults(victim, faults, now);
        let top_word = GlobalAddr::new(victim, self.lay.dq_word(DQ_TOP));
        match outcome {
            FfSteal::Lost => {
                world.rt.stats.ff_lost_races += 1;
                self.steal_missed(now, world, cost)
            }
            FfSteal::Dup => {
                // The loser copied the payload before discovering the claim
                // (the fence-free algorithm's cost of multiplicity), and
                // still writes the hint so later thieves skip the slot.
                cost += world.m.post_put_u64_unsignaled(self.me, top_word, top + 1);
                cost += world.m.get_bulk(self.me, victim, vals[1] as usize);
                world.rt.stats.ff_dups += 1;
                self.steal_missed(now, world, cost)
            }
            FfSteal::Taken(item, size) => {
                // The claim-write is a plain unsignaled put, so the steal
                // stays AMO-free.
                let mut g = world.m.group(self.me, now + cost, Doorbell::PerVerb);
                g.put_unsignaled(&mut world.m, top_word, top + 1);
                self.commit_steal(now, world, victim, t0, *item, size, cost, g)
            }
        }
    }

    /// Reap a steal whose commit group closed with verbs in flight and
    /// adopt the stolen item. Runs one engine step after the take, so the
    /// schedule explorer can interleave other workers between the post
    /// instant and the completion instant.
    pub(crate) fn step_steal_reap(&mut self, now: VTime, world: &mut World, victim: WorkerId) -> Step {
        let mut ps = self.pending_steal.take().expect("reap without a pending steal");
        // Even if the victim has died meanwhile the steal commits: the item
        // left its slab at take time and every verb was already posted (and
        // charged) before the death could be observed.
        let fin = ps.group.reap(&mut world.m);
        self.state = WState::Idle;
        // Everything before this step was charged by the take step (`now`
        // already includes it), so the recorded latency is `now - t0` plus
        // the payload transfer — the overlapped analogue of the serial sum.
        let steal = (victim, ps.t0, now + ps.copy, ps.copy, ps.size);
        let c2 = self.adopt_stolen(now, world, ps.item, steal, ps.rec);
        Step::Yield(fin.saturating_sub(now) + c2)
    }

    /// End-of-run consistency checks.
    pub(crate) fn finalize(&mut self, world: &mut World, now: VTime) {
        self.set_busy(world, now, false);
        self.halted = true;
        if self.protocol == Protocol::FenceFree {
            // Thief-claimed Child originals linger in our slab until a pop
            // walks past their slots; at termination nobody will, so sweep
            // the trailing claimed slots. The sweep stops at the first
            // unclaimed slot — a genuinely leaked item still trips the
            // strict assert below.
            let rt = &mut world.rt;
            ff_owner_reclaim(
                &mut world.m,
                &mut rt.per[self.me],
                &mut rt.ff_claims,
                &self.lay,
                self.me,
            );
        }
        if self.kills {
            // Armed termination can strand orphaned duplicates: a lineage
            // replay re-executed an ancestor whose original children kept
            // running here, and the root completed from the replayed copy.
            // Threads still buried when the done flag goes up are by
            // definition not part of the published result — retire them so
            // the lost-task oracle keeps meaning for live workers. Locally
            // spawned run-to-completion children carry no lineage record,
            // so the end-of-run lineage settlement cannot cover them.
            if let Some(th) = &self.cur {
                world.rt.watch_retire(th.tid);
            }
            for w in &self.wait_q {
                world.rt.watch_retire(w.th.tid);
            }
            for x in &self.nest {
                world.rt.watch_retire(x.th.tid);
            }
            if let Some(ps) = &self.pending_steal {
                if let QueueItem::Cont { th, .. } = &ps.item {
                    world.rt.watch_retire(th.tid);
                }
            }
        }
        if world.rt.cfg.strict {
            assert!(self.cur.is_none(), "worker {} halted mid-thread", self.me);
            assert!(
                self.wait_q.is_empty(),
                "worker {} halted with {} threads stuck in the wait queue",
                self.me,
                self.wait_q.len()
            );
            assert!(
                self.nest.is_empty(),
                "worker {} halted with buried joins",
                self.me
            );
            let ws = &world.rt.per[self.me];
            assert!(
                ws.items.is_empty(),
                "worker {} halted with {} unconsumed deque items",
                self.me,
                ws.items.len()
            );
            assert!(
                ws.saved.is_empty(),
                "worker {} halted with {} suspended threads",
                self.me,
                ws.saved.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permanent_blacklist_entries_never_decay() {
        // A confirmed-dead victim's score is pinned at the sentinel; the
        // decay path must short-circuit (a shift would silently
        // un-blacklist the dead).
        let s = Worker::bl_decayed(Worker::BL_FOREVER, VTime::ZERO, VTime::ms(10));
        assert_eq!(s, Worker::BL_FOREVER);
        assert!(s > Worker::BL_THRESHOLD);
        // Finite scores still decay towards zero — exactly one halving per
        // elapsed half-life, in integer shifts (no f64 in the hot path).
        let s = Worker::bl_decayed(8 * Worker::BL_ONE, VTime::ZERO, VTime::us(400));
        assert_eq!(s, 2 * Worker::BL_ONE, "two half-lives: 8 -> 2");
        // Sub-half-life elapses leave the score untouched (step decay)...
        let s = Worker::bl_decayed(8 * Worker::BL_ONE, VTime::ZERO, VTime::us(199));
        assert_eq!(s, 8 * Worker::BL_ONE);
        // ...and enormous gaps shift all the way to zero, not UB.
        let s = Worker::bl_decayed(8 * Worker::BL_ONE, VTime::ZERO, VTime::ms(100));
        assert_eq!(s, 0);
    }
}
