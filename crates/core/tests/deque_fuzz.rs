//! Randomized interleaving fuzz of the deque steal protocol.
//!
//! Drives the owner (push/pop) and multiple thieves (lock → take, with the
//! lock held across an arbitrary number of interleaved owner operations)
//! through proptest-generated schedules, checking the linearizability
//! invariants the scheduler relies on:
//!
//! * no task is lost or duplicated,
//! * owner pops see LIFO order relative to un-stolen pushes,
//! * thieves always receive the oldest resident task,
//! * a blocked owner (`Busy`) happens only while a thief holds the lock.

use proptest::prelude::*;

use dcs_core::deque::{owner_pop, owner_push, thief_lock, thief_take, DequeError};
use dcs_core::frame::Effect;
use dcs_core::layout::SegLayout;
use dcs_core::policy::{Policy, RunConfig};
use dcs_core::util::Slab;
use dcs_core::value::{ThreadHandle, Value};
use dcs_core::world::QueueItem;
use dcs_sim::{profiles, GlobalAddr, Machine, MachineConfig};

#[derive(Debug, Clone, Copy)]
enum Op {
    Push,
    Pop,
    /// Thief `t` tries to lock.
    Lock(u8),
    /// Thief `t` completes a held steal.
    Take(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Push),
        3 => Just(Op::Pop),
        2 => (0u8..3).prop_map(Op::Lock),
        2 => (0u8..3).prop_map(Op::Take),
    ]
}

fn item(tag: u64) -> QueueItem {
    QueueItem::Child {
        f: |_, _| Effect::ret(0u64),
        arg: Value::U64(tag),
        handle: ThreadHandle::single(GlobalAddr::new(0, 8)),
    }
}

fn tag_of(i: &QueueItem) -> u64 {
    match i {
        QueueItem::Child { arg, .. } => arg.as_u64(),
        QueueItem::Cont { th, .. } => th.tid,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deque_never_loses_or_duplicates(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let cfg = RunConfig::new(4, Policy::ChildFull);
        let lay = SegLayout::new(&cfg);
        let mut m = Machine::new(
            MachineConfig::new(4, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        let mut items: Slab<QueueItem> = Slab::new();

        let mut next_tag = 0u64;
        let mut resident: Vec<u64> = Vec::new(); // oldest..newest
        let mut seen = [false; 200];
        let mut lock_holder: Option<u8> = None;

        for op in ops {
            match op {
                Op::Push => {
                    let r = owner_push(&mut m, &mut items, &lay, 0, item(next_tag));
                    match r {
                        Ok(_) => {
                            prop_assert!(lock_holder.is_none(), "push succeeded under thief lock");
                            resident.push(next_tag);
                            next_tag += 1;
                        }
                        Err(DequeError::Busy) => {
                            prop_assert!(lock_holder.is_some(), "spurious Busy")
                        }
                        Err(e) => prop_assert!(false, "unexpected deque error: {e:?}"),
                    }
                }
                Op::Pop => {
                    match owner_pop(&mut m, &mut items, &lay, 0) {
                        Ok((got, _)) => {
                            prop_assert!(lock_holder.is_none());
                            match got {
                                Some(it) => {
                                    let expect = resident.pop().expect("pop from known-empty");
                                    prop_assert_eq!(tag_of(&it), expect, "LIFO violated");
                                    let t = tag_of(&it) as usize;
                                    prop_assert!(!seen[t], "duplicate task {t}");
                                    seen[t] = true;
                                }
                                None => prop_assert!(resident.is_empty(), "pop missed a task"),
                            }
                        }
                        Err(DequeError::Busy) => prop_assert!(lock_holder.is_some()),
                        Err(e) => prop_assert!(false, "unexpected deque error: {e:?}"),
                    }
                }
                Op::Lock(t) => {
                    let (ok, _) = thief_lock(&mut m, &lay, 1 + t as usize, 0);
                    if ok {
                        prop_assert!(lock_holder.is_none(), "two lock holders");
                        lock_holder = Some(t);
                    } else {
                        prop_assert!(lock_holder.is_some(), "lock failed while free");
                    }
                }
                Op::Take(t) => {
                    if lock_holder != Some(t) {
                        continue; // this thief does not hold the lock
                    }
                    let take = thief_take(&mut m, &mut items, &lay, 1 + t as usize, 0, None);
                    lock_holder = None;
                    prop_assert!(take.is_ok(), "dead slot under a healthy schedule");
                    let (got, _) = take.unwrap();
                    match got {
                        Some((it, size)) => {
                            prop_assert!(!resident.is_empty());
                            let expect = resident.remove(0);
                            prop_assert_eq!(tag_of(&it), expect, "steal must take the oldest");
                            prop_assert_eq!(size, it.wire_size());
                            let tag = tag_of(&it) as usize;
                            prop_assert!(!seen[tag], "duplicate steal {tag}");
                            seen[tag] = true;
                        }
                        None => prop_assert!(resident.is_empty(), "steal missed a task"),
                    }
                }
            }
        }

        // Drain: everything still resident must come back out exactly once.
        if lock_holder.is_some() {
            let _ = thief_take(&mut m, &mut items, &lay, 1, 0, None).unwrap();
            if let Some(expect) = (!resident.is_empty()).then(|| resident.remove(0)) {
                seen[expect as usize] = true;
            }
        }
        while let Ok((Some(it), _)) = owner_pop(&mut m, &mut items, &lay, 0) {
            let expect = resident.pop().expect("unexpected resident task");
            prop_assert_eq!(tag_of(&it), expect);
            seen[tag_of(&it) as usize] = true;
        }
        prop_assert!(resident.is_empty(), "tasks lost: {resident:?}");
        prop_assert!(items.is_empty(), "slab leaked {} items", items.len());
        for t in 0..next_tag {
            prop_assert!(seen[t as usize], "task {t} vanished");
        }
    }
}
