//! Microbenchmarks for the host-side building blocks.
//!
//! These measure the *simulator's* own performance (how much host work one
//! simulated event costs) and the real computational kernels the
//! benchmarks execute (SHA-1, the LCS leaf DP). Virtual-time results — the
//! paper's tables and figures — come from the `fig*`/`table*` binaries,
//! not from here.
//!
//! Self-contained harness (no criterion: the workspace builds offline with
//! no registry deps): each benchmark runs a calibration pass to pick an
//! iteration count targeting ~50ms, then reports the best-of-5 mean
//! ns/iter. Invoke with `cargo bench -p dcs-bench` or run the binary
//! directly; pass a substring argument to filter benchmarks by name.

use std::hint::black_box;
use std::time::Instant;

use dcs_apps::lcs::leaf_kernel;
use dcs_apps::sha1::{sha1, sha1_child};
use dcs_apps::uts::{presets, serial_count};
use dcs_core::deque::{owner_pop, owner_push, thief_lock, thief_take};
use dcs_core::layout::SegLayout;
use dcs_core::policy::{Policy, RunConfig};
use dcs_core::prelude::*;
use dcs_core::util::Slab;
use dcs_core::world::QueueItem;
use dcs_sim::{profiles, Machine, MachineConfig, SimRng};

const TARGET_NS: u128 = 50_000_000; // ~50ms per measurement round
const ROUNDS: usize = 5;

/// Time `f` adaptively and print `name: <ns>/iter (n iters × rounds)`.
fn bench<R>(filter: &str, name: &str, mut f: impl FnMut() -> R) {
    if !name.contains(filter) {
        return;
    }
    // Calibrate: grow the iteration count until one round is long enough to
    // drown out timer noise.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed().as_nanos();
        if dt >= TARGET_NS / 4 || iters >= 1 << 30 {
            if dt < TARGET_NS {
                iters = (iters as u128 * TARGET_NS / dt.max(1)).max(1) as u64;
            }
            break;
        }
        iters *= 4;
    }
    let mut best = u128::MAX;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos());
    }
    let per = best as f64 / iters as f64;
    println!("{name:<28} {per:>12.1} ns/iter   ({iters} iters, best of {ROUNDS})");
}

fn bench_sha1(filter: &str) {
    let d = sha1(b"root");
    bench(filter, "sha1/child_derivation", || sha1_child(black_box(&d), black_box(7)));
    let long = vec![0xabu8; 4096];
    bench(filter, "sha1/bulk_4k", || sha1(black_box(&long)));
}

fn bench_lcs_kernel(filter: &str) {
    let n = 256usize;
    let mut rng = SimRng::new(1);
    let a: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
    let b_: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
    let top = vec![0u32; n + 1];
    let left = vec![0u32; n + 1];
    bench(filter, "lcs_kernel/block_256", || {
        leaf_kernel(black_box(&a), black_box(&b_), 0, 0, n, &top, &left)
    });
}

fn bench_deque(filter: &str) {
    let cfg = RunConfig::new(2, Policy::ChildFull);
    let lay = SegLayout::new(&cfg);
    let mk = || {
        let m = Machine::new(
            MachineConfig::new(2, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        (m, Slab::new())
    };
    fn item(i: u64) -> QueueItem {
        QueueItem::Child {
            f: |_, _| Effect::ret(0u64),
            arg: Value::U64(i),
            handle: ThreadHandle::single(dcs_sim::GlobalAddr::new(0, 8)),
        }
    }
    // Machine setup dominates a single push/pop, so batch many ops per
    // machine instead of criterion's iter_batched_ref.
    bench(filter, "deque/push_pop", || {
        let (mut m, mut items) = mk();
        for _ in 0..64 {
            owner_push(&mut m, &mut items, &lay, 0, item(1)).unwrap();
            black_box(owner_pop(&mut m, &mut items, &lay, 0).unwrap());
        }
    });
    bench(filter, "deque/steal", || {
        let (mut m, mut items) = mk();
        for _ in 0..64 {
            owner_push(&mut m, &mut items, &lay, 0, item(1)).unwrap();
            let (ok, _) = thief_lock(&mut m, &lay, 1, 0);
            assert!(ok);
            black_box(thief_take(&mut m, &mut items, &lay, 1, 0, None).unwrap());
        }
    });
}

fn bench_uts_serial(filter: &str) {
    let spec = presets::tiny();
    bench(filter, "uts/serial_tiny", || serial_count(black_box(&spec)));
}

fn bench_end_to_end_sim(filter: &str) {
    // Host cost of simulating one small fork-join run end-to-end.
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
    bench(filter, "sim/fib16_p4_greedy", || {
        let cfg = RunConfig::new(4, Policy::ContGreedy)
            .with_profile(profiles::test_profile())
            .with_seg_bytes(64 << 20);
        run(cfg, Program::new(fib, 16u64))
    });
}

fn main() {
    // `cargo bench` passes --bench; ignore flags, keep the first bare arg as
    // a name filter.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    bench_sha1(&filter);
    bench_lcs_kernel(&filter);
    bench_deque(&filter);
    bench_uts_serial(&filter);
    bench_end_to_end_sim(&filter);
}
