//! The benchmark's workloads: configuration, seeded input generation and
//! the independent answer oracle.
//!
//! The seed reaches the program only through generated inputs: the
//! scheduler's victim-selection stream (`RunConfig::seed`) for every
//! workload, and the two random sequences for `lcs_pipe`. The UTS trees are
//! fixed instances (their shape, not the seed, is what the workloads are
//! about), so their node counts stay put from seed to seed.
//!
//! `wide_uts` uses a 21 k-node tree (`gen_mx` 13) rather than the 3 k-node
//! `presets::tiny()`: with ~40 successful steals per run the tiny tree's
//! makespan varied by 9 % (cv) from schedule to schedule, against 5 % here.

use dcs_apps::lcs::{self, LcsParams};
use dcs_apps::uts::{self, Shape, UtsSpec};
use dcs_core::prelude::*;

/// Worker count of `wide_uts`: the selfbench scaling-cell shape at the
/// scale where the per-step cost of a huge, mostly idle actor set shows.
pub const WIDE_WORKERS: usize = 30_000;
/// Worker count of `lcs_pipe`.
pub const LCS_WORKERS: usize = 256;
/// `lcs_pipe` sequence length and leaf block size.
pub const LCS_N: u64 = 16_384;
pub const LCS_BLOCK: u64 = 64;
/// Worker count of `uts_recover`.
pub const RECOVER_WORKERS: usize = 1_000;
/// `uts_recover` fault plan: recovery armed, two fail-stop kills, message
/// (suspicion-capable) failure detector.
pub const RECOVER_PLAN: &str = "recover=on,kill=3@200us,kill=5@400us,detector=message";

pub const NAMES: [&str; 3] = ["wide_uts", "lcs_pipe", "uts_recover"];

/// A workload's generated inputs.
pub enum Input {
    Uts(UtsSpec),
    Lcs(LcsParams),
}

impl Input {
    /// Build the program the simulator runs.
    pub fn program(&self) -> Program {
        match self {
            Input::Uts(spec) => uts::program(spec.clone()),
            Input::Lcs(p) => lcs::program(p.clone()),
        }
    }

    /// The answer computed without the simulator: the serial UTS node
    /// count, or the O(N²) reference LCS length.
    pub fn reference(&self) -> u64 {
        match self {
            Input::Uts(spec) => uts::serial_count(spec).nodes,
            Input::Lcs(p) => lcs::lcs_reference(&p.a, &p.b) as u64,
        }
    }

    /// Units of real kernel work the run performs on the host: UTS child
    /// hashes (one per non-root node), or LCS DP cells.
    pub fn kernel_units(&self, answer: u64) -> u64 {
        match self {
            Input::Uts(_) => answer.saturating_sub(1),
            Input::Lcs(p) => p.n * p.n,
        }
    }
}

/// A named workload instantiated for one seed.
pub struct Workload {
    pub name: &'static str,
    pub cfg: RunConfig,
    seed: u64,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let (name, cfg) = match name {
            "wide_uts" => {
                let mut cfg = RunConfig::new(WIDE_WORKERS, Policy::ContGreedy)
                    .with_topology(Topology::cubish_mesh(WIDE_WORKERS, 48))
                    .with_seg_bytes(2 << 20);
                // Small tree over many workers: shrink the fixed per-worker
                // rings so memory reflects live state, not default capacity.
                cfg.deque_cap = 512;
                cfg.freeq_cap = 256;
                cfg.stack_slot = 8 << 10;
                ("wide_uts", cfg)
            }
            "lcs_pipe" => (
                "lcs_pipe",
                RunConfig::new(LCS_WORKERS, Policy::ContGreedy)
                    .with_protocol(Protocol::FenceFree)
                    .with_fabric(FabricMode::Pipelined)
                    .with_multi_steal(4)
                    .with_seg_bytes(64 << 20),
            ),
            "uts_recover" => (
                "uts_recover",
                RunConfig::new(RECOVER_WORKERS, Policy::ContGreedy)
                    .with_topology(Topology::Hierarchical {
                        node_size: 48,
                        intra_factor: 0.3,
                    })
                    .with_seg_bytes(64 << 20)
                    .with_fault_plan(FaultPlan::parse(RECOVER_PLAN).expect("valid fault plan")),
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            cfg: cfg.with_seed(seed),
            seed,
        })
    }

    /// Generate the inputs (timed as part of set-up).
    pub fn inputs(&self) -> Input {
        match self.name {
            "wide_uts" => Input::Uts(UtsSpec::new(4.0, 13, Shape::Linear, 19)),
            "lcs_pipe" => Input::Lcs(LcsParams::random(LCS_N, LCS_BLOCK, self.seed)),
            _ => Input::Uts(UtsSpec::new(4.0, 15, Shape::Linear, 19)),
        }
    }
}

/// Root task of the set-up probe run: returns at once, so the run costs
/// only building, first-stepping and tearing down the W-worker machine.
pub fn empty_root(_: Value, _: &mut TaskCtx) -> Effect {
    Effect::ret(0u64)
}
