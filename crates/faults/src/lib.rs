//! `infs-faults`: deterministic, seeded fault injection for the Infinity
//! Stream stack — see `DESIGN.md` §10 ("Fault model & degradation ladder").
//!
//! The paper's Inf-S machine decides *at `inf_cfg` time* whether a region
//! runs in-memory, near-memory, or on the host (§4.2, Eq 2). That decision
//! point is also a natural **degradation ladder**: when compute-SRAM banks
//! are unhealthy, a region that would have run on the bitlines can fall back
//! to the stream engines, and when even those are gone, to the cores. This
//! crate provides the machinery every layer shares to *exercise* that ladder
//! deterministically:
//!
//! * [`FaultPlan`] — a seeded schedule of faults ([`FaultConfig`] names the
//!   rates). Every query is a pure function of `(seed, domain, sequence
//!   number)` — **no wall-clock, no global state** — so two runs with the
//!   same seed observe byte-identical fault schedules regardless of thread
//!   interleaving, and a failure seen in CI replays locally from the seed
//!   alone.
//! * [`BankHealth`] — the per-bank health mask the simulated machine carries;
//!   detection (an ECC scrub catching a flipped wordline bit) quarantines a
//!   bank by clearing its mask bit, and the runtime's decision step re-plans
//!   around the survivors.
//! * [`RetryPolicy`] — bounded exponential backoff with *deterministic*
//!   jitter for clients of the serving layer, honoring the server's
//!   `retry_after_ms` backpressure hint as a floor.
//! * [`RetuneTrigger`] — an edge detector over the machine's monotone
//!   degradation counters; the serving layer's autotuner demotes an
//!   artifact's incumbent variant when new events fire (`DESIGN.md` §15).
//! * [`Lru`] — the bounded least-recently-used map every cache keeps, with
//!   the §10 load-path rule (an entry failing its checksum is dropped and
//!   reads as a miss) written once, in [`Lru::get_verified`].
//!
//! The crate is a dependency leaf (std + serde only): the runtime, simulator,
//! serving layer and bench harness all pull it in without cycles.
//!
//! ```
//! use infs_faults::{FaultConfig, FaultPlan};
//!
//! let plan = FaultPlan::new(FaultConfig { seed: 7, dead_banks: 4, ..FaultConfig::none() });
//! let health = plan.initial_health(64);
//! assert_eq!(health.healthy_count(), 60);
//! // Same seed, same schedule — always.
//! assert_eq!(health, FaultPlan::new(plan.config().clone()).initial_health(64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod health;
mod lru;
mod plan;
mod retry;
mod retune;
mod rng;

pub use health::BankHealth;
pub use lru::{Corrupt, Lru};
pub use plan::{FaultConfig, FaultPlan, NocFault, ScheduledFault, SramFlip};
pub use retry::RetryPolicy;
pub use retune::RetuneTrigger;
pub use rng::{fnv1a, mix64, Fnv1a, Xorshift64};
