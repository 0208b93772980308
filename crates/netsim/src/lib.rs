//! # beff-netsim
//!
//! Discrete-event, virtual-time network model used as the interconnect
//! substrate for the b_eff / b_eff_io benchmark reproduction.
//!
//! The model is a causal-timestamp (LogGP-style) simulation:
//!
//! * every MPI rank owns a [`VClock`] (virtual seconds),
//! * a message transfer is priced by [`model::MachineNet::transfer`],
//!   which routes the message over the configured [`topology::Topology`]
//!   and reserves occupancy on every traversed [`Link`],
//! * contention emerges from link reservation: two messages crossing the
//!   same wire at the same virtual time serialize.
//!
//! The mechanism layer — virtual clocks, fair-share [`Resource`]s,
//! priced [`Link`]s, the deterministic RNG — lives in `beff-sim`
//! (the workload-agnostic simulation substrate); this crate re-exports
//! its types flat (`beff_netsim::{Secs, MB, Link, …}`) and layers the
//! *network semantics* on top: topologies, routing, LogGP transfer
//! pricing.
//!
//! Nothing here depends on the MPI layer: this crate answers only
//! "what does it cost", never "who is allowed to proceed".

pub mod model;
pub mod stats;
pub mod routing;
pub mod topology;

pub use beff_sim::{Clock, Degrade, Link, RealClock, Resource, Rng64, Secs, VClock, GB, KB, MB};
pub use model::{Egress, MachineNet, NetParams, Tier, Transfer};
pub use stats::{traffic_report, KindStats, TrafficReport};
pub use routing::{RouteTable, SplitRoute};
pub use topology::{LinkKind, Placement, Topology};
