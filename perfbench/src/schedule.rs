//! The interleaved order in which a run measures its operations.
//!
//! Every measured round runs each operation kind once. The order inside a
//! round is a seeded shuffle, so slow phases of the machine spread over all
//! kinds instead of always hitting the same one, and the same seed always
//! gives the same schedule.

/// One kind of measured operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// One `run_campaign` call against a fresh copy of the victim.
    Campaign,
    /// A served segment at the rated arrival rate.
    Rated,
    /// A served segment far above the virtual service capacity.
    Overload,
    /// A served segment at the rated rate with hot-swap events.
    Swap,
}

impl OpKind {
    /// Every kind, in declaration order.
    pub const ALL: [OpKind; 4] = [
        OpKind::Campaign,
        OpKind::Rated,
        OpKind::Overload,
        OpKind::Swap,
    ];

    /// Short name used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Campaign => "campaign",
            OpKind::Rated => "rated",
            OpKind::Overload => "overload",
            OpKind::Swap => "swap",
        }
    }
}

/// SplitMix64 step: a small, well-mixed generator for the schedule only.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order of operations in round `round` of a run with `seed`
/// (Fisher–Yates over [`OpKind::ALL`]).
pub fn round_order(seed: u64, round: u64) -> [OpKind; 4] {
    let mut state = seed ^ round.wrapping_mul(0xa076_1d64_78bd_642f);
    let mut order = OpKind::ALL;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
