//! Operation counting and latency/energy computation.
//!
//! The paper computes performance analytically from compilation results
//! (§VI-A3: "the performance can be accurately calculated based on the
//! compilation results"). [`OpCounts`] is the interchange type: the compiler
//! and the architecture simulator both produce it, and the benchmark harness
//! converts it to nanoseconds/picojoules with a [`TechParams`].

use crate::tech::TechParams;

/// Instruction-level cycle costs from Table I that are independent of the
/// memory technology.
pub mod instruction_cycles {
    /// `Search` — 1 cycle.
    pub const SEARCH: u64 = 1;
    /// `SetKey` — 1 cycle.
    pub const SET_KEY: u64 = 1;
    /// `Count` — 4 cycles.
    pub const COUNT: u64 = 4;
    /// `Index` — 4 cycles.
    pub const INDEX: u64 = 4;
    /// `MovR` — 5 cycles.
    pub const MOV_R: u64 = 5;
    /// `SetTag` — 1 cycle.
    pub const SET_TAG: u64 = 1;
    /// `ReadTag` — 1 cycle.
    pub const READ_TAG: u64 = 1;
    /// `Broadcast` — 1 cycle.
    pub const BROADCAST: u64 = 1;
    /// Decode overhead of a `Write` instruction (1 cycle column-address
    /// decode, Table I discussion §IV-A2).
    pub const WRITE_DECODE: u64 = 1;
    /// Setting the key register once before driving write voltages.
    pub const WRITE_SETKEY: u64 = 1;
}

/// Counts of primitive operations performed by a program (per SIMD pass).
///
/// `writes_single` are `Write` instructions targeting one TCAM bit column
/// (12 cycles on RRAM: 1 decode + 1 key + 10 cell-write). `writes_encoded`
/// target two columns via the two-bit encoder (23 cycles: 1 + 2 + 20).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Number of `Search` operations.
    pub searches: u64,
    /// Number of single-column `Write` operations.
    pub writes_single: u64,
    /// Number of encoded two-column `Write` operations.
    pub writes_encoded: u64,
    /// Number of `SetKey` operations.
    pub set_keys: u64,
    /// Number of `Count` reductions.
    pub counts: u64,
    /// Number of `Index` (priority-encode) reductions.
    pub indexes: u64,
    /// Number of inter-PE `MovR` transfers.
    pub mov_rs: u64,
    /// Number of `SetTag`/`ReadTag` register transfers.
    pub tag_ops: u64,
    /// Number of `Broadcast` group-mask updates.
    pub broadcasts: u64,
    /// Cycles spent stalled in `Wait` for inter-group synchronization.
    pub wait_cycles: u64,
    /// Number of similarity-search column accumulations: one match-line
    /// evaluation plus a ripple-carry update of the per-row Hamming
    /// counter latches (CAM-native similarity search, DESIGN.md §11).
    pub sim_accums: u64,
    /// Number of similarity top-k threshold rounds: one bit-serial
    /// counter-compare search plus a global population count, repeated as
    /// the controller widens the distance threshold.
    pub sim_rounds: u64,
}

impl OpCounts {
    /// An empty count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of `Write` instructions of either kind.
    pub fn writes(&self) -> u64 {
        self.writes_single + self.writes_encoded
    }

    /// Total search-plus-write "operations" in the paper's Fig 2/Fig 5d sense
    /// (the 14-operation vs 6-operation comparison counts searches + writes).
    pub fn search_write_ops(&self) -> u64 {
        self.searches + self.writes()
    }

    /// Total latency in cycles under the given technology parameters.
    ///
    /// Cycle costs follow Table I: a single-column write is
    /// `1 (decode) + 1 (key) + t_bit_write` cycles; an encoded write is
    /// `1 + 2 + 2·t_bit_write` cycles (two columns written back-to-back).
    pub fn cycles(&self, tech: &TechParams) -> u64 {
        use instruction_cycles::*;
        let w_single = WRITE_DECODE + WRITE_SETKEY + tech.t_bit_write_cycles();
        let w_encoded = WRITE_DECODE + 2 * WRITE_SETKEY + 2 * tech.t_bit_write_cycles();
        self.searches * tech.t_search_cycles
            + self.writes_single * w_single
            + self.writes_encoded * w_encoded
            + self.set_keys * SET_KEY
            + self.counts * COUNT
            + self.indexes * INDEX
            + self.mov_rs * MOV_R
            + self.tag_ops * SET_TAG
            + self.broadcasts * BROADCAST
            + self.wait_cycles
            + self.sim_accums * (tech.t_search_cycles + 1)
            + self.sim_rounds * (tech.t_search_cycles + COUNT)
    }

    /// Total latency in nanoseconds.
    pub fn latency_ns(&self, tech: &TechParams) -> f64 {
        self.cycles(tech) as f64 * tech.clock_period_ns()
    }

    /// Dynamic energy in picojoules for **one PE** executing this stream.
    pub fn energy_pj_per_pe(&self, tech: &TechParams) -> f64 {
        self.searches as f64 * tech.e_search_pj
            + self.writes_single as f64 * tech.e_write_pj
            + self.writes_encoded as f64 * 2.0 * tech.e_write_pj
            + self.set_keys as f64 * tech.e_setkey_pj
            + (self.counts + self.indexes) as f64 * tech.e_reduce_pj
            + self.mov_rs as f64 * tech.e_movr_pj
            + self.tag_ops as f64 * 0.1
            + self.broadcasts as f64 * 0.1
            + self.sim_accums as f64 * (tech.e_search_pj + 0.1)
            + self.sim_rounds as f64 * (tech.e_search_pj + tech.e_reduce_pj)
    }

    /// Merge another count into this one.
    pub fn add(&mut self, other: &OpCounts) {
        self.searches += other.searches;
        self.writes_single += other.writes_single;
        self.writes_encoded += other.writes_encoded;
        self.set_keys += other.set_keys;
        self.counts += other.counts;
        self.indexes += other.indexes;
        self.mov_rs += other.mov_rs;
        self.tag_ops += other.tag_ops;
        self.broadcasts += other.broadcasts;
        self.wait_cycles += other.wait_cycles;
        self.sim_accums += other.sim_accums;
        self.sim_rounds += other.sim_rounds;
    }

    /// Byte length of one [`encode_into`](Self::encode_into) record: 12
    /// big-endian `u64` fields in declaration order.
    pub const ENCODED_LEN: usize = 96;

    /// Append this count to `out` as [`ENCODED_LEN`](Self::ENCODED_LEN)
    /// big-endian bytes — the fixed-width record checkpoint chunk payloads
    /// embed.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for field in [
            self.searches,
            self.writes_single,
            self.writes_encoded,
            self.set_keys,
            self.counts,
            self.indexes,
            self.mov_rs,
            self.tag_ops,
            self.broadcasts,
            self.wait_cycles,
            self.sim_accums,
            self.sim_rounds,
        ] {
            out.extend_from_slice(&field.to_be_bytes());
        }
    }

    /// Decode one [`encode_into`](Self::encode_into) record. Returns `None`
    /// unless `bytes` is exactly [`ENCODED_LEN`](Self::ENCODED_LEN) long.
    pub fn decode(bytes: &[u8]) -> Option<OpCounts> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let mut f = [0u64; 12];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            f[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Some(OpCounts {
            searches: f[0],
            writes_single: f[1],
            writes_encoded: f[2],
            set_keys: f[3],
            counts: f[4],
            indexes: f[5],
            mov_rs: f[6],
            tag_ops: f[7],
            broadcasts: f[8],
            wait_cycles: f[9],
            sim_accums: f[10],
            sim_rounds: f[11],
        })
    }

    /// This count scaled by `n` repetitions.
    pub fn repeated(&self, n: u64) -> OpCounts {
        OpCounts {
            searches: self.searches * n,
            writes_single: self.writes_single * n,
            writes_encoded: self.writes_encoded * n,
            set_keys: self.set_keys * n,
            counts: self.counts * n,
            indexes: self.indexes * n,
            mov_rs: self.mov_rs * n,
            tag_ops: self.tag_ops * n,
            broadcasts: self.broadcasts * n,
            wait_cycles: self.wait_cycles * n,
            sim_accums: self.sim_accums * n,
            sim_rounds: self.sim_rounds * n,
        }
    }
}

impl std::ops::Add for OpCounts {
    type Output = OpCounts;
    fn add(mut self, rhs: OpCounts) -> OpCounts {
        OpCounts::add(&mut self, &rhs);
        self
    }
}

impl std::iter::Sum for OpCounts {
    fn sum<I: Iterator<Item = OpCounts>>(iter: I) -> Self {
        iter.fold(OpCounts::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::TechParams;

    #[test]
    fn single_write_costs_12_cycles_on_rram() {
        // Table I: Write takes 12 cycles for a single TCAM cell.
        let ops = OpCounts {
            writes_single: 1,
            ..OpCounts::default()
        };
        assert_eq!(ops.cycles(&TechParams::rram()), 12);
    }

    #[test]
    fn encoded_write_costs_23_cycles_on_rram() {
        // Table I: Write takes 23 cycles when writing two TCAM cells.
        let ops = OpCounts {
            writes_encoded: 1,
            ..OpCounts::default()
        };
        assert_eq!(ops.cycles(&TechParams::rram()), 23);
    }

    #[test]
    fn search_costs_one_cycle() {
        let ops = OpCounts {
            searches: 5,
            ..OpCounts::default()
        };
        assert_eq!(ops.cycles(&TechParams::rram()), 5);
        assert_eq!(ops.cycles(&TechParams::cmos()), 5);
    }

    #[test]
    fn monolithic_write_is_22_cycles() {
        let ops = OpCounts {
            writes_single: 1,
            ..OpCounts::default()
        };
        assert_eq!(ops.cycles(&TechParams::rram_monolithic()), 22);
    }

    #[test]
    fn similarity_ops_price_through_tech_params() {
        let ops = OpCounts {
            sim_accums: 3,
            sim_rounds: 2,
            ..OpCounts::default()
        };
        // RRAM: an accumulate is one match-line search plus one counter-latch
        // cycle; a threshold round is one search plus a Count reduction.
        assert_eq!(ops.cycles(&TechParams::rram()), 3 * (1 + 1) + 2 * (1 + 4));
        let e = ops.energy_pj_per_pe(&TechParams::rram());
        assert!((e - (3.0 * (3.0 + 0.1) + 2.0 * (3.0 + 1.2))).abs() < 1e-9);
    }

    #[test]
    fn add_and_sum_accumulate() {
        let a = OpCounts {
            searches: 2,
            writes_single: 1,
            ..OpCounts::default()
        };
        let b = OpCounts {
            searches: 3,
            set_keys: 4,
            ..OpCounts::default()
        };
        let s: OpCounts = [a, b].into_iter().sum();
        assert_eq!(s.searches, 5);
        assert_eq!(s.writes_single, 1);
        assert_eq!(s.set_keys, 4);
    }

    #[test]
    fn repeated_scales_all_fields() {
        let a = OpCounts {
            searches: 2,
            writes_encoded: 3,
            wait_cycles: 7,
            ..OpCounts::default()
        };
        let r = a.repeated(4);
        assert_eq!(r.searches, 8);
        assert_eq!(r.writes_encoded, 12);
        assert_eq!(r.wait_cycles, 28);
    }

    #[test]
    fn search_write_ops_matches_fig2_style_counting() {
        // Traditional AP 1-bit add: 7 searches + 7 writes = 14 operations.
        let ops = OpCounts {
            searches: 7,
            writes_single: 7,
            ..OpCounts::default()
        };
        assert_eq!(ops.search_write_ops(), 14);
    }

    #[test]
    fn encode_decode_round_trips_and_rejects_bad_lengths() {
        let ops = OpCounts {
            searches: 1,
            writes_single: 2,
            writes_encoded: 3,
            set_keys: 4,
            counts: 5,
            indexes: 6,
            mov_rs: 7,
            tag_ops: 8,
            broadcasts: 9,
            wait_cycles: 10,
            sim_accums: 11,
            sim_rounds: u64::MAX,
        };
        let mut buf = Vec::new();
        ops.encode_into(&mut buf);
        assert_eq!(buf.len(), OpCounts::ENCODED_LEN);
        assert_eq!(OpCounts::decode(&buf), Some(ops));
        assert_eq!(OpCounts::decode(&buf[..buf.len() - 1]), None);
        buf.push(0);
        assert_eq!(OpCounts::decode(&buf), None);
    }

    #[test]
    fn energy_monotonic_in_ops() {
        let t = TechParams::rram();
        let small = OpCounts {
            searches: 1,
            ..OpCounts::default()
        };
        let big = OpCounts {
            searches: 10,
            writes_single: 2,
            ..OpCounts::default()
        };
        assert!(big.energy_pj_per_pe(&t) > small.energy_pj_per_pe(&t));
    }
}
