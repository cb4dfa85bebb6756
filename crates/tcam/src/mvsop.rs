//! Multi-valued sum-of-products minimization over encoded search keys.
//!
//! With the extended two-bit encoding (Fig 5c), one Hyper-AP search over an
//! encoded bit pair can match an *arbitrary subset* of the four original pair
//! values ([`crate::encoding`]). Minimizing the number of search operations
//! for a lookup-table output is therefore exactly the problem of covering its
//! ON-set with a minimum number of *multi-valued product terms*, where each
//! input position (an encoded pair, or an unencoded single bit) contributes
//! an arbitrary per-position value subset.
//!
//! The minimizer here is an espresso-MV-lite: minterm seeding, per-position
//! expansion against the OFF-set, prime deduplication, and greedy set cover
//! with an exact branch-and-bound fallback for small instances. Minterms are
//! indexed in mixed radix so the OFF-set is a bitset, and terms are packed
//! four bits per position into one `u64`. It is used by
//! both the hand-optimized arithmetic microcode (the paper's "RTL library
//! developed by experts") and the compiler's LUT-generation step (§V-B4).

use crate::encoding::PairSubset;
use std::collections::HashSet;

/// The kind of one input position of a lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PosKind {
    /// An encoded pair of data bits: values 0..=3, arbitrary subsets allowed.
    Pair,
    /// An unencoded single data bit: values 0..=1, arbitrary subsets allowed.
    Single,
}

impl PosKind {
    /// Number of distinct values at this position.
    pub fn arity(self) -> u8 {
        match self {
            PosKind::Pair => 4,
            PosKind::Single => 2,
        }
    }

    /// The full subset for this position (all values allowed).
    pub fn full(self) -> PairSubset {
        match self {
            PosKind::Pair => PairSubset(0b1111),
            PosKind::Single => PairSubset(0b11),
        }
    }
}

/// One multi-valued product term: for each position, the subset of values it
/// admits. A term covers a minterm iff every position's value is in the
/// term's subset. One term = one Hyper-AP search operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Term {
    /// Per-position admitted value subsets.
    pub subsets: Vec<PairSubset>,
}

impl Term {
    /// Does this term cover the minterm `values`?
    pub fn covers(&self, values: &[u8]) -> bool {
        self.subsets.iter().zip(values).all(|(s, &v)| s.contains(v))
    }
}

/// A minimization problem: positions, ON-set minterms, and (implicitly)
/// everything else is the OFF-set unless listed as don't-care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    /// Kinds of the input positions.
    pub positions: Vec<PosKind>,
    /// Minterms (one value per position) where the output is 1.
    pub on_set: Vec<Vec<u8>>,
    /// Minterms where the output value is irrelevant (may be freely covered).
    pub dc_set: Vec<Vec<u8>>,
}

impl Cover {
    /// New cover with an empty don't-care set.
    pub fn new(positions: Vec<PosKind>, on_set: Vec<Vec<u8>>) -> Self {
        Cover {
            positions,
            on_set,
            dc_set: Vec::new(),
        }
    }

    /// Enumerate the OFF-set: all minterms not in ON ∪ DC.
    pub fn off_set(&self) -> Vec<Vec<u8>> {
        let mut off = Vec::new();
        let mut current = vec![0u8; self.positions.len()];
        loop {
            if !self.on_set.contains(&current) && !self.dc_set.contains(&current) {
                off.push(current.clone());
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == self.positions.len() {
                    return off;
                }
                current[i] += 1;
                if current[i] < self.positions[i].arity() {
                    break;
                }
                current[i] = 0;
                i += 1;
            }
        }
    }
}

/// Result of a minimization: the covering terms (search operations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Product terms; one per required search operation.
    pub terms: Vec<Term>,
}

impl Solution {
    /// Number of search operations.
    pub fn num_searches(&self) -> usize {
        self.terms.len()
    }
}

/// Minimize the cover: return a small set of terms covering every ON minterm
/// and no OFF minterm.
///
/// Complexity is bounded by the paper's 12-input LUT limit (§V-B4): the input
/// space has at most 2^12 minterms.
///
/// # Panics
///
/// Panics if any minterm's length differs from the number of positions, if
/// a minterm value is out of range for its position, or if a non-empty
/// cover has more than 16 positions.
pub fn minimize(cover: &Cover) -> Solution {
    for m in cover.on_set.iter().chain(&cover.dc_set) {
        assert_eq!(m.len(), cover.positions.len(), "minterm arity mismatch");
        assert!(
            m.iter().zip(&cover.positions).all(|(&v, p)| v < p.arity()),
            "minterm value out of range: {m:?}"
        );
    }
    if cover.on_set.is_empty() {
        return Solution { terms: Vec::new() };
    }
    let n = cover.positions.len();
    assert!(n <= 16, "at most 16 positions are supported, got {n}");
    let space = Space::new(&cover.positions);
    let w = space.words;
    let off = space.off_set(cover);

    // 1. Expand each ON minterm into a prime: greedily raise each position to
    //    the maximal subset that avoids the OFF-set. Doing two passes with
    //    different position orders yields a richer prime pool.
    //
    //    The term before a trial never covers an OFF minterm (it starts as an
    //    ON minterm and only grows by accepted trials), so adding value `v`
    //    at `pos` reaches the OFF-set iff the new slice does: the minterms
    //    with `v` at `pos` and the term's values everywhere else.
    let orders: [Vec<usize>; 2] = [(0..n).collect(), (0..n).rev().collect()];
    let mut primes: Vec<u64> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    // Row `j` of `allowed`: the minterms whose value at `j` the term admits.
    let mut allowed = vec![0u64; n * w];
    let mut rest = vec![0u64; w];
    for minterm in &cover.on_set {
        for order in &orders {
            for (j, &v) in minterm.iter().enumerate() {
                allowed[j * w..(j + 1) * w].copy_from_slice(space.proj(j, v));
            }
            let mut term = one_hot(minterm);
            for &pos in order {
                // OFF minterms agreeing with the term off `pos`.
                rest.copy_from_slice(&off);
                for (j, row) in allowed.chunks(w).enumerate() {
                    if j != pos {
                        rest.iter_mut().zip(row).for_each(|(r, a)| *r &= a);
                    }
                }
                let mut best = nibble(term, pos);
                for v in 0..cover.positions[pos].arity() {
                    let slice = space.proj(pos, v);
                    if best >> v & 1 == 0 && !intersects(&rest, slice) {
                        best |= 1 << v;
                        let row = &mut allowed[pos * w..(pos + 1) * w];
                        row.iter_mut().zip(slice).for_each(|(a, s)| *a |= s);
                    }
                }
                term = term & !(0xF << (4 * pos)) | (best as u64) << (4 * pos);
            }
            if seen.insert(term) {
                primes.push(term);
            }
        }
    }

    // Drop primes contained in other primes.
    let contained = |a: u64, b: u64| a & !b == 0;
    let mut keep = vec![true; primes.len()];
    for i in 0..primes.len() {
        for j in 0..primes.len() {
            if i != j
                && keep[i]
                && keep[j]
                && contained(primes[i], primes[j])
                && !(contained(primes[j], primes[i]) && j > i)
            {
                keep[i] = false;
            }
        }
    }
    let primes: Vec<u64> = primes
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect();

    // 2. Cover: exact branch-and-bound for small instances, greedy otherwise.
    //    Row `i` of `coverage` is the bitset of ON-set indices prime `i`
    //    covers.
    let on_hot: Vec<u64> = cover.on_set.iter().map(|m| one_hot(m)).collect();
    let on_words = on_hot.len().div_ceil(64);
    let mut coverage = vec![0u64; primes.len() * on_words];
    for (row, &p) in coverage.chunks_mut(on_words).zip(&primes) {
        for (i, &m) in on_hot.iter().enumerate() {
            if contained(m, p) {
                row[i / 64] |= 1 << (i % 64);
            }
        }
    }
    let greedy = greedy_cover(on_hot.len(), on_words, &coverage);
    let chosen = if primes.len() <= 24 && on_hot.len() <= 64 {
        exact_cover(on_hot.len(), &coverage, greedy.len()).unwrap_or(greedy)
    } else {
        greedy
    };
    Solution {
        terms: chosen
            .into_iter()
            .map(|i| Term {
                subsets: (0..n)
                    .map(|pos| PairSubset(nibble(primes[i], pos)))
                    .collect(),
            })
            .collect(),
    }
}

/// A term or minterm packed four bits per position: nibble `pos` is the
/// position's admitted value subset.
fn one_hot(values: &[u8]) -> u64 {
    values
        .iter()
        .enumerate()
        .fold(0, |acc, (pos, &v)| acc | 1 << (4 * pos + v as usize))
}

fn nibble(packed: u64, pos: usize) -> u8 {
    (packed >> (4 * pos) & 0xF) as u8
}

/// A bitset with bits `0..bits` set.
fn ones(bits: usize) -> Vec<u64> {
    let mut set = vec![!0u64; bits.div_ceil(64)];
    if let Some(last) = set.last_mut().filter(|_| !bits.is_multiple_of(64)) {
        *last = (1 << (bits % 64)) - 1;
    }
    set
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The input space in mixed radix (position 0 least significant), with one
/// projection bitset per (position, value): the minterms taking `value` at
/// `position`.
struct Space {
    words: usize,
    /// First projection row of each position.
    first_row: Vec<usize>,
    /// `words`-long bitset rows, one per (position, value).
    proj: Vec<u64>,
    strides: Vec<usize>,
    size: usize,
}

impl Space {
    fn new(positions: &[PosKind]) -> Self {
        let size = positions.iter().map(|p| p.arity() as usize).product();
        let words = usize::div_ceil(size, 64);
        let mut first_row = Vec::with_capacity(positions.len());
        let mut strides = Vec::with_capacity(positions.len());
        let (mut rows, mut stride) = (0, 1);
        for p in positions {
            first_row.push(rows);
            strides.push(stride);
            rows += p.arity() as usize;
            stride *= p.arity() as usize;
        }
        let mut proj = vec![0u64; rows * words];
        for x in 0..size {
            for (pos, p) in positions.iter().enumerate() {
                let v = x / strides[pos] % p.arity() as usize;
                proj[(first_row[pos] + v) * words + x / 64] |= 1 << (x % 64);
            }
        }
        Space {
            words,
            first_row,
            proj,
            strides,
            size,
        }
    }

    fn proj(&self, pos: usize, value: u8) -> &[u64] {
        let row = self.first_row[pos] + value as usize;
        &self.proj[row * self.words..(row + 1) * self.words]
    }

    fn index(&self, values: &[u8]) -> usize {
        values
            .iter()
            .zip(&self.strides)
            .map(|(&v, s)| v as usize * s)
            .sum()
    }

    /// Bitset of every minterm not in ON ∪ DC.
    fn off_set(&self, cover: &Cover) -> Vec<u64> {
        let mut off = ones(self.size);
        for m in cover.on_set.iter().chain(&cover.dc_set) {
            let x = self.index(m);
            off[x / 64] &= !(1 << (x % 64));
        }
        off
    }
}

/// Greedy set cover over `coverage` rows (`words` u64s each): repeatedly
/// take the prime covering the most uncovered ON minterms, the last one on
/// ties.
fn greedy_cover(n_minterms: usize, words: usize, coverage: &[u64]) -> Vec<usize> {
    let mut uncovered = ones(n_minterms);
    let mut remaining = n_minterms;
    let mut chosen = Vec::new();
    while remaining > 0 {
        let gain = |row: &[u64]| -> usize {
            row.iter()
                .zip(&uncovered)
                .map(|(c, u)| (c & u).count_ones() as usize)
                .sum()
        };
        let (best, gain) = coverage
            .chunks(words)
            .map(gain)
            .enumerate()
            .max_by_key(|&(_, g)| g)
            .expect("primes cover all ON minterms");
        assert!(gain > 0, "prime pool fails to cover the ON-set");
        chosen.push(best);
        for (u, c) in uncovered.iter_mut().zip(&coverage[best * words..]) {
            *u &= !c;
        }
        remaining -= gain;
    }
    chosen
}

/// Exact minimum cover by branch and bound on the first uncovered minterm,
/// for at most 64 ON minterms (one u64 coverage mask per prime). Returns
/// `None` when no cover of at most `upper` primes exists.
fn exact_cover(n_minterms: usize, coverage: &[u64], upper: usize) -> Option<Vec<usize>> {
    fn recurse(
        coverage: &[u64],
        uncovered: u64,
        chosen: &mut Vec<usize>,
        best: &mut Option<Vec<usize>>,
        budget: usize,
    ) {
        if uncovered == 0 {
            if best.as_ref().is_none_or(|b| chosen.len() < b.len()) {
                *best = Some(chosen.clone());
            }
            return;
        }
        if chosen.len() + 1 > budget {
            return;
        }
        let first = uncovered.trailing_zeros();
        for (i, &c) in coverage.iter().enumerate() {
            if c >> first & 1 == 0 {
                continue;
            }
            chosen.push(i);
            let budget = best.as_ref().map_or(budget, |b| b.len() - 1);
            recurse(coverage, uncovered & !c, chosen, best, budget);
            chosen.pop();
        }
    }
    let mut best = None;
    recurse(
        coverage,
        ones(n_minterms)[0],
        &mut Vec::new(),
        &mut best,
        upper,
    );
    best
}

/// Count the searches a *traditional* AP needs for the same ON-set: one
/// search per minterm (Single-Search-Single-Pattern, §II-D).
pub fn traditional_searches(cover: &Cover) -> usize {
    cover.on_set.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(cover: &Cover, sol: &Solution) {
        let off = cover.off_set();
        for m in &cover.on_set {
            assert!(
                sol.terms.iter().any(|t| t.covers(m)),
                "ON minterm {m:?} uncovered"
            );
        }
        for m in &off {
            assert!(
                !sol.terms.iter().any(|t| t.covers(m)),
                "OFF minterm {m:?} covered"
            );
        }
    }

    /// The 1-bit full adder's Sum output with (A,B) paired and Cin single:
    /// ON-set {100, 010, 001, 111} → exactly 2 searches (Fig 5d).
    #[test]
    fn full_adder_sum_needs_two_searches() {
        // Position 0: pair (A,B) with value = A*2 + B; position 1: Cin.
        let on = vec![
            vec![0b10, 0], // A=1,B=0,Cin=0
            vec![0b01, 0], // A=0,B=1,Cin=0
            vec![0b00, 1], // A=0,B=0,Cin=1
            vec![0b11, 1], // A=1,B=1,Cin=1
        ];
        let cover = Cover::new(vec![PosKind::Pair, PosKind::Single], on);
        let sol = minimize(&cover);
        verify(&cover, &sol);
        assert_eq!(sol.num_searches(), 2);
        assert_eq!(traditional_searches(&cover), 4);
    }

    /// The Cout output: ON-set {110, 101, 011, 111} → 2 searches (Fig 5d).
    #[test]
    fn full_adder_cout_needs_two_searches() {
        let on = vec![
            vec![0b11, 0], // A=1,B=1,Cin=0
            vec![0b10, 1], // A=1,Cin=1 (B=0)
            vec![0b01, 1], // B=1,Cin=1 (A=0)
            vec![0b11, 1], // A=1,B=1,Cin=1
        ];
        let cover = Cover::new(vec![PosKind::Pair, PosKind::Single], on);
        let sol = minimize(&cover);
        verify(&cover, &sol);
        assert_eq!(sol.num_searches(), 2);
    }

    /// Fig 11: with (A,B) and (C,D) paired, ON-set
    /// {1000, 0100, 1011, 0111} needs one search; with the bad pairing
    /// (A,C),(B,D) it needs four.
    #[test]
    fn fig11_pairing_sensitivity() {
        // Good pairing: pos0 = (A,B), pos1 = (C,D).
        let good = Cover::new(
            vec![PosKind::Pair, PosKind::Pair],
            vec![
                vec![0b10, 0b00],
                vec![0b01, 0b00],
                vec![0b10, 0b11],
                vec![0b01, 0b11],
            ],
        );
        let sol = minimize(&good);
        verify(&good, &sol);
        assert_eq!(sol.num_searches(), 1);

        // Bad pairing: pos0 = (A,C), pos1 = (B,D).
        // Minterm ABCD: A=a,B=b,C=c,D=d -> pos0 = a*2+c, pos1 = b*2+d.
        let bad = Cover::new(
            vec![PosKind::Pair, PosKind::Pair],
            vec![
                vec![0b10, 0b00], // 1000
                vec![0b00, 0b10], // 0100
                vec![0b11, 0b01], // 1011
                vec![0b01, 0b11], // 0111
            ],
        );
        let sol = minimize(&bad);
        verify(&bad, &sol);
        assert_eq!(sol.num_searches(), 4);
    }

    #[test]
    fn empty_on_set_needs_no_searches() {
        let cover = Cover::new(vec![PosKind::Pair], vec![]);
        assert_eq!(minimize(&cover).num_searches(), 0);
    }

    #[test]
    fn full_space_is_one_masked_search() {
        let on: Vec<Vec<u8>> = (0..4)
            .flat_map(|p| (0..2).map(move |s| vec![p, s]))
            .collect();
        let cover = Cover::new(vec![PosKind::Pair, PosKind::Single], on);
        let sol = minimize(&cover);
        verify(&cover, &sol);
        assert_eq!(sol.num_searches(), 1);
        assert_eq!(sol.terms[0].subsets[0], PosKind::Pair.full());
    }

    #[test]
    fn dc_set_can_shrink_cover() {
        // ON = {0}, DC = {1,2,3} over one pair: a single full-subset term.
        let mut cover = Cover::new(vec![PosKind::Pair], vec![vec![0]]);
        cover.dc_set = vec![vec![1], vec![2], vec![3]];
        let sol = minimize(&cover);
        assert_eq!(sol.num_searches(), 1);
        assert_eq!(sol.terms[0].subsets[0], PairSubset(0b1111));
    }

    #[test]
    fn xor_of_two_pairs() {
        // Output = (pair0 value parity) XOR (pair1 value parity):
        // a worst-case-ish function still solvable with few MV terms.
        let mut on = Vec::new();
        for p0 in 0u8..4 {
            for p1 in 0u8..4 {
                let parity = (p0.count_ones() + p1.count_ones()) % 2;
                if parity == 1 {
                    on.push(vec![p0, p1]);
                }
            }
        }
        let cover = Cover::new(vec![PosKind::Pair, PosKind::Pair], on);
        let sol = minimize(&cover);
        verify(&cover, &sol);
        // Subsets {odd values} × {even values} and vice versa: 2 terms.
        assert_eq!(sol.num_searches(), 2);
    }

    #[test]
    fn single_bit_positions_behave_like_binary_sop() {
        // Majority of three single bits: classic 3-term SOP... but MV subsets
        // over single bits are just {0},{1},{0,1}, so the result matches
        // binary prime implicants: ab + ac + bc -> 3 terms.
        let on = vec![vec![1, 1, 0], vec![1, 0, 1], vec![0, 1, 1], vec![1, 1, 1]];
        let cover = Cover::new(vec![PosKind::Single; 3], on);
        let sol = minimize(&cover);
        verify(&cover, &sol);
        assert_eq!(sol.num_searches(), 3);
    }

    #[test]
    fn minimized_never_worse_than_traditional() {
        // Pseudo-random ON-sets over (pair, pair, single).
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        for _ in 0..20 {
            let mut on = Vec::new();
            for p0 in 0u8..4 {
                for p1 in 0u8..4 {
                    for s in 0u8..2 {
                        if next() % 3 == 0 {
                            on.push(vec![p0, p1, s]);
                        }
                    }
                }
            }
            let cover = Cover::new(vec![PosKind::Pair, PosKind::Pair, PosKind::Single], on);
            let sol = minimize(&cover);
            verify(&cover, &sol);
            assert!(sol.num_searches() <= traditional_searches(&cover).max(1));
        }
    }
}
