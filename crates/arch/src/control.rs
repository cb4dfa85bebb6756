//! Group-controller semantics shared by both machines.
//!
//! [`crate::ApMachine`] keeps one [`hyperap_core::machine::HyperPe`] per
//! PE; [`crate::SlabMachine`] keeps multi-PE slab chunks. Each machine owns
//! the loops over its own storage, but every rule of the synchronization
//! points that does not depend on the storage layout is written here once:
//!
//! * which PEs of a group a `Broadcast` bank mask leaves active
//!   ([`ActiveSet`]);
//! * where `MovR` moves each data register ([`mov_r`]);
//! * which PE a `ReadR`/`WriteR` addresses ([`reg_pe`], [`write_target`]);
//! * how a `WriteR` immediate decodes into a register ([`decode_reg`]);
//! * the empty [`RunStats`] a run starts from ([`new_run_stats`]).

use crate::config::ArchConfig;
use crate::stats::{RunGeometry, RunStats};
use hyperap_isa::lower::BROADCAST_ADDR;
use hyperap_isa::Direction;
use hyperap_model::timing::OpCounts;
use hyperap_tcam::tags::TagVector;

/// A group's cached active-PE set (the bank-mask filter evaluated once, not
/// once per instruction). Only `Broadcast` rewrites the bank mask, so only
/// `Broadcast` invalidates.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActiveSet {
    /// One flag per PE of the group, indexed relative to the group base.
    pub(crate) mask: Vec<bool>,
    /// Number of set flags.
    pub(crate) count: usize,
    /// False until (re)computed; cleared by `Broadcast`.
    pub(crate) valid: bool,
}

impl ActiveSet {
    /// Recompute the flags for one group if a `Broadcast` invalidated them.
    pub(crate) fn refresh(&mut self, config: &ArchConfig, group: usize, bank_mask: u8) {
        if self.valid {
            return;
        }
        let per = config.pes_per_group();
        let base = group * per;
        self.mask.clear();
        self.mask.resize(per, false);
        self.count = 0;
        for i in 0..per {
            let bank = config.bank_of(base + i);
            let on = bank >= 8 || bank_mask >> bank & 1 == 1;
            self.mask[i] = on;
            self.count += usize::from(on);
        }
        self.valid = true;
    }
}

/// One register move of a group's `MovR`, emitted by [`mov_r`] in the
/// order the machine must apply them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MovStep {
    /// Copy PE `pe`'s data register into snapshot slot `slot` (the PE's
    /// group-relative index).
    Snapshot { slot: usize, pe: usize },
    /// Zero PE `pe`'s data register: it is active but nothing pushes to it.
    Clear { pe: usize },
    /// Copy snapshot slot `slot` into PE `dest`'s data register.
    Land { slot: usize, dest: usize },
}

/// The mesh neighbor of `pe` in direction `dir`, if the mesh has one.
fn neighbor(pe: usize, dir: Direction, (h, w): (usize, usize)) -> Option<usize> {
    let (r, c) = (pe / w, pe % w);
    match dir {
        Direction::Up => (r > 0).then(|| pe - w),
        Direction::Down => (r + 1 < h).then(|| pe + w),
        Direction::Left => (c > 0).then(|| pe - 1),
        Direction::Right => (c + 1 < w).then(|| pe + 1),
    }
}

/// The direction a `MovR` in `dir` receives from.
fn opposite(dir: Direction) -> Direction {
    match dir {
        Direction::Up => Direction::Down,
        Direction::Down => Direction::Up,
        Direction::Left => Direction::Right,
        Direction::Right => Direction::Left,
    }
}

/// `MovR` for one group, as a sequence of register moves handed to
/// `apply`: every active PE *pushes* its data register to the mesh neighbor
/// in `dir` (the paper: "reads the value in the data register of one PE and
/// stores it into the data register of its adjacent PE" — the destination
/// may belong to another group, which is how cross-group handoffs work
/// under `Wait` synchronization). Active PEs whose upstream neighbor is not
/// an active PE of the same group shift zeros in, like a hardware shift
/// chain.
///
/// Snapshot semantics: every pushing register is snapshotted first, then
/// the zero-fills land, then the pushes — so a register that is both read
/// and overwritten contributes its old value.
pub(crate) fn mov_r(
    config: &ArchConfig,
    group: usize,
    mask: &[bool],
    dir: Direction,
    mut apply: impl FnMut(MovStep),
) {
    let dims = config.mesh_dims();
    let per = config.pes_per_group();
    let base = group * per;
    let total = config.total_pes();
    let active = || (0..per).filter(|&i| mask[i]);
    for i in active() {
        apply(MovStep::Snapshot {
            slot: i,
            pe: base + i,
        });
    }
    for i in active() {
        let pe = base + i;
        let pushing = neighbor(pe, opposite(dir), dims)
            .is_some_and(|u| u >= base && u < base + per && mask[u - base]);
        if !pushing {
            apply(MovStep::Clear { pe });
        }
    }
    for i in active() {
        if let Some(dest) = neighbor(base + i, dir, dims).filter(|&d| d < total) {
            apply(MovStep::Land { slot: i, dest });
        }
    }
}

/// The PE a `ReadR`/`WriteR` address selects: addresses past the last PE
/// clamp to it.
pub(crate) fn reg_pe(addr: u32, total_pes: usize) -> usize {
    (addr as usize).min(total_pes - 1)
}

/// Where a `WriteR` stores its immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteTarget {
    /// [`BROADCAST_ADDR`]: every active PE of the issuing group.
    Group,
    /// One PE, resolved by [`reg_pe`].
    Pe(usize),
}

/// Resolve a `WriteR` address.
pub(crate) fn write_target(addr: u32, total_pes: usize) -> WriteTarget {
    if addr == BROADCAST_ADDR {
        WriteTarget::Group
    } else {
        WriteTarget::Pe(reg_pe(addr, total_pes))
    }
}

/// Decode a `WriteR` immediate (little-endian byte image) into `out`; rows
/// beyond the image read as zero.
pub(crate) fn decode_reg(bytes: &[u8], out: &mut TagVector) {
    out.clear();
    for row in 0..out.len() {
        let byte = bytes.get(row / 8).copied().unwrap_or(0);
        if byte >> (row % 8) & 1 == 1 {
            out.set(row, true);
        }
    }
}

/// The `RunStats` a run of `groups` groups starts from: zero cycles and
/// counts, no reduction results, no health rows.
pub(crate) fn new_run_stats(groups: usize, geometry: Option<RunGeometry>) -> RunStats {
    RunStats {
        group_cycles: vec![0; groups],
        group_ops: vec![OpCounts::default(); groups],
        count_results: vec![Vec::new(); groups],
        index_results: vec![Vec::new(); groups],
        pe_health: Vec::new(),
        geometry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movr_routes_follow_the_mesh() {
        // 3×3 mesh, PE 4 in the middle.
        let dims = (3, 3);
        assert_eq!(neighbor(4, Direction::Up, dims), Some(1));
        assert_eq!(neighbor(4, Direction::Down, dims), Some(7));
        assert_eq!(neighbor(4, Direction::Left, dims), Some(3));
        assert_eq!(neighbor(4, Direction::Right, dims), Some(5));
        // Edges have no neighbor beyond them; the receive side of every
        // move is the reverse of its send side.
        assert_eq!(neighbor(0, Direction::Up, dims), None);
        assert_eq!(neighbor(0, Direction::Left, dims), None);
        assert_eq!(neighbor(8, Direction::Down, dims), None);
        assert_eq!(neighbor(8, Direction::Right, dims), None);
        for dir in [
            Direction::Up,
            Direction::Down,
            Direction::Left,
            Direction::Right,
        ] {
            for pe in 0..9 {
                if let Some(d) = neighbor(pe, dir, dims) {
                    assert_eq!(neighbor(d, opposite(dir), dims), Some(pe));
                }
            }
        }
    }

    #[test]
    fn register_targets_clamp_and_broadcast() {
        assert_eq!(reg_pe(3, 8), 3);
        assert_eq!(reg_pe(100, 8), 7);
        assert_eq!(write_target(BROADCAST_ADDR, 8), WriteTarget::Group);
        assert_eq!(write_target(9, 8), WriteTarget::Pe(7));
    }
}
