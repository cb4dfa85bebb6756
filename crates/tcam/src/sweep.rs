//! Fused-sweep primitives for the slab kernels.
//!
//! The multi-PE [`crate::slab::TcamSlab`] arena executes fused
//! search→write micro-ops as a handful of vectorizable word passes over a
//! window of its bit-plane words. The pass structure lives here, generic
//! over a *column resolver* closure that maps a column index to the
//! `(zero, one)` bit-line slices of the current window:
//!
//! * [`plan_and_into`] — evaluate one search plan as an AND chain directly
//!   in the destination (`dst = match(plan) [& mask]`), consuming plan
//!   entries **two per pass** with the bit-kind dispatch hoisted out of
//!   the word loop.
//! * [`plan_or_into`] — OR a plan's match into already-valid tags
//!   (`dst |= match(plan) [& mask]`). Plans of up to two entries fold the
//!   OR into the narrowing pass itself; longer plans AND their leading
//!   entries in a scratch window and fold the final entry, the row mask,
//!   and the OR into one closing pass.
//!
//! `mask` is the live-lane mask for windows with dead bits (partial PE
//! tail words, or lanes gated by transient search misses). Callers pass
//! `None` when every bit of the window is live, which removes the mask load
//! from every pass.
//!
//! [`enforce_stuck`] is also used by the per-PE
//! [`crate::array::TcamArray`], so both storage backends clamp stuck cells
//! with the same pass.

use crate::bit::KeyBit;

/// How a fused word pass combines its computed match words into `dst`.
#[derive(Clone, Copy)]
pub(crate) enum FillMode {
    /// `dst = f(i) [& mask]` — first pass of an AND chain.
    Init,
    /// `dst &= f(i)` — continuing an AND chain (mask already applied).
    And,
    /// `dst |= f(i) [& mask]` — OR-accumulate a finished match into tags.
    Or,
}

/// One vectorizable word loop: combine `f(i)` into `dst` per `mode`,
/// masking fresh contributions by `mask` when a partial tail block makes
/// some row bits dead. Monomorphizes per call site, so every `(shape,
/// mode)` pair compiles to a branch-free SIMD loop.
#[inline(always)]
fn fill_words(dst: &mut [u64], mode: FillMode, mask: Option<&[u64]>, f: impl Fn(usize) -> u64) {
    let n = dst.len();
    match (mode, mask) {
        (FillMode::Init, None) => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = f(i);
            }
        }
        (FillMode::Init, Some(m)) => {
            let m = &m[..n];
            for (i, d) in dst.iter_mut().enumerate() {
                *d = f(i) & m[i];
            }
        }
        (FillMode::And, _) => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d &= f(i);
            }
        }
        (FillMode::Or, None) => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d |= f(i);
            }
        }
        (FillMode::Or, Some(m)) => {
            let m = &m[..n];
            for (i, d) in dst.iter_mut().enumerate() {
                *d |= f(i) & m[i];
            }
        }
    }
}

/// Match words of a single plan entry, dispatched once per pass (never
/// per word): a cell matches unless the opposing bit-line is programmed.
#[inline(always)]
fn fill_entry(
    dst: &mut [u64],
    mode: FillMode,
    mask: Option<&[u64]>,
    bit: KeyBit,
    z: &[u64],
    o: &[u64],
) {
    let n = dst.len();
    let (z, o) = (&z[..n], &o[..n]);
    match bit {
        KeyBit::Zero => fill_words(dst, mode, mask, |i| !o[i]),
        KeyBit::One => fill_words(dst, mode, mask, |i| !z[i]),
        KeyBit::Z => fill_words(dst, mode, mask, |i| !(z[i] | o[i])),
        KeyBit::Masked => unreachable!("masked entries are filtered out"),
    }
}

/// Match words of two plan entries ANDed in one pass — the workhorse of
/// the fused kernels: a two-entry plan narrows (or OR-accumulates) in a
/// single sweep instead of init + narrow (+ OR).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fill_entry_pair(
    dst: &mut [u64],
    mode: FillMode,
    mask: Option<&[u64]>,
    b1: KeyBit,
    z1: &[u64],
    o1: &[u64],
    b2: KeyBit,
    z2: &[u64],
    o2: &[u64],
) {
    let n = dst.len();
    let (z1, o1, z2, o2) = (&z1[..n], &o1[..n], &z2[..n], &o2[..n]);
    use KeyBit::{One, Zero, Z};
    match (b1, b2) {
        (Zero, Zero) => fill_words(dst, mode, mask, |i| !o1[i] & !o2[i]),
        (Zero, One) => fill_words(dst, mode, mask, |i| !o1[i] & !z2[i]),
        (Zero, Z) => fill_words(dst, mode, mask, |i| !o1[i] & !(z2[i] | o2[i])),
        (One, Zero) => fill_words(dst, mode, mask, |i| !z1[i] & !o2[i]),
        (One, One) => fill_words(dst, mode, mask, |i| !z1[i] & !z2[i]),
        (One, Z) => fill_words(dst, mode, mask, |i| !z1[i] & !(z2[i] | o2[i])),
        (Z, Zero) => fill_words(dst, mode, mask, |i| !(z1[i] | o1[i]) & !o2[i]),
        (Z, One) => fill_words(dst, mode, mask, |i| !(z1[i] | o1[i]) & !z2[i]),
        (Z, Z) => fill_words(dst, mode, mask, |i| !(z1[i] | o1[i]) & !(z2[i] | o2[i])),
        (KeyBit::Masked, _) | (_, KeyBit::Masked) => {
            unreachable!("masked entries are filtered out")
        }
    }
}

/// Evaluate one plan's match as an AND chain directly in `dst`
/// (`dst = match(plan) [& mask]`), consuming entries two per pass. An
/// empty (or fully masked) plan matches every live row. `col` resolves a
/// column index to its `(zero, one)` bit-line slices for the window;
/// entries with out-of-range columns (≥ `ncols`) or masked bits are
/// skipped.
#[inline]
pub(crate) fn plan_and_into<'a>(
    dst: &mut [u64],
    plan: &[(usize, KeyBit)],
    ncols: usize,
    col: &impl Fn(usize) -> (&'a [u64], &'a [u64]),
    mask: Option<&[u64]>,
) {
    let n = dst.len();
    let mut it = plan
        .iter()
        .filter(|&&(c, b)| c < ncols && b != KeyBit::Masked)
        .copied();
    let mut first = true;
    while let Some((c1, b1)) = it.next() {
        let (z1, o1) = col(c1);
        let (mode, m) = if first {
            (FillMode::Init, mask)
        } else {
            (FillMode::And, None)
        };
        match it.next() {
            Some((c2, b2)) => {
                let (z2, o2) = col(c2);
                fill_entry_pair(dst, mode, m, b1, z1, o1, b2, z2, o2);
            }
            None => fill_entry(dst, mode, m, b1, z1, o1),
        }
        first = false;
    }
    if first {
        match mask {
            Some(m) => dst.copy_from_slice(&m[..n]),
            None => dst.fill(!0),
        }
    }
}

/// Narrow `dst` in place by one plan's entries (`dst &= match(plan)`), two
/// per pass, with no initialization and no mask — the incremental
/// (`SearchDelta`) form of [`plan_and_into`]: sound when `dst` already
/// holds a valid match whose dead lanes are zero, since narrowing only
/// clears bits. Out-of-range or masked entries are skipped; an empty plan
/// leaves `dst` untouched.
#[inline]
pub(crate) fn plan_narrow<'a>(
    dst: &mut [u64],
    plan: &[(usize, KeyBit)],
    ncols: usize,
    col: &impl Fn(usize) -> (&'a [u64], &'a [u64]),
) {
    let mut it = plan
        .iter()
        .filter(|&&(c, b)| c < ncols && b != KeyBit::Masked)
        .copied();
    while let Some((c1, b1)) = it.next() {
        let (z1, o1) = col(c1);
        match it.next() {
            Some((c2, b2)) => {
                let (z2, o2) = col(c2);
                fill_entry_pair(dst, FillMode::And, None, b1, z1, o1, b2, z2, o2);
            }
            None => fill_entry(dst, FillMode::And, None, b1, z1, o1),
        }
    }
}

/// Force a column's bit-lines to agree with its backing device's stuck
/// masks: stuck-at-0 cells read `0` (`is_zero` set), stuck-at-1 cells read
/// `1` (`is_one` set), whatever was last written. One pass over the
/// window, shared by both storage backends; idempotent, so the fused slab
/// kernels may run it once per written column at kernel end.
#[inline]
pub(crate) fn enforce_stuck(zero: &mut [u64], one: &mut [u64], s0: &[u64], s1: &[u64]) {
    let n = zero.len();
    let (s0, s1) = (&s0[..n], &s1[..n]);
    for i in 0..n {
        let s = s0[i] | s1[i];
        zero[i] = (zero[i] & !s) | s0[i];
        one[i] = (one[i] & !s) | s1[i];
    }
}

/// OR one plan's match into `dst` (`dst |= match(plan) [& mask]`). Plans
/// of up to two entries fold the OR into the narrowing pass itself; longer
/// plans AND all but the last entry in `scratch` and fold the final entry
/// plus the OR into one closing pass.
#[inline]
pub(crate) fn plan_or_into<'a>(
    dst: &mut [u64],
    scratch: &mut [u64],
    plan: &[(usize, KeyBit)],
    ncols: usize,
    col: &impl Fn(usize) -> (&'a [u64], &'a [u64]),
    mask: Option<&[u64]>,
) {
    let n = dst.len();
    let live = |&&(c, b): &&(usize, KeyBit)| c < ncols && b != KeyBit::Masked;
    let count = plan.iter().filter(live).count();
    let mut it = plan.iter().filter(live).copied();
    match count {
        0 => match mask {
            Some(m) => {
                for (d, m) in dst.iter_mut().zip(&m[..n]) {
                    *d |= m;
                }
            }
            None => dst.fill(!0),
        },
        1 => {
            let (c1, b1) = it.next().expect("count == 1");
            let (z1, o1) = col(c1);
            fill_entry(dst, FillMode::Or, mask, b1, z1, o1);
        }
        2 => {
            let (c1, b1) = it.next().expect("count == 2");
            let (c2, b2) = it.next().expect("count == 2");
            let (z1, o1) = col(c1);
            let (z2, o2) = col(c2);
            fill_entry_pair(dst, FillMode::Or, mask, b1, z1, o1, b2, z2, o2);
        }
        _ => {
            // AND the leading entries in scratch, then fold the last entry,
            // the row mask, and the OR into a single closing pass.
            let mut remaining = count - 1;
            let mut first = true;
            while remaining > 0 {
                let (c1, b1) = it.next().expect("lead entries remain");
                let (z1, o1) = col(c1);
                let mode = if first { FillMode::Init } else { FillMode::And };
                if remaining >= 2 {
                    let (c2, b2) = it.next().expect("lead entries remain");
                    let (z2, o2) = col(c2);
                    fill_entry_pair(scratch, mode, None, b1, z1, o1, b2, z2, o2);
                    remaining -= 2;
                } else {
                    fill_entry(scratch, mode, None, b1, z1, o1);
                    remaining -= 1;
                }
                first = false;
            }
            let (cl, bl) = it.next().expect("count - 1 entries consumed");
            let (z, o) = col(cl);
            let (z, o) = (&z[..n], &o[..n]);
            let s = &scratch[..n];
            match bl {
                KeyBit::Zero => fill_words(dst, FillMode::Or, mask, |i| s[i] & !o[i]),
                KeyBit::One => fill_words(dst, FillMode::Or, mask, |i| s[i] & !z[i]),
                KeyBit::Z => fill_words(dst, FillMode::Or, mask, |i| s[i] & !(z[i] | o[i])),
                KeyBit::Masked => unreachable!("masked entries are filtered out"),
            }
        }
    }
}
