//! Bit-plane layout helpers: the 64×64 bit transpose from the per-PE
//! row-block layout of [`crate::array::TcamArray`] into the slab's PE-major
//! word planes.
//!
//! The slab arenas ([`crate::slab::TcamSlab`], [`crate::slab::TagSlab`])
//! store one *cell position* across 64 PEs per `u64` word — bit `p` of a
//! plane word is PE `p`'s bit for that row. Reference arrays keep 64-*row*
//! blocks per PE, so [`crate::slab::TcamSlab::from_arrays`] transposes
//! tile-wise with the Hacker's Delight in-register 64×64 transpose, which
//! keeps whole-slab conversions O(words) instead of O(bits). The checkpoint
//! plane images store the planes as they are and need no transpose.

/// In-place 64×64 bit-matrix transpose with LSB-first indexing: on return,
/// bit `i` of word `j` is the input's bit `j` of word `i`.
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Convert per-PE row-blocks `[pe][block]` into a `[row][pe_word]` plane.
/// Input bits at row positions
/// `>= rows` in a PE's last block are ignored; output PE-padding bits are
/// zero.
pub(crate) fn pe_major_to_plane(words: &[u64], rows: usize, pes: usize) -> Vec<u64> {
    let pw = pes.div_ceil(64);
    let bpp = rows.div_ceil(64);
    assert_eq!(words.len(), pes * bpp, "pe-major word count mismatch");
    let mut plane = vec![0u64; rows * pw];
    let mut tile = [0u64; 64];
    let row_tail = if !rows.is_multiple_of(64) {
        (1u64 << (rows % 64)) - 1
    } else {
        !0
    };
    for rb in 0..bpp {
        let rn = 64.min(rows - rb * 64);
        let keep = if rb == bpp - 1 { row_tail } else { !0 };
        for pb in 0..pw {
            let pn = 64.min(pes - pb * 64);
            for (j, t) in tile.iter_mut().enumerate() {
                *t = if j < pn {
                    words[(pb * 64 + j) * bpp + rb] & keep
                } else {
                    0
                };
            }
            transpose64(&mut tile);
            for (i, t) in tile.iter().take(rn).enumerate() {
                plane[(rb * 64 + i) * pw + pb] = *t;
            }
        }
    }
    plane
}

/// Read one bit of a `[row][pe_word]` plane.
#[cfg(test)]
pub(crate) fn get_bit(plane: &[u64], pw: usize, row: usize, pe: usize) -> bool {
    plane[row * pw + pe / 64] >> (pe % 64) & 1 != 0
}

/// Write one bit of a `[row][pe_word]` plane.
#[cfg(test)]
pub(crate) fn set_bit(plane: &mut [u64], pw: usize, row: usize, pe: usize, value: bool) {
    let (w, m) = (row * pw + pe / 64, 1u64 << (pe % 64));
    if value {
        plane[w] |= m;
    } else {
        plane[w] &= !m;
    }
}

/// All-live PE mask: `pes.div_ceil(64)` words with bits `0..pes` set.
pub(crate) fn pe_mask(pes: usize) -> Vec<u64> {
    let pw = pes.div_ceil(64);
    let mut m = vec![!0u64; pw];
    if !pes.is_multiple_of(64) {
        m[pw - 1] = (1u64 << (pes % 64)) - 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_orientation_matches_scalar_gather() {
        // Deterministic mixed pattern; check bit (j, i) lands at (i, j).
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (1u64 << (i % 64));
        }
        let orig = a;
        transpose64(&mut a);
        for (i, ow) in orig.iter().enumerate() {
            for (j, aw) in a.iter().enumerate() {
                assert_eq!(aw >> i & 1, ow >> j & 1, "bit ({i}, {j}) misplaced");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "transpose is an involution");
    }

    #[test]
    fn plane_round_trips_for_ragged_geometries() {
        for (rows, pes) in [
            (1usize, 1usize),
            (64, 64),
            (70, 5),
            (33, 67),
            (130, 96),
            (64, 130),
        ] {
            let pw = pes.div_ceil(64);
            let mut plane = vec![0u64; rows * pw];
            for row in 0..rows {
                for pe in 0..pes {
                    set_bit(&mut plane, pw, row, pe, (row * 31 + pe * 7) % 3 == 0);
                }
            }
            // Per-PE row-blocks by the scalar definition.
            let bpp = rows.div_ceil(64);
            let mut pm = vec![0u64; pes * bpp];
            for pe in 0..pes {
                for row in 0..rows {
                    if get_bit(&plane, pw, row, pe) {
                        pm[pe * bpp + row / 64] |= 1u64 << (row % 64);
                    }
                }
            }
            assert_eq!(
                pe_major_to_plane(&pm, rows, pes),
                plane,
                "rows {rows} pes {pes}"
            );
        }
    }

    #[test]
    fn conversions_scrub_padding() {
        // Row-tail garbage in pe-major input must not leak into the plane.
        let (rows, pes) = (70usize, 5usize);
        let bpp = rows.div_ceil(64);
        let plane = pe_major_to_plane(&vec![!0u64; pes * bpp], rows, pes);
        assert_eq!(plane.len(), rows, "one word per row");
        for w in &plane {
            assert_eq!(*w, (1u64 << pes) - 1, "PE padding must stay clear");
        }
    }

    #[test]
    fn pe_mask_covers_exactly_the_live_pes() {
        assert_eq!(pe_mask(64), vec![!0u64]);
        assert_eq!(pe_mask(1), vec![1]);
        assert_eq!(pe_mask(65), vec![!0, 1]);
        assert_eq!(pe_mask(96), vec![!0, 0xFFFF_FFFF]);
    }
}
