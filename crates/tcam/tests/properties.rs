//! Property-based tests: the device-level 2D2R crossbar model is
//! observationally equivalent to the fast functional TCAM model, and the
//! encoding algebra is consistent with brute-force evaluation.

use hyperap_tcam::array::TcamArray;
use hyperap_tcam::bit::{KeyBit, TernaryBit};
use hyperap_tcam::device::DeviceTcam;
use hyperap_tcam::encoding::{encode_pair, key_coverage, key_for_subset, PairSubset};
use hyperap_tcam::key::SearchKey;
use hyperap_tcam::tags::TagVector;
use proptest::prelude::*;

fn ternary_bit() -> impl Strategy<Value = TernaryBit> {
    prop_oneof![
        Just(TernaryBit::Zero),
        Just(TernaryBit::One),
        Just(TernaryBit::X)
    ]
}

fn key_bit() -> impl Strategy<Value = KeyBit> {
    prop_oneof![
        Just(KeyBit::Zero),
        Just(KeyBit::One),
        Just(KeyBit::Z),
        Just(KeyBit::Masked)
    ]
}

proptest! {
    #[test]
    fn device_equals_functional_search(
        words in prop::collection::vec(prop::collection::vec(ternary_bit(), 6), 1..20),
        key_bits in prop::collection::vec(key_bit(), 6),
    ) {
        let rows = words.len();
        let mut dev = DeviceTcam::new(rows, 6);
        let mut fun = TcamArray::new(rows, 6);
        for (r, w) in words.iter().enumerate() {
            dev.store_word(r, w);
            fun.store_word(r, w);
        }
        let key = SearchKey::from_bits(key_bits);
        let dt = dev.search(&key);
        let ft = fun.search(&key);
        for r in 0..rows {
            prop_assert_eq!(dt.get(r), ft.get(r), "row {}", r);
        }
    }

    #[test]
    fn device_equals_functional_after_write(
        words in prop::collection::vec(prop::collection::vec(ternary_bit(), 5), 1..12),
        write_bits in prop::collection::vec(key_bit(), 5),
        tag_bools in prop::collection::vec(any::<bool>(), 12),
        probe_bits in prop::collection::vec(key_bit(), 5),
    ) {
        let rows = words.len();
        let mut dev = DeviceTcam::new(rows, 5);
        let mut fun = TcamArray::new(rows, 5);
        for (r, w) in words.iter().enumerate() {
            dev.store_word(r, w);
            fun.store_word(r, w);
        }
        let tags = TagVector::from_bools(tag_bools[..rows].iter().copied());
        let wkey = SearchKey::from_bits(write_bits);
        dev.write(&wkey, &tags);
        fun.write(&wkey, &tags);
        // States must agree cell by cell...
        for r in 0..rows {
            for c in 0..5 {
                prop_assert_eq!(dev.read_bit(r, c), fun.cell(r, c));
            }
        }
        // ...and observationally under an arbitrary probe search.
        let probe = SearchKey::from_bits(probe_bits);
        let dt = dev.search(&probe);
        let ft = fun.search(&probe);
        for r in 0..rows {
            prop_assert_eq!(dt.get(r), ft.get(r));
        }
    }

    #[test]
    fn search_never_tags_nonmatching_word(
        word in prop::collection::vec(ternary_bit(), 8),
        key_bits in prop::collection::vec(key_bit(), 8),
    ) {
        let mut a = TcamArray::new(1, 8);
        a.store_word(0, &word);
        let key = SearchKey::from_bits(key_bits.clone());
        let tagged = a.search(&key).get(0);
        let expected = key_bits.iter().zip(&word).all(|(k, w)| k.matches(*w));
        prop_assert_eq!(tagged, expected);
    }

    #[test]
    fn key_for_subset_round_trips(mask in 1u8..16) {
        let subset = PairSubset(mask);
        let key = key_for_subset(subset).unwrap();
        prop_assert_eq!(key_coverage(key), subset);
    }

    #[test]
    fn coverage_matches_bruteforce(k1 in key_bit(), k0 in key_bit()) {
        let cov = key_coverage([k1, k0]);
        for v in 0u8..4 {
            let enc = encode_pair(v & 2 != 0, v & 1 != 0);
            let matched = k1.matches(enc[0]) && k0.matches(enc[1]);
            prop_assert_eq!(cov.contains(v), matched);
        }
    }

    #[test]
    fn write_then_exact_search_tags_written_rows(
        rows in 2usize..40,
        value in 0u64..32,
    ) {
        let mut a = TcamArray::new(rows, 5);
        // Write `value` into even rows via the associative write path.
        let tags = TagVector::from_bools((0..rows).map(|r| r % 2 == 0));
        let mut key = SearchKey::masked(5);
        key.set_field(0, 5, value);
        a.write(&key, &tags);
        let result = a.search(&key);
        for r in (0..rows).step_by(2) {
            prop_assert!(result.get(r));
        }
        // Odd rows hold the initial all-zero word; they match iff value == 0.
        if value != 0 {
            for r in (1..rows).step_by(2) {
                prop_assert!(!result.get(r));
            }
        }
    }
}

mod mvsop_properties {
    use hyperap_tcam::mvsop::{minimize, traditional_searches, Cover, PosKind};
    use proptest::prelude::*;

    fn random_cover() -> impl Strategy<Value = Cover> {
        // Two pairs + one single: 32-minterm space.
        prop::collection::vec(any::<bool>(), 32).prop_map(|bits| {
            let mut on = Vec::new();
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    let p0 = (i & 0b11) as u8;
                    let p1 = (i >> 2 & 0b11) as u8;
                    let s = (i >> 4 & 1) as u8;
                    on.push(vec![p0, p1, s]);
                }
            }
            Cover::new(vec![PosKind::Pair, PosKind::Pair, PosKind::Single], on)
        })
    }

    /// Random position-kind mixes with random ON, don't-care and OFF
    /// minterms: Single-only up to 6 positions, free mixes, and Pair-only
    /// spaces up to 4,096 minterms. The don't-care set is never empty.
    fn mixed_cover() -> impl Strategy<Value = Cover> {
        (0usize..3, 1usize..=6, any::<u64>()).prop_map(|(shape, n, seed)| {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let positions: Vec<PosKind> = (0..n)
                .map(|_| match (shape, next() % 4) {
                    (0, _) | (1, 0 | 1) => PosKind::Single,
                    _ => PosKind::Pair,
                })
                .collect();
            let (on_pct, dc_pct) = (1 + next() % 90, 1 + next() % 30);
            let mut on = Vec::new();
            let mut dc = Vec::new();
            let space: usize = positions.iter().map(|p| p.arity() as usize).product();
            let forced_dc = next() as usize % space;
            for x in 0..space {
                let mut rest = x;
                let minterm: Vec<u8> = positions
                    .iter()
                    .map(|p| {
                        let v = (rest % p.arity() as usize) as u8;
                        rest /= p.arity() as usize;
                        v
                    })
                    .collect();
                let roll = next() % 100;
                if x == forced_dc {
                    dc.push(minterm);
                } else if roll < on_pct {
                    on.push(minterm);
                } else if roll < on_pct + dc_pct {
                    dc.push(minterm);
                }
            }
            let mut cover = Cover::new(positions, on);
            cover.dc_set = dc;
            cover
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn minimized_cover_is_exact(cover in mixed_cover()) {
            let sol = minimize(&cover);
            let off = cover.off_set();
            for m in &cover.on_set {
                prop_assert!(sol.terms.iter().any(|t| t.covers(m)),
                             "ON minterm {:?} uncovered", m);
            }
            for m in &off {
                prop_assert!(!sol.terms.iter().any(|t| t.covers(m)),
                             "OFF minterm {:?} covered", m);
            }
            if !cover.on_set.is_empty() {
                prop_assert!(sol.num_searches() <= traditional_searches(&cover));
            }
        }
    }

    proptest! {
        #[test]
        fn minimized_never_exceeds_traditional(cover in random_cover()) {
            let sol = minimize(&cover);
            if !cover.on_set.is_empty() {
                prop_assert!(sol.num_searches() <= traditional_searches(&cover));
                prop_assert!(sol.num_searches() >= 1);
            } else {
                prop_assert_eq!(sol.num_searches(), 0);
            }
        }
    }
}
