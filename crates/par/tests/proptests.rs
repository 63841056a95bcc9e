//! Property tests for the deterministic runtime: `par_reduce` against the
//! serial fold for associative operations, order preservation of
//! `par_map` and `stream`, and thread-count invariance of floating-point
//! reductions.

use ls_par::{par_map, par_reduce, stream, tree_reduce, with_threads};
use proptest::prelude::*;

proptest! {
    /// For associative combines, the fixed tree equals the serial fold.
    #[test]
    fn par_reduce_matches_serial_fold_wrapping_add(
        v in proptest::collection::vec(0u64..u64::MAX, 0..200),
        t in 1usize..6,
    ) {
        let tree = with_threads(t, || par_reduce(&v, |_, &x| x, u64::wrapping_add));
        let fold = v.iter().copied().reduce(u64::wrapping_add);
        prop_assert_eq!(tree, fold);
    }

    /// Concatenation (associative, order-sensitive): the tree must both
    /// match the fold and preserve item order.
    #[test]
    fn par_reduce_matches_serial_fold_concat(
        v in proptest::collection::vec(0u32..1000, 0..60),
        t in 1usize..6,
    ) {
        let tree = with_threads(t, || {
            par_reduce(
                &v,
                |_, &x| vec![x],
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
        });
        if v.is_empty() {
            prop_assert!(tree.is_none());
        } else {
            prop_assert_eq!(tree.unwrap(), v);
        }
    }

    /// Float sums: not associative, so the tree need not equal the serial
    /// fold — but it must be bit-identical across thread counts.
    #[test]
    fn par_reduce_float_bits_invariant_to_threads(
        v in proptest::collection::vec(0u32..1_000_000, 1..120),
    ) {
        let vals: Vec<f64> = v.iter().map(|&x| f64::from(x) * 1e-5 + 0.1).collect();
        let run = |t: usize| {
            with_threads(t, || par_reduce(&vals, |_, &x| x, |a, b| a + b).unwrap())
        };
        let base = run(1).to_bits();
        for t in [2, 3, 5] {
            prop_assert_eq!(run(t).to_bits(), base);
        }
    }

    /// `par_map` output equals serial map at any thread count.
    #[test]
    fn par_map_equals_serial_map(
        v in proptest::collection::vec(0i64..10_000, 0..300),
        t in 1usize..6,
    ) {
        let serial: Vec<i64> = v.iter().map(|&x| x * 7 - 3).collect();
        let parallel = with_threads(t, || par_map(&v, |_, &x| x * 7 - 3));
        prop_assert_eq!(parallel, serial);
    }

    /// The tree shape is a pure function of length: reducing index
    /// singletons reconstructs 0..n in order for every n.
    #[test]
    fn tree_reduce_is_an_ordered_partition(n in 0usize..100) {
        let leaves: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let out = tree_reduce(leaves, |mut a, b| {
            a.extend(b);
            a
        });
        match out {
            None => prop_assert_eq!(n, 0),
            Some(v) => prop_assert_eq!(v, (0..n).collect::<Vec<_>>()),
        }
    }

    /// `stream` returns every item's result in emission order, the same at
    /// one, two and four threads, whatever each item costs to consume.
    #[test]
    fn stream_results_are_in_emission_order_at_any_width(
        v in proptest::collection::vec(0u32..2_000, 0..64),
    ) {
        let run = |t: usize| {
            with_threads(t, || {
                stream(
                    |emit| v.iter().for_each(|&x| emit(x)),
                    |i, x| {
                        // Uneven cost: x rounds of a hash chain.
                        let h = (0..x).fold(u64::from(x), |h, r| {
                            (h ^ u64::from(r)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        });
                        (i, x, h)
                    },
                )
            })
        };
        let serial = run(1);
        prop_assert_eq!(serial.len(), v.len());
        for (i, (&(idx, x, _), &want)) in serial.iter().zip(&v).enumerate() {
            prop_assert_eq!(idx, i);
            prop_assert_eq!(x, want);
        }
        for t in [2, 4] {
            prop_assert_eq!(run(t), serial.clone());
        }
    }
}
