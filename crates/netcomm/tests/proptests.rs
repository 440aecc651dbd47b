//! Property tests of the mesh's one collective on real loopback sockets:
//! the allreduce sums, every rank holds the same bits, and fusing
//! segments into one payload never changes a bit — so a solver that
//! packs its Gram triangle, cross terms and scalars into one buffer gets
//! exactly what it would from one reduction per segment.

use netcomm::cluster::run_local;
use proptest::prelude::*;

/// Rank `rank`'s partial: `words` values spread over several binades, so
/// the summation order is observable in the bits.
fn partial(seed: u64, rank: usize, words: usize) -> Vec<f64> {
    (0..words)
        .map(|i| {
            let k = seed.wrapping_add((rank * 7919 + i * 104_729) as u64) % 1_000_003;
            (k as f64 - 500_000.0) * 1e-3 / (1 + i % 5) as f64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allreduce really sums, for any payload and rank count, and the
    /// result is identical on every rank.
    #[test]
    fn allreduce_sums_correctly(p in 1usize..7, words in 1usize..200, seed in any::<u64>()) {
        let results = run_local(p, |rank, comm| {
            let mine = partial(seed, rank, words);
            let reduced = comm.allreduce_sum(mine.clone()).expect("reduce");
            (mine, reduced)
        });
        let mut expect = vec![0.0f64; words];
        for (mine, _) in &results {
            for (e, v) in expect.iter_mut().zip(mine) {
                *e += v;
            }
        }
        let first = &results[0].1;
        for (_, reduced) in &results {
            prop_assert_eq!(reduced, first, "ranks disagree");
        }
        for (r, e) in first.iter().zip(&expect) {
            prop_assert!((r - e).abs() < 1e-9 * (1.0 + e.abs()), "{r} vs {e}");
        }
    }

    /// The fused single-buffer allreduce is **bitwise** equal to reducing
    /// each segment with its own allreduce, for any segment split, at
    /// every rank count the solvers use.
    #[test]
    fn fused_allreduce_is_bitwise_separate_reductions(
        seed in any::<u64>(),
        lens in proptest::collection::vec(1usize..40, 1..5),
    ) {
        let total: usize = lens.iter().sum();
        for p in [1usize, 2, 4] {
            let results = run_local(p, |rank, comm| {
                let data = partial(seed, rank, total);
                let fused = comm.allreduce_sum(data.clone()).expect("fused");
                let mut separate = Vec::with_capacity(total);
                let mut at = 0;
                for &len in &lens {
                    let seg = data[at..at + len].to_vec();
                    separate.extend(comm.allreduce_sum(seg).expect("segment"));
                    at += len;
                }
                (fused, separate)
            });
            for (r, (fused, separate)) in results.iter().enumerate() {
                for (i, (f, s)) in fused.iter().zip(separate).enumerate() {
                    prop_assert_eq!(
                        f.to_bits(), s.to_bits(),
                        "p={} rank={} word {}: {} vs {}", p, r, i, f, s
                    );
                }
            }
        }
    }
}
