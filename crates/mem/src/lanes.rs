//! Chunked u64-lane kernels: the portable SIMD layer under the bit-plane
//! kernels.
//!
//! The row-pulse compute kernel in [`crate::sram`] and the bulk decode in
//! `sachi-core` reduce to two word-level primitives — XNOR a stored row
//! against a broadcast word-line value, and popcount a span of words. This
//! module implements both over explicit 4-lane `u64` chunks with
//! independent accumulators, which is the stable-Rust equivalent of
//! `std::simd`: the chunking removes the loop-carried dependence so the
//! compiler can keep four `popcnt`/`xor` streams in flight (and
//! autovectorize where the target allows).
//!
//! Everything here is bit-exact by construction — the chunked loops
//! compute the same words in the same two's-complement arithmetic as a
//! naive per-word loop, only the association of the *counters* changes,
//! and integer addition is associative.

/// Lanes processed per unrolled chunk.
const LANES: usize = 4;

/// Population count over a word span, accumulated in [`LANES`] independent
/// streams.
#[must_use]
pub fn popcount(words: &[u64]) -> u64 {
    let mut acc = [0u64; LANES];
    let mut chunks = words.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &w) in acc.iter_mut().zip(chunk.iter()) {
            *a += u64::from(w.count_ones());
        }
    }
    let mut total: u64 = acc.iter().sum();
    for &w in chunks.remainder() {
        total += u64::from(w.count_ones());
    }
    total
}

/// Writes `!(stored[i] ^ broadcast)` into `out[i]` for the common span,
/// returning the number of words processed — the row-pulse XNOR, where
/// one word-line value fans out across the whole row. The caller masks
/// edge words itself; this kernel is the full-word inner run.
pub fn xnor_broadcast_into(stored: &[u64], broadcast: u64, out: &mut [u64]) -> usize {
    let n = stored.len().min(out.len());
    let mut i = 0;
    while i + LANES <= n {
        out[i] = !(stored[i] ^ broadcast);
        out[i + 1] = !(stored[i + 1] ^ broadcast);
        out[i + 2] = !(stored[i + 2] ^ broadcast);
        out[i + 3] = !(stored[i + 3] ^ broadcast);
        i += LANES;
    }
    while i < n {
        out[i] = !(stored[i] ^ broadcast);
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn popcount_empty_is_zero() {
        assert_eq!(popcount(&[]), 0);
    }

    proptest! {
        #[test]
        fn popcount_matches_per_word_sum(words in prop::collection::vec(any::<u64>(), 0..40)) {
            let naive: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            prop_assert_eq!(popcount(&words), naive);
        }

        #[test]
        fn xnor_broadcast_matches_per_word(
            stored in prop::collection::vec(any::<u64>(), 0..24),
            broadcast in any::<u64>(),
        ) {
            let mut out = vec![0u64; stored.len()];
            prop_assert_eq!(xnor_broadcast_into(&stored, broadcast, &mut out), stored.len());
            for i in 0..stored.len() {
                prop_assert_eq!(out[i], !(stored[i] ^ broadcast));
            }
        }
    }
}
