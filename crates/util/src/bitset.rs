//! Word-level bitsets for reachability kernels.
//!
//! The closure frontline's fr-edge propagation (`coherence::windows`)
//! computes a transitive closure per fixpoint round: for each op, the set
//! of ops provably after it. With `n ≤ 256` ops per address that is a few
//! dozen 64-bit words per row — small enough that the whole round is
//! memory-bandwidth-bound, so the representation matters more than the
//! algorithm. [`BitSet`] is that representation: a flat `Vec<u64>` with
//! the kernels the closure loop needs — set/test, row-into-row union
//! ([`BitSet::union_row`]), any-intersection ([`any_intersect`]), row
//! masking ([`BitRow::assign_and`]) and set-bit walks ([`ones`],
//! [`ones_and`]) — written so they compile to straight word loops.
//!
//! A [`BitSet`] is reusable scratch: [`BitSet::reset`] re-shapes it for a
//! new `(rows, bits)` geometry, zeroing in place and allocating only when
//! the geometry outgrows every previous use. The closure keeps one per
//! worker thread, so steady-state analysis rounds allocate nothing.

/// A dense 2-D bit matrix: `rows` rows of `bits` bits, each row a run of
/// `u64` words. With `rows == 1` it is a plain bitset.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Words per row.
    stride: usize,
}

impl BitSet {
    /// An empty bitset (no allocation until [`reset`](BitSet::reset)).
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Re-shape to `rows × bits`, cleared. Reuses the existing allocation
    /// whenever it is large enough.
    pub fn reset(&mut self, rows: usize, bits: usize) {
        self.stride = bits.div_ceil(64);
        let need = rows * self.stride;
        self.words.clear();
        self.words.resize(need, 0);
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Set bit `bit` of row `row`.
    #[inline]
    pub fn set(&mut self, row: usize, bit: usize) {
        self.words[row * self.stride + (bit >> 6)] |= 1u64 << (bit & 63);
    }

    /// Test bit `bit` of row `row`.
    #[inline]
    pub fn test(&self, row: usize, bit: usize) -> bool {
        self.words[row * self.stride + (bit >> 6)] >> (bit & 63) & 1 == 1
    }

    /// Row `row` as a word slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        &self.words[row * self.stride..(row + 1) * self.stride]
    }

    /// OR row `src` into row `dst` (`dst |= src`).
    #[inline]
    pub fn union_row(&mut self, dst: usize, src: usize) {
        debug_assert_ne!(dst, src);
        let stride = self.stride;
        let (d, s) = if dst < src {
            let (a, b) = self.words.split_at_mut(src * stride);
            (&mut a[dst * stride..dst * stride + stride], &b[..stride])
        } else {
            let (a, b) = self.words.split_at_mut(dst * stride);
            (&mut b[..stride], &a[src * stride..src * stride + stride])
        };
        for (x, y) in d.iter_mut().zip(s) {
            *x |= *y;
        }
    }

    /// OR the external word slice `src` into row `dst`.
    #[inline]
    pub fn union_from(&mut self, dst: usize, src: &[u64]) {
        let start = dst * self.stride;
        for (x, y) in self.words[start..start + self.stride].iter_mut().zip(src) {
            *x |= *y;
        }
    }

    /// Copy the external word slice `src` over row `dst`.
    #[inline]
    pub fn copy_into(&mut self, dst: usize, src: &[u64]) {
        let start = dst * self.stride;
        self.words[start..start + self.stride].copy_from_slice(src);
    }

    /// True if row `row` shares any set bit with the word slice `other`.
    #[inline]
    pub fn row_intersects(&self, row: usize, other: &[u64]) -> bool {
        any_intersect(self.row(row), other)
    }
}

/// True if two word slices share any set bit (`(a & b) != 0` anywhere).
#[inline]
pub fn any_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Indices of the set bits of `words`, ascending: a walk one word at a
/// time, so sparse rows cost a few word ops rather than a test per bit.
#[inline]
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(k, &word)| word_ones(k, word))
}

/// Indices of the bits set in both `a` and `b`, ascending.
#[inline]
pub fn ones_and<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    a.iter()
        .zip(b)
        .enumerate()
        .flat_map(|(k, (x, y))| word_ones(k, x & y))
}

/// The set bits of `word`, the `k`-th word of a row, as row indices.
#[inline]
fn word_ones(k: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            k * 64 + bit
        })
    })
}

/// A single reusable bit row (helper for scratch vectors that are not part
/// of a matrix): clear + set/test over a `Vec<u64>`.
#[derive(Clone, Debug, Default)]
pub struct BitRow {
    words: Vec<u64>,
}

impl BitRow {
    /// An empty row.
    pub fn new() -> Self {
        BitRow::default()
    }

    /// Re-size to `bits` bits, cleared, reusing the allocation.
    pub fn reset(&mut self, bits: usize) {
        self.words.clear();
        self.words.resize(bits.div_ceil(64), 0);
    }

    /// Set bit `bit`.
    #[inline]
    pub fn set(&mut self, bit: usize) {
        self.words[bit >> 6] |= 1u64 << (bit & 63);
    }

    /// Test bit `bit`.
    #[inline]
    pub fn test(&self, bit: usize) -> bool {
        self.words[bit >> 6] >> (bit & 63) & 1 == 1
    }

    /// The backing words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrite with `a & b` (equal-length word slices), reusing the
    /// allocation.
    #[inline]
    pub fn assign_and(&mut self, a: &[u64], b: &[u64]) {
        self.words.clear();
        self.words.extend(a.iter().zip(b).map(|(x, y)| x & y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_roundtrip_across_word_boundaries() {
        let mut b = BitSet::new();
        b.reset(3, 130);
        for bit in [0usize, 63, 64, 127, 128, 129] {
            assert!(!b.test(1, bit));
            b.set(1, bit);
            assert!(b.test(1, bit), "bit {bit}");
        }
        // Other rows untouched.
        for bit in [0usize, 63, 64, 127, 128, 129] {
            assert!(!b.test(0, bit));
            assert!(!b.test(2, bit));
        }
    }

    #[test]
    fn union_row_merges_in_both_directions() {
        let mut b = BitSet::new();
        b.reset(2, 100);
        b.set(0, 3);
        b.set(1, 70);
        b.union_row(0, 1);
        assert!(b.test(0, 3) && b.test(0, 70));
        assert!(!b.test(1, 3));
        b.union_row(1, 0);
        assert!(b.test(1, 3) && b.test(1, 70));
    }

    #[test]
    fn reset_reshapes_and_clears() {
        let mut b = BitSet::new();
        b.reset(4, 64);
        b.set(3, 63);
        b.reset(2, 200);
        assert_eq!(b.stride(), 4);
        for row in 0..2 {
            for bit in 0..200 {
                assert!(!b.test(row, bit), "({row},{bit}) must be cleared");
            }
        }
    }

    #[test]
    fn any_intersect_finds_shared_bits() {
        let mut row = BitRow::new();
        row.reset(128);
        row.set(100);
        let mut b = BitSet::new();
        b.reset(1, 128);
        assert!(!b.row_intersects(0, row.words()));
        b.set(0, 100);
        assert!(b.row_intersects(0, row.words()));
        assert!(any_intersect(&[0b1010], &[0b0010]));
        assert!(!any_intersect(&[0b1010], &[0b0101]));
        assert!(!any_intersect(&[], &[]));
    }

    #[test]
    fn ones_walk_set_bits_in_order() {
        let a = [0b1011u64, 1 << 63, u64::MAX];
        let b = [0b0011u64, 1 << 63, 0];
        let got: Vec<usize> = ones_and(&a, &b).collect();
        assert_eq!(got, vec![0, 1, 127]);
        assert_eq!(ones_and(&[], &[]).count(), 0);
        assert_eq!(ones(&a).count(), 3 + 1 + 64);
        assert_eq!(ones(&a).last(), Some(191));
        let mut row = BitRow::new();
        row.assign_and(&a, &b);
        assert_eq!(row.words(), &[0b0011, 1 << 63, 0]);
    }

    #[test]
    fn copy_into_overwrites_row() {
        let mut b = BitSet::new();
        b.reset(2, 64);
        b.set(0, 5);
        b.copy_into(0, &[1u64 << 9]);
        assert!(!b.test(0, 5));
        assert!(b.test(0, 9));
    }
}
