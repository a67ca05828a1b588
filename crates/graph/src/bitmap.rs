//! Bitmap encodings used by the parallel generator.
//!
//! §VI of the paper compresses each adjacency-matrix row into a bitmap so all
//! workers can share the graph structure cheaply (the parallel session counts
//! those `n` rows in its synchronized bytes; its workers read the shared
//! graph itself), and uses a second bitmap to record which disturbances have
//! already been verified so that the coordinator does not re-verify them
//! ("does not repeat the verified local ones").

use crate::edge::norm_edge;
use crate::graph::NodeId;

/// A fixed-length bitset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates a bitmap with `len` zero bits.
    pub fn new(len: usize) -> Self {
        Bitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "Bitmap::set: index {i} out of bounds ({})",
            self.len
        );
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "Bitmap::get: index {i} out of bounds ({})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place bitwise OR with another bitmap of the same length.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "Bitmap::union_with: length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Serialized size in bytes (for the parallel algorithm's communication-cost model).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

/// A synchronized record of node pairs whose disturbance has already been
/// verified. Pairs are mapped into a triangular index so that each undirected
/// pair owns exactly one bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedPairBitmap {
    n: usize,
    bits: Bitmap,
}

impl VerifiedPairBitmap {
    /// Creates an empty record for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        VerifiedPairBitmap {
            n,
            bits: Bitmap::new(pairs.max(1)),
        }
    }

    fn index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        if u == v || u >= self.n || v >= self.n {
            return None;
        }
        let (u, v) = norm_edge(u, v);
        // index of pair (u, v), u < v, in row-major upper-triangular order
        Some(u * self.n - u * (u + 1) / 2 + (v - u - 1))
    }

    /// Marks a pair as verified. Returns `false` for invalid pairs.
    pub fn mark(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.index(u, v) {
            Some(i) => {
                self.bits.set(i, true);
                true
            }
            None => false,
        }
    }

    /// Whether a pair has been verified already.
    pub fn is_marked(&self, u: NodeId, v: NodeId) -> bool {
        self.index(u, v).map(|i| self.bits.get(i)).unwrap_or(false)
    }

    /// Number of verified pairs.
    pub fn count(&self) -> usize {
        self.bits.count_ones()
    }

    /// Merges another worker's record into this one (the coordinator's
    /// "synchronize B" step).
    pub fn merge(&mut self, other: &VerifiedPairBitmap) {
        assert_eq!(self.n, other.n, "VerifiedPairBitmap::merge: size mismatch");
        self.bits.union_with(&other.bits);
    }

    /// Serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_count() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.len(), 130);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitmap_bounds_checked() {
        let b = Bitmap::new(10);
        b.get(10);
    }

    #[test]
    fn bitmap_union() {
        let mut a = Bitmap::new(70);
        let mut b = Bitmap::new(70);
        a.set(3, true);
        b.set(69, true);
        a.union_with(&b);
        assert!(a.get(3) && a.get(69));
        assert_eq!(a.count_ones(), 2);
        assert_eq!(a.byte_size(), 16);
    }

    #[test]
    fn verified_pairs_triangular_indexing_is_injective() {
        let n = 7;
        let mut seen = std::collections::BTreeSet::new();
        let vb = VerifiedPairBitmap::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                let i = vb.index(u, v).unwrap();
                assert!(seen.insert(i), "collision at ({u},{v})");
                assert!(i < n * (n - 1) / 2);
            }
        }
    }

    #[test]
    fn verified_pairs_mark_and_merge() {
        let mut a = VerifiedPairBitmap::new(5);
        let mut b = VerifiedPairBitmap::new(5);
        assert!(a.mark(1, 3));
        assert!(b.mark(0, 4));
        assert!(!a.mark(2, 2), "self pair rejected");
        assert!(!a.mark(0, 9), "out of range rejected");
        a.merge(&b);
        assert!(a.is_marked(3, 1));
        assert!(a.is_marked(4, 0));
        assert!(!a.is_marked(0, 1));
        assert_eq!(a.count(), 2);
    }
}
