//! A small fixed-capacity bit set.
//!
//! The model tracks which predecessors a service waits on, the heuristics
//! which services a partial plan has placed. The branch-and-bound search
//! keeps its placed set in one `u64` word up to 64 services and in a
//! `BitSet` beyond (see [`ServiceSet`](crate::bnb::ServiceSet)). Plans
//! never exceed a few hundred services, so a `Vec<u64>`-backed set is both
//! compact and fast, and avoids pulling in an external dependency.

/// Fixed-capacity set of small indices backed by `u64` words.
///
/// The capacity is fixed at construction; inserting an index `>= capacity`
/// panics. Operations used on the optimizer hot path (`contains`, `insert`,
/// `remove`, `is_superset_of`) are branch-light word operations.
///
/// # Examples
///
/// ```
/// use dsq_core::BitSet;
///
/// let mut placed = BitSet::new(10);
/// placed.insert(3);
/// placed.insert(7);
/// assert!(placed.contains(3));
/// assert_eq!(placed.len(), 2);
/// assert_eq!(placed.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64).max(1)], capacity }
    }

    /// Number of indices the set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of indices currently in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no indices.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts `index`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "index {index} out of capacity {}", self.capacity);
        let (w, b) = (index / 64, index % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `index`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "index {index} out of capacity {}", self.capacity);
        let (w, b) = (index / 64, index % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Whether `index` is in the set. Out-of-capacity indices are absent.
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// Removes all indices.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Indices `0..64` as a bit mask (bit `i` set iff `i` is a member);
    /// the whole set when the capacity is at most 64.
    pub fn low_word(&self) -> u64 {
        self.words[0]
    }

    /// Whether every index of `other` is also in `self`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_superset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| b & !a == 0)
    }

    /// Iterates over the indices in ascending order.
    ///
    /// The iterator walks whole `u64` words and pops set bits with
    /// `trailing_zeros`, so sparse sets cost one transition per word
    /// rather than one per candidate index.
    pub fn iter(&self) -> Iter<'_> {
        Iter { words: &self.words, word_index: 0, bits: self.words.first().copied().unwrap_or(0) }
    }

    /// Iterates over the indices **not** in the set, in ascending order
    /// (the complement within `0..capacity`), using the same word-level
    /// walk as [`iter`](Self::iter).
    ///
    /// # Examples
    ///
    /// ```
    /// use dsq_core::BitSet;
    ///
    /// let mut placed = BitSet::new(5);
    /// placed.insert(1);
    /// placed.insert(3);
    /// assert_eq!(placed.iter_unset().collect::<Vec<_>>(), vec![0, 2, 4]);
    /// ```
    pub fn iter_unset(&self) -> IterUnset<'_> {
        let mut it =
            IterUnset { words: &self.words, capacity: self.capacity, word_index: 0, bits: 0 };
        it.bits = it.complement_word(0);
        it
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set sized to the largest index + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(cap);
        for i in items {
            set.insert(i);
        }
        set
    }
}

/// Iterator over set indices, created by [`BitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_index: usize,
    /// Unconsumed bits of `words[word_index]`.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word_index += 1;
            self.bits = *self.words.get(self.word_index)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1; // clear lowest set bit
        Some(self.word_index * 64 + bit)
    }
}

/// Iterator over unset indices, created by [`BitSet::iter_unset`].
#[derive(Debug)]
pub struct IterUnset<'a> {
    words: &'a [u64],
    capacity: usize,
    word_index: usize,
    /// Unconsumed bits of the complement of `words[word_index]`, already
    /// masked to the capacity.
    bits: u64,
}

impl IterUnset<'_> {
    /// The complement of word `w`, with bits beyond `capacity` cleared.
    fn complement_word(&self, w: usize) -> u64 {
        let Some(&word) = self.words.get(w) else { return 0 };
        let mut bits = !word;
        let word_base = w * 64;
        if self.capacity < word_base + 64 {
            let tail = self.capacity.saturating_sub(word_base);
            bits &= (1u64 << tail).wrapping_sub(1);
        }
        bits
    }
}

impl Iterator for IterUnset<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.bits = self.complement_word(self.word_index);
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word_index * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.capacity(), 100);
        assert!(!s.contains(0));
        assert!(!s.contains(99));
    }

    #[test]
    fn insert_and_remove_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports already-present");
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(70);
        for i in [5, 63, 64, 69, 2] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5, 63, 64, 69]);
    }

    #[test]
    fn superset_relation() {
        let mut a = BitSet::new(8);
        let mut b = BitSet::new(8);
        a.insert(1);
        a.insert(3);
        b.insert(3);
        assert!(a.is_superset_of(&b));
        assert!(!b.is_superset_of(&a));
        let empty = BitSet::new(8);
        assert!(b.is_superset_of(&empty));
        assert!(empty.is_superset_of(&empty.clone()));
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(8);
        s.insert(7);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [4usize, 9, 1].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn zero_capacity_is_usable() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.iter_unset().count(), 0);
    }

    #[test]
    fn iter_unset_is_the_complement() {
        for cap in [0usize, 1, 5, 63, 64, 65, 127, 128, 130] {
            let mut s = BitSet::new(cap);
            for i in (0..cap).step_by(3) {
                s.insert(i);
            }
            let set: Vec<usize> = s.iter().collect();
            let unset: Vec<usize> = s.iter_unset().collect();
            assert_eq!(set, (0..cap).filter(|i| i % 3 == 0).collect::<Vec<_>>());
            assert_eq!(unset, (0..cap).filter(|i| i % 3 != 0).collect::<Vec<_>>());
            assert_eq!(set.len() + unset.len(), cap);
        }
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn debug_shows_contents() {
        let mut s = BitSet::new(8);
        s.insert(2);
        assert_eq!(format!("{s:?}"), "{2}");
    }
}
