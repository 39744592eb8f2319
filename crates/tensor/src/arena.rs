//! Bump-arena buffer management for compiled inference plans.
//!
//! A compiled plan (see `invnorm_nn::plan`) walks a network once for a fixed
//! input shape and reserves every intermediate buffer it will ever need —
//! activations, im2col patch matrices, GEMM staging, quantized codes,
//! integer accumulators — as disjoint [`ArenaSlot`] ranges of one [`Arena`]
//! allocation per element type. Steady-state plan forwards then perform
//! **zero** heap allocations: every buffer is a range into the sealed arena.
//!
//! Reservation happens in a *build phase* ([`Arena::reserve`]) that only
//! advances a cursor; [`Arena::seal`] performs the single backing allocation.
//! At execution time, kernels borrow several slots at once through
//! [`Arena::many_mut`], which checks the ranges are disjoint and in bounds
//! before handing out simultaneous mutable slices.
//!
//! [`DirtyRows`] is the companion bookkeeping type for cached packed-weight
//! panels: fault injectors mark which weight rows a realization touched, and
//! the plan re-packs only the panels covering those rows.
//!
//! lint: no_alloc

/// A reserved range of an [`Arena`], handed out during the build phase and
/// resolved to a slice at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaSlot {
    start: usize,
    len: usize,
}

impl ArenaSlot {
    /// Number of elements in the slot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slot is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn end(&self) -> usize {
        self.start + self.len
    }

    fn overlaps(&self, other: &ArenaSlot) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// A growable bump arena handing out all per-plan buffers from one
/// allocation.
///
/// The element type is generic so the f32 activation arena, the i8 code
/// arena and the i32 accumulator arena of a quantized plan share one
/// implementation.
#[derive(Debug, Default, Clone)]
pub struct Arena<T> {
    buf: Vec<T>,
    reserved: usize,
}

impl<T: Copy + Default> Arena<T> {
    /// Creates an empty arena in the build phase.
    // lint: alloc_ok(build-phase constructor; the arena exists to hoist
    // allocation out of the steady state)
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            reserved: 0,
        }
    }

    /// Reserves `len` elements and returns their slot. No allocation happens
    /// until [`Arena::seal`].
    pub fn reserve(&mut self, len: usize) -> ArenaSlot {
        let slot = ArenaSlot {
            start: self.reserved,
            len,
        };
        self.reserved += len;
        slot
    }

    /// Performs the single backing allocation covering every reservation,
    /// zero-initialising the storage (`T::default()`). Idempotent; calling
    /// after further [`Arena::reserve`]s grows the backing once more.
    pub fn seal(&mut self) {
        if self.buf.len() < self.reserved {
            self.buf.resize(self.reserved, T::default());
        }
    }

    /// Total elements reserved so far.
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Capacity of the sealed backing buffer, in elements.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Immutable view of a slot.
    ///
    /// # Panics
    ///
    /// Panics when the arena is not sealed far enough to contain the slot.
    pub fn slot(&self, slot: ArenaSlot) -> &[T] {
        &self.buf[slot.start..slot.end()]
    }

    /// Mutable view of a slot.
    ///
    /// # Panics
    ///
    /// Panics when the arena is not sealed far enough to contain the slot.
    pub fn slot_mut(&mut self, slot: ArenaSlot) -> &mut [T] {
        &mut self.buf[slot.start..slot.end()]
    }

    /// Simultaneous mutable views of `N` slots (a kernel typically needs its
    /// input, output and scratch ranges at once).
    ///
    /// # Panics
    ///
    /// Panics when any slot is out of bounds or two slots overlap.
    pub fn many_mut<const N: usize>(&mut self, slots: [ArenaSlot; N]) -> [&mut [T]; N] {
        for (i, a) in slots.iter().enumerate() {
            assert!(a.end() <= self.buf.len(), "arena slot out of bounds");
            for b in slots.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "arena slots overlap");
            }
        }
        let ptr = self.buf.as_mut_ptr();
        // SAFETY: every slot lies inside `buf` (asserted above) and the
        // ranges are pairwise disjoint (asserted above), so the returned
        // slices never alias.
        slots.map(|s| unsafe { std::slice::from_raw_parts_mut(ptr.add(s.start), s.len) })
    }
}

/// A bitset over the rows of a `[rows, cols]` parameter, recording which rows
/// a fault realization touched.
///
/// Cached packed-weight panels consult this to re-pack **only dirty panels**
/// between Monte-Carlo realizations: sparse fault models (stuck-at, code-
/// domain bit flips) touch a small fraction of rows, so most of the packed
/// operand survives from one chip instance to the next.
#[derive(Debug, Default, Clone)]
pub struct DirtyRows {
    bits: Vec<u64>,
    rows: usize,
}

impl DirtyRows {
    /// Creates an all-clean set over `rows` rows.
    // lint: alloc_ok(build-phase constructor; the bitset is allocated once
    // per packed operand and reused across realizations)
    pub fn new(rows: usize) -> Self {
        Self {
            bits: vec![0u64; rows.div_ceil(64)],
            rows,
        }
    }

    /// Number of rows tracked.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Marks one row dirty.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn mark(&mut self, row: usize) {
        assert!(row < self.rows, "row {row} out of {} tracked", self.rows);
        self.bits[row / 64] |= 1u64 << (row % 64);
    }

    /// Marks every row dirty (dense fault models rewrite the whole tensor).
    pub fn mark_all(&mut self) {
        let full = self.rows / 64;
        self.bits[..full].fill(u64::MAX);
        if !self.rows.is_multiple_of(64) {
            self.bits[full] = (1u64 << (self.rows % 64)) - 1;
        }
    }

    /// Clears every mark.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Whether any row is marked.
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Whether `row` is marked.
    pub fn is_marked(&self, row: usize) -> bool {
        row < self.rows && self.bits[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// Whether any row in `[lo, hi)` is marked.
    pub fn any_in(&self, lo: usize, hi: usize) -> bool {
        let hi = hi.min(self.rows);
        // Small ranges (one packed strip) — a simple scan is cheapest.
        (lo..hi).any(|r| self.is_marked(r))
    }

    /// Number of marked rows.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Marks every row in `[lo, hi)` dirty.
    pub fn mark_range(&mut self, lo: usize, hi: usize) {
        for (w, mask) in range_words(self.rows, lo, hi) {
            self.bits[w] |= mask;
        }
    }

    /// Clears every mark in `[lo, hi)`.
    pub fn clear_range(&mut self, lo: usize, hi: usize) {
        for (w, mask) in range_words(self.rows, lo, hi) {
            self.bits[w] &= !mask;
        }
    }

    /// Set union restricted to `[lo, hi)`: marks every row of that range
    /// that is marked in `other`, leaving rows outside the range untouched.
    ///
    /// # Panics
    ///
    /// Panics when the two sets track a different number of rows.
    pub fn merge_range(&mut self, other: &DirtyRows, lo: usize, hi: usize) {
        assert_eq!(self.rows, other.rows, "DirtyRows size mismatch");
        for (w, mask) in range_words(self.rows, lo, hi) {
            self.bits[w] |= other.bits[w] & mask;
        }
    }

    /// Overwrites `[lo, hi)` with `other`'s marks for that range, leaving
    /// rows outside the range untouched.
    ///
    /// # Panics
    ///
    /// Panics when the two sets track a different number of rows.
    pub fn copy_range(&mut self, other: &DirtyRows, lo: usize, hi: usize) {
        assert_eq!(self.rows, other.rows, "DirtyRows size mismatch");
        for (w, mask) in range_words(self.rows, lo, hi) {
            self.bits[w] = (self.bits[w] & !mask) | (other.bits[w] & mask);
        }
    }

    /// Number of marked rows in `[lo, hi)`.
    pub fn count_in(&self, lo: usize, hi: usize) -> usize {
        range_words(self.rows, lo, hi)
            .map(|(w, mask)| (self.bits[w] & mask).count_ones() as usize)
            .sum()
    }
}

/// Iterates the `(word_index, mask)` pairs covering bit range `[lo, hi)` of a
/// bitset over `rows` bits, clamping to the tracked rows. Allocation-free —
/// the range methods above run inside steady-state plan refreshes.
fn range_words(rows: usize, lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> {
    let hi = hi.min(rows);
    let (wl, wh) = if lo >= hi {
        (1, 0) // empty
    } else {
        (lo / 64, (hi - 1) / 64)
    };
    (wl..=wh).map(move |w| {
        let lo_bit = if w == wl { lo % 64 } else { 0 };
        let hi_bit = if w == wh { (hi - 1) % 64 + 1 } else { 64 };
        let width = hi_bit - lo_bit;
        let mask = if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << lo_bit
        };
        (w, mask)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_seal_slot_roundtrip() {
        let mut arena: Arena<f32> = Arena::new();
        let a = arena.reserve(4);
        let b = arena.reserve(3);
        assert_eq!(arena.reserved(), 7);
        arena.seal();
        arena.slot_mut(a).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        arena.slot_mut(b).copy_from_slice(&[5.0, 6.0, 7.0]);
        assert_eq!(arena.slot(a), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(arena.slot(b), &[5.0, 6.0, 7.0]);
        assert!(!a.is_empty() && a.len() == 4);
    }

    #[test]
    fn seal_is_idempotent_and_growable() {
        let mut arena: Arena<i8> = Arena::new();
        let a = arena.reserve(8);
        arena.seal();
        let cap = arena.capacity();
        arena.seal();
        assert_eq!(arena.capacity(), cap);
        let b = arena.reserve(4);
        arena.seal();
        arena.slot_mut(b).fill(3);
        assert_eq!(arena.slot(a), &[0i8; 8]);
    }

    #[test]
    fn many_mut_hands_out_disjoint_slices() {
        let mut arena: Arena<f32> = Arena::new();
        let a = arena.reserve(2);
        let b = arena.reserve(2);
        let c = arena.reserve(2);
        arena.seal();
        let [sa, sb, sc] = arena.many_mut([a, b, c]);
        sa.fill(1.0);
        sb.fill(2.0);
        sc.copy_from_slice(&[sa[0] + sb[0], sa[1] * sb[1]]);
        assert_eq!(arena.slot(c), &[3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn many_mut_rejects_overlap() {
        let mut arena: Arena<f32> = Arena::new();
        let a = arena.reserve(4);
        arena.seal();
        let _ = arena.many_mut([a, a]);
    }

    #[test]
    fn dirty_rows_range_operations() {
        // Ranges crossing word boundaries (rows 60..70 span two u64 words).
        let mut d = DirtyRows::new(200);
        d.mark_range(60, 70);
        assert_eq!(d.count(), 10);
        assert_eq!(d.count_in(60, 70), 10);
        assert_eq!(d.count_in(0, 60), 0);
        assert!(d.is_marked(60) && d.is_marked(69) && !d.is_marked(70));
        d.clear_range(64, 66);
        assert_eq!(d.count(), 8);
        assert!(!d.is_marked(64) && !d.is_marked(65) && d.is_marked(66));

        let mut other = DirtyRows::new(200);
        other.mark_range(0, 200);
        let mut m = DirtyRows::new(200);
        m.merge_range(&other, 100, 130);
        assert_eq!(m.count(), 30);
        assert_eq!(m.count_in(100, 130), 30);

        // copy_range overwrites the range (clears what other lacks).
        let mut c = DirtyRows::new(200);
        c.mark_range(0, 200);
        let sparse = {
            let mut s = DirtyRows::new(200);
            s.mark(110);
            s
        };
        c.copy_range(&sparse, 100, 130);
        assert_eq!(c.count_in(100, 130), 1);
        assert!(c.is_marked(110) && c.is_marked(99) && c.is_marked(130));
        assert_eq!(c.count(), 200 - 30 + 1);

        // Degenerate ranges are no-ops.
        let before = c.count();
        c.mark_range(50, 50);
        c.clear_range(10, 10);
        assert_eq!(c.count(), before);
        // Ranges are clamped to the tracked rows.
        let mut e = DirtyRows::new(70);
        e.mark_range(64, 1000);
        assert_eq!(e.count(), 6);
    }

    #[test]
    fn dirty_rows_marking() {
        let mut d = DirtyRows::new(70);
        assert!(!d.any());
        d.mark(0);
        d.mark(69);
        assert!(d.any() && d.count() == 2);
        assert!(d.is_marked(0) && d.is_marked(69) && !d.is_marked(35));
        assert!(d.any_in(64, 70) && !d.any_in(1, 69 - 1));
        d.clear();
        assert!(!d.any());
        d.mark_all();
        assert_eq!(d.count(), 70);
        let mut other = DirtyRows::new(70);
        other.mark(3);
        d.clear();
        d.merge_range(&other, 0, 70);
        assert!(d.is_marked(3) && d.count() == 1);
    }
}
