//! The modulo reservation table (MRT).
//!
//! A modulo schedule with initiation interval `II` issues the operation placed at cycle
//! `t` in *every* kernel iteration, i.e. at absolute cycles `t, t+II, t+2·II, …`.  Two
//! operations therefore conflict on a resource iff they use it at cycles that are equal
//! modulo `II`.  The MRT has one row per resource (functional-unit instance or bus) and
//! `II` columns; reserving cycle `t` marks column `t mod II`.
//!
//! Buses are reserved for `bus_latency` *consecutive* cycles ("when one particular
//! cluster places a data on the bus, this bus will be busy during the entirety of the
//! communication latency", Section 3), so the table supports multi-cycle reservations.
//!
//! Rows are stored as bitsets — for the IIs the paper's corpora produce a row is a
//! single `u64` word, so the multi-cycle probe `is_free_for` (the hottest operation of
//! the whole scheduler: it runs once per candidate cycle per bus per trial) is one
//! wrapped-mask test instead of a counter loop.  Wider rows (II > 64) use the same
//! idea per word: the wrapped span decomposes into at most two linear column ranges,
//! each probed/set/cleared with whole-word masks rather than per-cycle bit twiddling.
//! [`ModuloReservationTable::first_free_start`] finds the earliest start of a
//! multi-cycle bus transfer the same way, jumping over busy runs a word at a time
//! instead of probing every start in the window.
//! [`ModuloReservationTable::reset`] re-arms the table for a new II without
//! reallocating, so an II search touches the allocator once, not once per retry.

use serde::{Deserialize, Serialize};
use vliw_arch::{ResourceIndex, ResourcePool};

/// Token returned by a reservation, usable to release it again (needed by the
/// try-a-cluster-then-back-off logic of the cluster scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    resource: ResourceIndex,
    start_cycle: i64,
    duration: u32,
}

/// The modulo reservation table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuloReservationTable {
    ii: u32,
    /// `u64` words per row: `ceil(II / 64)` (1 for every II the paper evaluates).
    words_per_row: usize,
    /// Row-major bitset: bit `c` of row `r` set ⇔ resource `r` busy at column `c`.
    bits: Vec<u64>,
}

impl ModuloReservationTable {
    /// An empty table for `pool` with the given initiation interval.
    pub fn new(pool: &ResourcePool, ii: u32) -> Self {
        assert!(ii >= 1, "the initiation interval must be at least 1");
        let words_per_row = ii.div_ceil(64) as usize;
        Self {
            ii,
            words_per_row,
            bits: vec![0; pool.len() * words_per_row],
        }
    }

    /// Clear the table and change its initiation interval, reusing the existing
    /// allocation whenever the new row width fits (it always does while the II search
    /// walks upward within one 64-column word, i.e. for every II ≤ 64).
    pub fn reset(&mut self, ii: u32) {
        assert!(ii >= 1, "the initiation interval must be at least 1");
        let n_rows = self.bits.len() / self.words_per_row;
        let words_per_row = ii.div_ceil(64) as usize;
        self.ii = ii;
        if words_per_row == self.words_per_row {
            self.bits.fill(0);
        } else {
            self.words_per_row = words_per_row;
            self.bits.clear();
            self.bits.resize(n_rows * words_per_row, 0);
        }
    }

    /// The initiation interval of the table.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Column of the table an absolute cycle maps to.
    #[inline]
    pub fn column(&self, cycle: i64) -> usize {
        (cycle.rem_euclid(self.ii as i64)) as usize
    }

    #[inline]
    fn row(&self, resource: ResourceIndex) -> &[u64] {
        let start = resource.0 * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// The busy-mask of `duration` consecutive columns starting at `cycle`, wrapped
    /// modulo II — valid only for single-word rows (II ≤ 64) and `duration <= II`.
    #[inline]
    fn wrapped_mask(&self, cycle: i64, duration: u32) -> u64 {
        debug_assert!(self.words_per_row == 1 && duration <= self.ii);
        let start = self.column(cycle) as u32;
        let ii = self.ii;
        // Work in u128: start + duration <= 2*II <= 128, so nothing shifts out.
        let span = ((1u128 << duration) - 1) << start;
        let low = (span & ((1u128 << ii) - 1)) as u64;
        let wrapped = (span >> ii) as u64;
        low | wrapped
    }

    /// The `(word, mask)` pairs covering `duration` consecutive columns starting at
    /// column `start`, wrapped modulo `ii` — the multi-word (`II > 64`) counterpart of
    /// [`ModuloReservationTable::wrapped_mask`].  Because `duration <= II`, the wrapped
    /// span splits into at most two linear column ranges (`[start, min(start +
    /// duration, II))` and the wrapped remainder `[0, start + duration − II)`), each of
    /// which decomposes into whole-word masks.
    #[inline]
    fn span_words(ii: u32, start: usize, duration: u32) -> impl Iterator<Item = (usize, u64)> {
        debug_assert!(duration <= ii);
        let end = start + duration as usize;
        let ii = ii as usize;
        [(start, end.min(ii)), (0, end.saturating_sub(ii))]
            .into_iter()
            .filter(|&(a, b)| a < b)
            .flat_map(|(a, b)| {
                (a / 64..=(b - 1) / 64).map(move |word| {
                    let lo = a.max(word * 64) - word * 64;
                    let hi = b.min(word * 64 + 64) - word * 64;
                    (word, (u64::MAX >> (64 - (hi - lo))) << lo)
                })
            })
    }

    /// Offset from column `start` of the first column among the next `len` (wrapped
    /// modulo II) whose bit in `row` equals `busy`, found a word at a time.
    fn first_column(&self, row: &[u64], start: usize, len: u32, busy: bool) -> Option<usize> {
        let ii = self.ii as usize;
        Self::span_words(self.ii, start, len)
            .find_map(|(word, mask)| {
                let hits = if busy { row[word] } else { !row[word] } & mask;
                (hits != 0).then(|| word * 64 + hits.trailing_zeros() as usize)
            })
            .map(|col| (col + ii - start) % ii)
    }

    /// Whether `resource` is free at the single cycle `cycle`.
    #[inline]
    pub fn is_free(&self, resource: ResourceIndex, cycle: i64) -> bool {
        let col = self.column(cycle);
        self.bits[resource.0 * self.words_per_row + col / 64] & (1u64 << (col % 64)) == 0
    }

    /// Whether `resource` is free for `duration` consecutive cycles starting at
    /// `cycle`.  If `duration >= II` the resource would be needed in every column, so
    /// the answer is `false` unless the whole row is empty and `duration == II`.
    pub fn is_free_for(&self, resource: ResourceIndex, cycle: i64, duration: u32) -> bool {
        if duration > self.ii {
            return false;
        }
        if self.words_per_row == 1 {
            let mask = self.wrapped_mask(cycle, duration);
            self.bits[resource.0] & mask == 0
        } else {
            let row = self.row(resource);
            Self::span_words(self.ii, self.column(cycle), duration)
                .all(|(word, mask)| row[word] & mask == 0)
        }
    }

    /// Reserve `resource` at `cycle` for one cycle.
    pub fn reserve(&mut self, resource: ResourceIndex, cycle: i64) -> Reservation {
        self.reserve_for(resource, cycle, 1)
    }

    /// Reserve `resource` for `duration` consecutive cycles starting at `cycle`.
    ///
    /// The caller is expected to have checked availability first (the schedulers always
    /// probe with [`ModuloReservationTable::is_free_for`] before reserving); reserving
    /// an occupied slot is debug-asserted against.  `duration > II` is a hard error:
    /// such a span wraps onto itself, so set/clear pairs would no longer be inverses
    /// (a bitset has no per-column counter), and no caller can reach it legitimately —
    /// [`ModuloReservationTable::is_free_for`] rejects every such span.
    pub fn reserve_for(
        &mut self,
        resource: ResourceIndex,
        cycle: i64,
        duration: u32,
    ) -> Reservation {
        assert!(
            duration <= self.ii,
            "a {duration}-cycle reservation cannot fit an II of {}",
            self.ii
        );
        debug_assert!(
            self.is_free_for(resource, cycle, duration),
            "reserving an occupied slot: {resource} cycle {cycle} x{duration}"
        );
        if self.words_per_row == 1 {
            let mask = self.wrapped_mask(cycle, duration);
            self.bits[resource.0] |= mask;
        } else {
            let row = resource.0 * self.words_per_row;
            for (word, mask) in Self::span_words(self.ii, self.column(cycle), duration) {
                self.bits[row + word] |= mask;
            }
        }
        Reservation {
            resource,
            start_cycle: cycle,
            duration,
        }
    }

    /// Release a previous reservation.
    pub fn release(&mut self, reservation: Reservation) {
        self.unreserve_for(
            reservation.resource,
            reservation.start_cycle,
            reservation.duration,
        );
    }

    /// Release `duration` consecutive slots of `resource` starting at `cycle` — the
    /// exact inverse of [`ModuloReservationTable::reserve_for`].  Used by schedulers
    /// that roll back tentative placements (the cluster scheduler evaluates several
    /// clusters before committing one).
    pub fn unreserve_for(&mut self, resource: ResourceIndex, cycle: i64, duration: u32) {
        assert!(
            duration <= self.ii,
            "a {duration}-cycle reservation cannot fit an II of {}",
            self.ii
        );
        if self.words_per_row == 1 {
            let mask = self.wrapped_mask(cycle, duration);
            debug_assert!(
                self.bits[resource.0] & mask == mask,
                "releasing a slot that was not reserved"
            );
            self.bits[resource.0] &= !mask;
        } else {
            let row = resource.0 * self.words_per_row;
            for (word, mask) in Self::span_words(self.ii, self.column(cycle), duration) {
                debug_assert!(
                    self.bits[row + word] & mask == mask,
                    "releasing a slot that was not reserved"
                );
                self.bits[row + word] &= !mask;
            }
        }
    }

    /// Find, among `resources`, one that is free at `cycle` (single-cycle use).
    pub fn find_free<I>(&self, resources: I, cycle: i64) -> Option<ResourceIndex>
    where
        I: IntoIterator<Item = ResourceIndex>,
    {
        resources.into_iter().find(|&r| self.is_free(r, cycle))
    }

    /// Find, among `resources`, one that is free for `duration` consecutive cycles
    /// starting at `cycle`.
    pub fn find_free_for<I>(&self, resources: I, cycle: i64, duration: u32) -> Option<ResourceIndex>
    where
        I: IntoIterator<Item = ResourceIndex>,
    {
        resources
            .into_iter()
            .find(|&r| self.is_free_for(r, cycle, duration))
    }

    /// The earliest start in `[first, last]` at which one of `resources` is free for
    /// `duration` consecutive cycles, paired with the first such resource in
    /// iteration order — exactly what calling
    /// [`ModuloReservationTable::find_free_for`] at every start in turn returns.
    ///
    /// Instead of testing each start, every row is searched by jumping over its busy
    /// runs a word at a time: from a candidate start, look for the first busy column
    /// of the span; none means the start fits, otherwise the search resumes at the
    /// first free column after that busy column.  Later resources only search the
    /// starts strictly before the best one found so far.
    pub fn first_free_start<I>(
        &self,
        resources: I,
        first: i64,
        last: i64,
        duration: u32,
    ) -> Option<(i64, ResourceIndex)>
    where
        I: IntoIterator<Item = ResourceIndex>,
    {
        if duration > self.ii {
            return None;
        }
        // Freedom is periodic in the start with period II, so if no start among the
        // first II fits, none does.
        let last = last.min(first + self.ii as i64 - 1);
        let mut best: Option<(i64, ResourceIndex)> = None;
        for resource in resources {
            let limit = best.map_or(last, |(start, _)| start - 1);
            if let Some(start) = self.row_first_free_start(resource, first, limit, duration) {
                best = Some((start, resource));
            }
        }
        best
    }

    /// [`ModuloReservationTable::first_free_start`] for one row.
    fn row_first_free_start(
        &self,
        resource: ResourceIndex,
        first: i64,
        last: i64,
        duration: u32,
    ) -> Option<i64> {
        let row = self.row(resource);
        let mut start = first;
        while start <= last {
            // The first busy column of the span, if any, rules out every start up to
            // it; the search resumes after the busy run it begins.
            let Some(offset) = self.first_column(row, self.column(start), duration, true) else {
                return Some(start);
            };
            let busy = start + offset as i64;
            // No free column at all: nothing ever fits.
            start = busy + self.first_column(row, self.column(busy), self.ii, false)? as i64;
        }
        None
    }

    /// Number of occupied slots in the row of `resource` (out of `II`).
    pub fn row_occupancy(&self, resource: ResourceIndex) -> usize {
        self.row(resource)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Total occupied slots across all rows (used by utilization statistics).
    pub fn total_occupancy(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::{FuKind, MachineConfig};

    fn pool() -> ResourcePool {
        ResourcePool::new(&MachineConfig::two_cluster(1, 2))
    }

    #[test]
    fn fresh_table_is_empty() {
        let p = pool();
        let mrt = ModuloReservationTable::new(&p, 4);
        for (idx, _) in p.rows() {
            assert!(mrt.is_free(idx, 0));
            assert_eq!(mrt.row_occupancy(idx), 0);
        }
        assert_eq!(mrt.total_occupancy(), 0);
    }

    #[test]
    fn reservation_blocks_the_whole_congruence_class() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 3);
        let fu = p.fus(0, FuKind::Int).next().unwrap();
        mrt.reserve(fu, 4); // column 1
        assert!(!mrt.is_free(fu, 1));
        assert!(!mrt.is_free(fu, 4));
        assert!(!mrt.is_free(fu, 7));
        assert!(mrt.is_free(fu, 0));
        assert!(mrt.is_free(fu, 2));
    }

    #[test]
    fn negative_cycles_map_to_positive_columns() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 4);
        let fu = p.fus(1, FuKind::Fp).next().unwrap();
        // -1 mod 4 == 3
        mrt.reserve(fu, -1);
        assert!(!mrt.is_free(fu, 3));
        assert!(!mrt.is_free(fu, 7));
        assert!(mrt.is_free(fu, 0));
    }

    #[test]
    fn multi_cycle_reservation_spans_consecutive_columns() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 4);
        let bus = p.buses().next().unwrap();
        assert!(mrt.is_free_for(bus, 2, 2));
        mrt.reserve_for(bus, 2, 2); // columns 2 and 3
        assert!(!mrt.is_free(bus, 2));
        assert!(!mrt.is_free(bus, 3));
        assert!(mrt.is_free(bus, 0));
        assert!(mrt.is_free(bus, 1));
        // A 2-cycle transfer starting at column 1 would need column 2 -> busy.
        assert!(!mrt.is_free_for(bus, 1, 2));
        assert!(mrt.is_free_for(bus, 0, 2));
    }

    #[test]
    fn multi_cycle_reservation_wraps_around_the_last_column() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 4);
        let bus = p.buses().next().unwrap();
        // Start at column 3 with duration 2: occupies columns 3 and 0.
        assert!(mrt.is_free_for(bus, 3, 2));
        mrt.reserve_for(bus, 3, 2);
        assert!(!mrt.is_free(bus, 3));
        assert!(!mrt.is_free(bus, 0));
        assert!(mrt.is_free(bus, 1));
        assert!(mrt.is_free(bus, 2));
        mrt.unreserve_for(bus, 3, 2);
        assert_eq!(mrt.row_occupancy(bus), 0);
    }

    #[test]
    fn duration_longer_than_ii_is_never_free() {
        let p = pool();
        let mrt = ModuloReservationTable::new(&p, 2);
        let bus = p.buses().next().unwrap();
        assert!(!mrt.is_free_for(bus, 0, 3));
        // duration == II is allowed when the row is completely empty
        assert!(mrt.is_free_for(bus, 0, 2));
    }

    #[test]
    fn release_restores_availability() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 5);
        let fu = p.fus(0, FuKind::Mem).next().unwrap();
        let r = mrt.reserve_for(fu, 7, 3);
        assert_eq!(mrt.row_occupancy(fu), 3);
        mrt.release(r);
        assert_eq!(mrt.row_occupancy(fu), 0);
        assert!(mrt.is_free_for(fu, 7, 3));
    }

    #[test]
    fn find_free_skips_busy_units() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 2);
        let fus: Vec<_> = p.fus(0, FuKind::Int).collect();
        assert_eq!(fus.len(), 2);
        mrt.reserve(fus[0], 0);
        let found = mrt.find_free(p.fus(0, FuKind::Int), 0).unwrap();
        assert_eq!(found, fus[1]);
        mrt.reserve(fus[1], 0);
        assert!(mrt.find_free(p.fus(0, FuKind::Int), 0).is_none());
        // the other column is still free
        assert!(mrt.find_free(p.fus(0, FuKind::Int), 1).is_some());
    }

    #[test]
    fn ii_one_table_has_a_single_column() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 1);
        let fu = p.fus(0, FuKind::Int).next().unwrap();
        mrt.reserve(fu, 10);
        for cycle in -3..3 {
            assert!(!mrt.is_free(fu, cycle));
        }
    }

    #[test]
    fn reset_clears_and_changes_ii_without_losing_rows() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 3);
        let fu = p.fus(0, FuKind::Int).next().unwrap();
        mrt.reserve(fu, 1);
        mrt.reset(5);
        assert_eq!(mrt.ii(), 5);
        assert_eq!(mrt.total_occupancy(), 0);
        for (idx, _) in p.rows() {
            for c in 0..5 {
                assert!(mrt.is_free(idx, c));
            }
        }
        // Reset behaves identically to a fresh table.
        assert_eq!(mrt, ModuloReservationTable::new(&p, 5));
    }

    #[test]
    fn reset_to_a_wide_ii_grows_the_rows() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 4);
        mrt.reset(130); // 3 words per row
        let fu = p.fus(0, FuKind::Int).next().unwrap();
        mrt.reserve(fu, 129);
        assert!(!mrt.is_free(fu, 129));
        assert!(mrt.is_free(fu, 128));
        assert_eq!(mrt.row_occupancy(fu), 1);
        mrt.reset(4);
        assert_eq!(mrt, ModuloReservationTable::new(&p, 4));
    }

    /// II = 65 is the first width that no longer fits one `u64` per resource row —
    /// the exact boundary the fuzzing campaigns cross (recurrence-bound loops with
    /// long-latency divides push the II well past 64).  The table must switch to
    /// two-word rows transparently: single-cycle probes, multi-cycle transfers that
    /// wrap column 64 → 0, occupancy accounting and `reset` across the boundary.
    #[test]
    fn ii_65_regression_uses_two_word_rows() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 65);
        let fu = p.fus(0, FuKind::Int).next().unwrap();
        // Columns on both sides of the word boundary, via out-of-range cycles.
        mrt.reserve(fu, 63);
        mrt.reserve(fu, 64 + 65); // column 64, second word
        assert!(!mrt.is_free(fu, 63));
        assert!(!mrt.is_free(fu, 64));
        assert!(!mrt.is_free(fu, 63 + 130));
        assert!(mrt.is_free(fu, 0));
        assert!(mrt.is_free(fu, 62));
        assert_eq!(mrt.row_occupancy(fu), 2);

        // A transfer wrapping the last column back to 0 spans both words.
        let bus = p.buses().next().unwrap();
        assert!(mrt.is_free_for(bus, 64, 3)); // columns 64, 0, 1
        mrt.reserve_for(bus, 64, 3);
        for col in [64i64, 0, 1] {
            assert!(!mrt.is_free(bus, col), "column {col} should be busy");
        }
        assert!(mrt.is_free(bus, 2));
        assert!(mrt.is_free(bus, 63));
        assert!(!mrt.is_free_for(bus, 63, 2));
        mrt.unreserve_for(bus, 64, 3);
        let token = mrt.reserve_for(bus, 64, 3);
        mrt.release(token); // the token path agrees with the raw release
        assert_eq!(mrt.row_occupancy(bus), 0);

        // The II search crosses 64 → 65 through `reset` (the engine reuses one
        // table across retries): the grown table must equal a fresh one.
        let mut grown = ModuloReservationTable::new(&p, 64);
        grown.reserve(fu, 10);
        grown.reset(65);
        assert_eq!(grown, ModuloReservationTable::new(&p, 65));
    }

    #[test]
    fn wide_ii_multi_word_rows_behave_like_narrow_ones() {
        let p = pool();
        let mut mrt = ModuloReservationTable::new(&p, 100);
        let bus = p.buses().next().unwrap();
        // Wraps from column 98 across the word boundary back to column 1.
        assert!(mrt.is_free_for(bus, 98, 4));
        mrt.reserve_for(bus, 98, 4);
        for col in [98, 99, 0, 1] {
            assert!(!mrt.is_free(bus, col), "column {col} should be busy");
        }
        assert!(mrt.is_free(bus, 2));
        assert!(mrt.is_free(bus, 97));
        assert!(!mrt.is_free_for(bus, 96, 3));
        mrt.unreserve_for(bus, 98, 4);
        assert_eq!(mrt.total_occupancy(), 0);
    }

    /// The old table kept a `u32` *counter* per (row, column); the bitset must agree
    /// with those semantics for every legal (checked-before-reserve) call sequence.
    /// This drives both implementations through the same randomized sequence of
    /// multi-cycle reserve/probe/release calls — including transfers that wrap around
    /// column II−1 → 0 — and compares every observable.
    #[test]
    fn bitset_matches_counter_reference_on_random_sequences() {
        struct Reference {
            ii: u32,
            occupied: Vec<Vec<u32>>,
        }
        impl Reference {
            fn column(&self, cycle: i64) -> usize {
                cycle.rem_euclid(self.ii as i64) as usize
            }
            fn is_free_for(&self, r: ResourceIndex, cycle: i64, duration: u32) -> bool {
                if duration > self.ii {
                    return false;
                }
                (0..duration).all(|d| self.occupied[r.0][self.column(cycle + d as i64)] == 0)
            }
            fn reserve_for(&mut self, r: ResourceIndex, cycle: i64, duration: u32) {
                for d in 0..duration {
                    let col = self.column(cycle + d as i64);
                    self.occupied[r.0][col] += 1;
                }
            }
            fn unreserve_for(&mut self, r: ResourceIndex, cycle: i64, duration: u32) {
                for d in 0..duration {
                    let col = self.column(cycle + d as i64);
                    self.occupied[r.0][col] -= 1;
                }
            }
            fn row_occupancy(&self, r: ResourceIndex) -> usize {
                self.occupied[r.0].iter().filter(|&&c| c > 0).count()
            }
        }

        let p = pool();
        let rows: Vec<ResourceIndex> = p.rows().map(|(idx, _)| idx).collect();
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        for ii in [1u32, 2, 3, 5, 8, 64, 65, 70, 127, 128, 129] {
            let mut mrt = ModuloReservationTable::new(&p, ii);
            let mut reference = Reference {
                ii,
                occupied: vec![vec![0; ii as usize]; p.len()],
            };
            let mut live: Vec<Reservation> = Vec::new();
            for _ in 0..400 {
                let r = rows[(rand() % rows.len() as u64) as usize];
                let cycle = (rand() % 200) as i64 - 100;
                let duration = 1 + (rand() % ii.max(1) as u64) as u32;
                match rand() % 3 {
                    0 | 1 => {
                        // Probe both, then reserve only if legal (as the schedulers do).
                        let free = mrt.is_free_for(r, cycle, duration);
                        assert_eq!(free, reference.is_free_for(r, cycle, duration));
                        if free {
                            live.push(mrt.reserve_for(r, cycle, duration));
                            reference.reserve_for(r, cycle, duration);
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let idx = (rand() % live.len() as u64) as usize;
                            let res = live.swap_remove(idx);
                            // Mirror the release through the token on one side and the
                            // raw (resource, cycle, duration) API on the other.
                            reference.unreserve_for(res.resource, res.start_cycle, res.duration);
                            mrt.release(res);
                        }
                    }
                }
                for &row in &rows {
                    assert_eq!(mrt.row_occupancy(row), reference.row_occupancy(row));
                }
            }
        }
    }

    /// The run-skipping bus query returns exactly what probing every start with
    /// `find_free_for` returns, over random row states: every II from 1 to 200
    /// (single- and multi-word rows, widths that are not multiples of 64), windows
    /// that wrap past column II−1 or are longer than II, durations 1..=II+1, 1–3
    /// buses, and densities up to completely full rows.
    #[test]
    fn first_free_start_matches_the_linear_scan() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let pools: Vec<ResourcePool> = (1..=3)
            .map(|buses| ResourcePool::new(&MachineConfig::two_cluster(buses, 1)))
            .collect();
        // Busy probability per column, in 1/1000: empty through completely full.
        let densities = [0, 100, 400, 700, 900, 970, 995, 1000];
        let (mut found, mut queries) = (0, 0);
        for ii in 1u32..=200 {
            for (i, &density) in densities.iter().enumerate() {
                let pool = &pools[i % pools.len()];
                let mut mrt = ModuloReservationTable::new(pool, ii);
                for bus in pool.buses() {
                    for col in 0..ii as i64 {
                        if rand(1000) < density {
                            mrt.reserve(bus, col);
                        }
                    }
                }
                for _ in 0..16 {
                    let first = rand(4 * ii as u64 + 8) as i64 - 2 * ii as i64;
                    let last = first + rand(2 * ii as u64 + 2) as i64 - 1;
                    // Half the queries use bus-like short spans, half any span.
                    let max_duration = if rand(2) == 0 { ii.min(4) } else { ii + 1 };
                    let duration = 1 + rand(max_duration as u64) as u32;
                    let linear = (first..=last).find_map(|start| {
                        mrt.find_free_for(pool.buses(), start, duration)
                            .map(|bus| (start, bus))
                    });
                    found += usize::from(linear.is_some());
                    queries += 1;
                    assert_eq!(
                        mrt.first_free_start(pool.buses(), first, last, duration),
                        linear,
                        "II {ii}, {} buses, density {density}, [{first}, {last}] x{duration}",
                        pool.bus_count()
                    );
                }
            }
        }
        // Both outcomes are well exercised.
        assert!(
            found > queries / 4 && found < queries * 3 / 4,
            "{found} of {queries} found"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ii_panics() {
        let p = pool();
        let _ = ModuloReservationTable::new(&p, 0);
    }
}
