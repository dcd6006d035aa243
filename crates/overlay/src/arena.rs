//! The shared fixed-width store for overlay routing tables.

use dht_id::NodeId;

/// Every routing-table entry of an overlay in one flat allocation, as rows
/// of one fixed width.
///
/// A geometry's table has a fixed set of slots — one per tree level,
/// hypercube dimension, XOR bucket or ring finger, `k_n + k_s` for Symphony
/// ([`GeometryStrategy::table_width`](crate::GeometryStrategy::table_width))
/// — and a slot with no target holds the node itself. So every table fills
/// its row: the table of the rank-`r` node is `entries[r × width..(r + 1) ×
/// width]`, a contiguous slice with no per-node offset, construction
/// performs O(1) allocations, and the entry count — the overlay's edge count
/// — is `node_count × width`.
///
/// Nodes are addressed by their *rank* in the overlay's
/// [`Population`](dht_id::Population) (for a full population the rank equals
/// the identifier value), in the order the tables were pushed.
///
/// # Example
///
/// ```rust
/// use dht_id::KeySpace;
/// use dht_overlay::RoutingArena;
///
/// let space = KeySpace::new(4)?;
/// let mut arena = RoutingArena::with_capacity(2, 2);
/// arena.push_table(&[space.wrap(1), space.wrap(2)]);
/// arena.push_table(&[space.wrap(3), space.wrap(1)]);
/// assert_eq!(arena.node_count(), 2);
/// assert_eq!(arena.entry_count(), 4);
/// assert_eq!(arena.neighbors(1), &[space.wrap(3), space.wrap(1)]);
/// # Ok::<(), dht_id::IdError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingArena {
    /// Entries per row, at least 1.
    width: usize,
    /// Every routing-table entry, rows back to back in rank order.
    entries: Vec<NodeId>,
}

impl RoutingArena {
    /// An empty arena of `width`-entry rows with room for `nodes` rows, so
    /// construction does not reallocate.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0: every routing table has at least one slot.
    #[must_use]
    pub fn with_capacity(width: usize, nodes: usize) -> Self {
        assert!(width > 0, "routing tables have at least one slot");
        RoutingArena {
            width,
            entries: Vec::with_capacity(nodes * width),
        }
    }

    /// Appends the routing table of the next node and returns its rank.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not fill exactly one row.
    pub fn push_table(&mut self, table: &[NodeId]) -> usize {
        assert_eq!(table.len(), self.width, "tables fill the row width");
        let rank = self.node_count();
        self.entries.extend_from_slice(table);
        rank
    }

    /// Entries per row: every table's length.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of node tables stored.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.entries.len() / self.width
    }

    /// Total number of directed routing-table entries, in O(1).
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// `true` when no table has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of heap the arena keeps resident: the entry slab (counted at
    /// `len`, not capacity — construction pre-sizes it exactly).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<NodeId>()
    }

    /// The routing table of the node with the given rank, as a slice into the
    /// arena.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= node_count()`.
    #[must_use]
    pub fn neighbors(&self, rank: usize) -> &[NodeId] {
        &self.entries[rank * self.width..(rank + 1) * self.width]
    }

    /// Overwrites the routing table of the rank-`rank` node in place — the
    /// arena half of a live repair.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= node_count()` or `table` does not fill exactly one
    /// row.
    pub fn rewrite_table(&mut self, rank: usize, table: &[NodeId]) {
        assert_eq!(
            table.len(),
            self.width,
            "rewrite_table must preserve the row width"
        );
        self.entries[rank * self.width..(rank + 1) * self.width].copy_from_slice(table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_id::KeySpace;

    fn ids(space: KeySpace, values: &[u64]) -> Vec<NodeId> {
        values.iter().map(|&v| space.wrap(v)).collect()
    }

    #[test]
    fn empty_arena_has_no_nodes_or_entries() {
        let arena = RoutingArena::with_capacity(3, 4);
        assert!(arena.is_empty());
        assert_eq!(arena.node_count(), 0);
        assert_eq!(arena.entry_count(), 0);
        assert_eq!(arena.resident_bytes(), 0);
    }

    #[test]
    fn tables_round_trip_in_rank_order() {
        let space = KeySpace::new(6).unwrap();
        let mut arena = RoutingArena::with_capacity(3, 3);
        assert_eq!(arena.push_table(&ids(space, &[1, 2, 3])), 0);
        // A node with no target for a slot keeps itself in that slot.
        assert_eq!(arena.push_table(&ids(space, &[5, 5, 5])), 1);
        assert_eq!(arena.push_table(&ids(space, &[9, 10, 9])), 2);
        assert_eq!(arena.node_count(), 3);
        assert_eq!(arena.entry_count(), 9);
        assert_eq!(arena.resident_bytes(), 9 * std::mem::size_of::<NodeId>());
        assert_eq!(arena.neighbors(0), ids(space, &[1, 2, 3]).as_slice());
        assert_eq!(arena.neighbors(1), ids(space, &[5, 5, 5]).as_slice());
        assert_eq!(arena.neighbors(2), ids(space, &[9, 10, 9]).as_slice());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_table_rejects_a_table_of_another_width() {
        let space = KeySpace::new(6).unwrap();
        let mut arena = RoutingArena::with_capacity(3, 2);
        arena.push_table(&ids(space, &[1, 2, 3]));
        arena.push_table(&ids(space, &[9, 10]));
    }

    #[test]
    fn rewrite_table_patches_a_row_in_place() {
        let space = KeySpace::new(6).unwrap();
        let mut arena = RoutingArena::with_capacity(3, 2);
        arena.push_table(&ids(space, &[1, 2, 3]));
        arena.push_table(&ids(space, &[9, 10, 11]));
        arena.rewrite_table(0, &ids(space, &[4, 5, 6]));
        assert_eq!(arena.neighbors(0), ids(space, &[4, 5, 6]).as_slice());
        assert_eq!(arena.neighbors(1), ids(space, &[9, 10, 11]).as_slice());
        assert_eq!(arena.entry_count(), 6);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rewrite_table_rejects_width_changes() {
        let space = KeySpace::new(6).unwrap();
        let mut arena = RoutingArena::with_capacity(2, 1);
        arena.push_table(&ids(space, &[1, 2]));
        arena.rewrite_table(0, &ids(space, &[1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        let arena = RoutingArena::with_capacity(2, 0);
        let _ = arena.neighbors(0);
    }
}
