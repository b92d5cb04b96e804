//! The versioned value slot stored by every layer of the engine.

use bskip_index::IndexValue;

/// What the engine knows about a key at one layer (memtable, immutable
/// memtable, or SSTable): a live value or a deletion marker.
///
/// Tombstones are first-class entries: a `remove` writes a
/// [`Slot::Tombstone`] into the memtable so that the newer layer *shadows*
/// any live value the key still has in older tables.  The merged read path
/// resolves a key at the newest layer that mentions it; compaction into
/// the bottom level finally drops tombstones (there is nothing left to
/// shadow below).
///
/// In memory the memtable keeps each slot in a padding-free form that a
/// lock-free reader may copy torn (see [`crate::memtable`]); the WAL and
/// the SSTables encode `Slot` explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot<V> {
    /// A live value.
    Put(V),
    /// A deletion marker shadowing older layers.
    Tombstone,
}

impl<V: IndexValue> Slot<V> {
    /// The live value, if this slot is not a tombstone.
    pub fn value(self) -> Option<V> {
        match self {
            Slot::Put(value) => Some(value),
            Slot::Tombstone => None,
        }
    }

    /// Whether this slot is a deletion marker.
    pub fn is_tombstone(self) -> bool {
        matches!(self, Slot::Tombstone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_accessors() {
        assert_eq!(Slot::Put(7u64).value(), Some(7));
        assert_eq!(Slot::<u64>::Tombstone.value(), None);
        assert!(Slot::<u64>::Tombstone.is_tombstone());
        assert!(!Slot::Put(7u64).is_tombstone());
    }

    #[test]
    fn slot_is_an_index_value() {
        fn assert_value<V: IndexValue>() {}
        assert_value::<Slot<u64>>();
    }
}
