//! The context's label table: element names to alphabet symbols, resolved
//! once per context instead of once per document.
//!
//! [`CastContext`](crate::CastContext) builds one [`LabelTable`] over the
//! alphabet it is given, and the streaming validator resolves every start
//! tag's name slice through it: one word-at-a-time hash, one probe and one
//! slice compare, with no per-document table to fill or reset. The table
//! is read-only after construction, so a document full of unknown names
//! cannot grow or flood it; a miss falls back to
//! [`Alphabet::lookup`], which still answers for labels interned after the
//! context was built. `Alphabet` keeps its SipHash map because tree import
//! interns document labels into it.

use schemacast_regex::{Alphabet, Sym};

/// A read-only open-addressing map from label to [`Sym`], at most half full.
pub(crate) struct LabelTable {
    /// Slots holding `symbol + 1`; `0` is empty. The length is a power of
    /// two at least twice the label count, so every probe sequence reaches
    /// an empty slot.
    slots: Box<[u32]>,
    /// Every label, indexed by symbol.
    names: Box<[Box<str>]>,
}

impl LabelTable {
    /// Indexes every label `alphabet` holds now.
    pub(crate) fn new(alphabet: &Alphabet) -> LabelTable {
        let names: Box<[Box<str>]> = alphabet.entries().map(|(_, name)| name.into()).collect();
        let mask = (names.len() * 2).next_power_of_two().max(2) - 1;
        let mut slots = vec![0u32; mask + 1].into_boxed_slice();
        for (sym, name) in alphabet.entries() {
            let mut slot = hash_name(name.as_bytes()) as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = sym.0 + 1;
        }
        LabelTable { slots, names }
    }

    /// The symbol of `name`, if the alphabet held it when the table was
    /// built.
    #[inline]
    pub(crate) fn get(&self, name: &str) -> Option<Sym> {
        let mask = self.slots.len() - 1;
        let mut slot = hash_name(name.as_bytes()) as usize & mask;
        loop {
            let entry = self.slots[slot];
            if entry == 0 {
                return None;
            }
            let sym = entry - 1;
            if *self.names[sym as usize] == *name {
                return Some(Sym(sym));
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Hashes a name word-at-a-time: one load and multiply-mix per 8 bytes
/// instead of a serially dependent multiply per byte (every start tag the
/// validator reads is hashed once).
fn hash_name(bytes: &[u8]) -> u64 {
    const MIX: u64 = 0xff51_afd7_ed55_8ccd;
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(MIX);
        h ^= h >> 29;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = 0u64;
        for (i, &b) in rem.iter().enumerate() {
            w |= u64::from(b) << (8 * i);
        }
        h = (h ^ w).wrapping_mul(MIX);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_every_label_and_misses_the_rest() {
        let mut ab = Alphabet::new();
        let names: Vec<String> = (0..100).map(|i| format!("label{i}")).collect();
        for name in ["", "a", "shipTo", "purchaseOrder", "x-y", "ns:tag"]
            .into_iter()
            .chain(names.iter().map(String::as_str))
        {
            ab.intern(name);
        }
        let table = LabelTable::new(&ab);
        assert!(table.slots.len() >= 2 * ab.len());
        for (sym, name) in ab.entries() {
            assert_eq!(table.get(name), Some(sym), "{name:?}");
        }
        for absent in ["b", "shipto", "purchaseOrde", "purchaseOrderX", "label100"] {
            assert_eq!(table.get(absent), None, "{absent:?}");
        }
    }

    /// Labels interned after the table was built are not in it; the
    /// validator falls back to the alphabet for them.
    #[test]
    fn the_table_is_a_snapshot() {
        let mut ab = Alphabet::new();
        let po = ab.intern("po");
        let table = LabelTable::new(&ab);
        ab.intern("late");
        assert_eq!(table.get("po"), Some(po));
        assert_eq!(table.get("late"), None);
        assert_eq!(LabelTable::new(&Alphabet::new()).get("po"), None);
    }
}
