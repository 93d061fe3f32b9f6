//! A slab of records addressed by the small dense ids it issues.

/// Records addressed by the ids the slab issues. A removed record's id goes
/// on a free list that the next insert takes first, so the slab is only as
/// long as the most records ever live at once, and a record that replaces
/// a removed one allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct IdSlab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> IdSlab<T> {
    /// Stores `value` under the most recently freed id, or a new one.
    pub fn insert(&mut self, value: T) -> usize {
        let Some(id) = self.free.pop() else {
            self.slots.push(Some(value));
            return self.slots.len() - 1;
        };
        self.slots[id] = Some(value);
        id
    }

    /// Takes the record at `id` out and frees the id.
    pub fn remove(&mut self, id: usize) -> Option<T> {
        let value = self.slots.get_mut(id)?.take()?;
        self.free.push(id);
        Some(value)
    }

    /// The record at `id`, if live.
    pub fn get(&self, id: usize) -> Option<&T> {
        self.slots.get(id)?.as_ref()
    }

    /// The record at `id`, if live.
    pub fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.slots.get_mut(id)?.as_mut()
    }

    /// The live records in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }

    /// Forgets every record and id, keeping the storage: the next id is 0.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_id_is_issued_again_and_the_slab_stays_short() {
        let mut slab = IdSlab::default();
        let (a, b) = (slab.insert('a'), slab.insert('b'));
        assert_eq!((a, b), (0, 1));
        assert_eq!(slab.remove(a), Some('a'));
        assert_eq!(slab.remove(a), None, "already free");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.insert('c'), a, "the freed id first");
        assert_eq!(slab.insert('d'), 2);
        let live: Vec<_> = slab.iter().collect();
        assert_eq!(live, [(0, &'c'), (1, &'b'), (2, &'d')]);
        assert_eq!(slab.get(usize::MAX), None);
        slab.clear();
        assert_eq!(slab.insert('e'), 0);
    }
}
