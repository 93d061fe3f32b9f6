//! Storage a constructor takes over from a spare: a rack part's one
//! constructor body sets every field, and given a spare (the same part at
//! the end of an earlier life) builds the new part in the spare's emptied
//! storage, so a rebuilt part is a new part by construction.

use std::collections::{HashMap, VecDeque};

use crate::slab::IdSlab;
use crate::stats::{Histogram, Metrics, TimeSeries};

/// A collection that a new part can take over from a spare.
pub trait Storage: Default {
    /// The collection with every element dropped and its storage kept.
    fn emptied(self) -> Self;
}

macro_rules! storage {
    ($([$($generics:tt)*] $collection:ty),+) => {$(
        impl<$($generics)*> Storage for $collection {
            fn emptied(mut self) -> Self {
                self.clear();
                self
            }
        }
    )+};
}
storage!([T] Vec<T>, [T] VecDeque<T>, [K, V, S: Default] HashMap<K, V, S>, [T: Default] IdSlab<T>);
storage!([] String, [] Histogram, [] Metrics, [] TimeSeries);

/// `spare` emptied, or new (unallocated) storage when there is none.
pub fn reuse<S: Storage>(spare: Option<S>) -> S {
    spare.map_or_else(S::default, S::emptied)
}

/// `n` parts, the `i`th built by `build` from `spare`'s `i`th part when it
/// has one, kept in `spare`'s storage. Each spare part is consumed as its
/// successor is built, so the two lists never coexist.
pub fn rebuild<T>(spare: Option<Vec<T>>, n: usize, mut build: impl FnMut(Option<T>) -> T) -> Vec<T> {
    let mut parts = spare.unwrap_or_default();
    parts.truncate(n);
    let kept = parts.len();
    // Mapping a vector into one of its own element type collects in place.
    let mut parts: Vec<T> = parts.into_iter().map(|p| build(Some(p))).collect();
    parts.reserve_exact(n - kept);
    parts.extend((kept..n).map(|_| build(None)));
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reused_storage_is_empty_and_keeps_its_capacity() {
        let (list, queue) = (reuse(Some(vec![1u32, 2, 3])), reuse(Some(VecDeque::from([4u8]))));
        assert!(list.is_empty() && queue.is_empty());
        assert!(list.capacity() >= 3 && queue.capacity() >= 1);
        let fresh: Vec<u8> = reuse(None);
        assert_eq!(fresh.capacity(), 0);
    }

    #[test]
    fn rebuilt_parts_stay_in_the_spares_list() {
        let spare = vec![vec![1u8; 4], vec![2; 8]];
        let list = spare.as_ptr();
        let parts = rebuild(Some(spare), 2, reuse);
        assert_eq!(parts.as_ptr(), list);
        assert_eq!(parts.iter().map(Vec::capacity).collect::<Vec<_>>(), [4, 8]);
        assert!(parts.iter().all(Vec::is_empty));
        let grown = rebuild(Some(parts), 3, reuse);
        assert_eq!(grown.iter().map(Vec::capacity).collect::<Vec<_>>(), [4, 8, 0]);
        assert_eq!(rebuild(Some(grown), 1, reuse).len(), 1);
        let fresh = rebuild(None, 2, |p: Option<u8>| p.unwrap_or(7));
        assert_eq!((fresh.capacity(), fresh), (2, vec![7, 7]));
    }
}
