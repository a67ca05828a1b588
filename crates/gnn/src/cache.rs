//! Epoch-keyed model-side caches.
//!
//! A model is re-evaluated over the same graph by every localized inference
//! call. Model-side intermediates that depend only on a slowly-changing
//! input are cached with the model, keyed by the relevant
//! [`rcw_graph::Graph`] epoch. The one user is [`crate::Appnp`]: its local
//! logits `H = f_theta(X)` depend on node features but not on edges, so the
//! model keeps them keyed by
//! [`Graph::feature_epoch`](rcw_graph::Graph::feature_epoch) and every ball
//! gathers rows of `H` instead of re-running the MLP. A stale epoch simply
//! recomputes, so there is no invalidation API to call at graph mutation
//! time; only a change of the model itself (training) drops the slot.

use std::sync::{Arc, Mutex};

/// A single-slot cache holding one value tagged with the epoch it was
/// computed at. Interior-mutable (`&self` API) so it can sit inside a shared
/// model and be used from worker threads. A clone starts with the same
/// cached value in a slot of its own.
#[derive(Debug, Default)]
pub struct EpochCache<T> {
    slot: Mutex<Option<(u64, Arc<T>)>>,
}

impl<T> Clone for EpochCache<T> {
    fn clone(&self) -> Self {
        EpochCache {
            slot: Mutex::new(self.slot.lock().expect("EpochCache lock poisoned").clone()),
        }
    }
}

impl<T> EpochCache<T> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        EpochCache {
            slot: Mutex::new(None),
        }
    }

    /// Returns the cached value if it was computed at `epoch`, otherwise
    /// computes it with `f`, stores it under `epoch`, and returns it. The
    /// compute closure runs under the cache lock, so it must not re-enter the
    /// same cache.
    pub fn get_or_insert_with(&self, epoch: u64, f: impl FnOnce() -> T) -> Arc<T> {
        let mut slot = self.slot.lock().expect("EpochCache lock poisoned");
        if let Some((e, v)) = slot.as_ref() {
            if *e == epoch {
                return Arc::clone(v);
            }
        }
        let v = Arc::new(f());
        *slot = Some((epoch, Arc::clone(&v)));
        v
    }

    /// Drops the cached value unconditionally.
    pub fn invalidate(&self) {
        *self.slot.lock().expect("EpochCache lock poisoned") = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_per_epoch_and_recomputes_on_change() {
        let cache: EpochCache<usize> = EpochCache::new();
        let mut computes = 0;
        let mut get = |epoch| {
            *cache.get_or_insert_with(epoch, || {
                computes += 1;
                epoch as usize * 10
            })
        };
        assert_eq!(get(1), 10);
        assert_eq!(get(1), 10, "hit");
        assert_eq!(get(2), 20, "epoch change recomputes");
        assert_eq!(get(2), 20);
        assert_eq!(computes, 2);
    }

    #[test]
    fn a_clone_keeps_the_value_in_a_slot_of_its_own() {
        let cache: EpochCache<u8> = EpochCache::new();
        cache.get_or_insert_with(3, || 1);
        let copy = cache.clone();
        assert_eq!(*copy.get_or_insert_with(3, || 2), 1, "clone starts warm");
        copy.invalidate();
        assert_eq!(*copy.get_or_insert_with(3, || 2), 2, "the clone recomputes");
        assert_eq!(
            *cache.get_or_insert_with(3, || 4),
            1,
            "the original is untouched"
        );
    }

    #[test]
    fn invalidate_empties_the_slot() {
        let cache: EpochCache<u8> = EpochCache::new();
        cache.get_or_insert_with(7, || 1);
        cache.invalidate();
        let mut recomputed = false;
        cache.get_or_insert_with(7, || {
            recomputed = true;
            2
        });
        assert!(recomputed);
    }
}
