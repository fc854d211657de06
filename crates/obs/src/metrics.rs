//! The lock-free metric primitive: a counter. Every mutation is a single
//! relaxed atomic RMW; a snapshot is a plain value.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Const initializer usable in array-repeat position. Every use
    /// copies a fresh zeroed atomic — that is the point; mutate through
    /// a place (array slot, struct field), never through `NEW` itself.
    #[allow(clippy::declare_interior_mutable_const)]
    pub const NEW: Counter = Counter(AtomicU64::new(0));

    pub const fn new() -> Self {
        Self::NEW
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
