//! Lock access with explicit poisoning policy.
//!
//! A `std` lock is poisoned when a thread panics while holding it. Every
//! critical section in this crate is a single map insert, remove, lookup
//! or clone, or one RNG draw, so a panic inside one cannot leave the
//! guarded value half-updated: the snapshot board, the hub's port map and
//! the loss RNG are each still a valid value. A poisoned lock is
//! therefore recovered, not propagated — one crashed node thread must not
//! take the whole cluster's observability and transport down with it.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Shared read access, recovering a poisoned lock (see the module docs).
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive write access, recovering a poisoned lock (see the module
/// docs).
pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Mutex access, recovering a poisoned lock (see the module docs).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread panicking while holding each kind of guard poisons the
    /// lock; the accessors still hand out the intact value.
    #[test]
    fn poisoned_locks_are_recovered_with_their_value() {
        let rw = RwLock::new(vec![1u8]);
        let mutex = Mutex::new(7u32);
        std::thread::scope(|scope| {
            let poison_rw = scope.spawn(|| {
                let mut guard = rw.write().unwrap();
                guard.push(2);
                panic!("poison the rwlock");
            });
            let poison_mutex = scope.spawn(|| {
                let _guard = mutex.lock().unwrap();
                panic!("poison the mutex");
            });
            assert!(poison_rw.join().is_err());
            assert!(poison_mutex.join().is_err());
        });
        assert!(rw.is_poisoned() && mutex.is_poisoned());
        assert_eq!(*read(&rw), vec![1, 2]);
        write(&rw).push(3);
        assert_eq!(*read(&rw), vec![1, 2, 3]);
        assert_eq!(*lock(&mutex), 7);
    }
}
