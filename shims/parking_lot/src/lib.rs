//! API-compatible subset of `parking_lot`, implemented on `std::sync`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the few primitives the runtime needs: a non-poisoning [`Mutex`]
//! and a [`Condvar`] whose `wait` takes the guard by `&mut` (parking_lot
//! style) rather than by value (std style).

use std::sync;

/// A mutual-exclusion lock that never poisons: a panic while holding the
/// lock simply releases it, like `parking_lot::Mutex`.
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so a `Condvar` can take the std guard out, block, and put it
    // back without dropping the borrow the caller holds.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Unlike `std`, a panic in
    /// a previous holder does not make this return an error.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner)) }
    }

    /// Acquire the lock only if it is free right now, `parking_lot` style:
    /// `Some(guard)` on success, `None` when another thread holds it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard { inner: Some(p.into_inner()) }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Condition variable matching the `parking_lot` calling convention.
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar { inner: sync::Condvar::new() }
    }

    /// Block until notified, releasing `guard`'s lock while parked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present");
        let std_guard = self.inner.wait(std_guard).unwrap_or_else(sync::PoisonError::into_inner);
        guard.inner = Some(std_guard);
    }

    /// Wake one parked waiter. Returns whether a thread could have been woken.
    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        true
    }

    /// Wake every parked waiter. Returns the (unknown) number of woken
    /// threads as 0, matching callers that ignore the result.
    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Mutex::new(1);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            *g = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            cv.wait(&mut g);
        }
        t.join().unwrap();
        assert!(*g);
    }

    #[test]
    fn panic_does_not_poison() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
