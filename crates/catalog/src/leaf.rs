//! Leaf locks: shared mutable state whose critical sections cannot
//! block, nest or probe.
//!
//! The paper's source is autonomous, so a probe can stall for as long as
//! the source takes, and no lock may be held across one. `clippy.toml`
//! bans the raw `std::sync::Mutex` and `RwLock` in the library crates,
//! so [`Leaf`] is how they share mutable state. Its one way in is
//! [`Leaf::with`], whose critical section is a `fn` pointer:
//!
//! - a `fn` captures nothing, so a section cannot reach the source, a
//!   channel or another lock through its environment (a capturing
//!   closure fails to coerce, E0308);
//! - everything else it sees is its `input`, which must be [`Plain`],
//!   and a `Leaf`, a source or a blocking handle is not (E0277);
//! - the guard never leaves the call, so no lock outlives its section.
//!
//! Two assumptions remain, and both are local to their declarations:
//! each `impl Plain` is honest (its type holds no lock, source or
//! blocking handle), and no `Leaf` lives in a `static` or a thread-local
//! a section could name ([`Leaf::new`] is not `const`).
#![expect(
    clippy::disallowed_types,
    reason = "the audited home of the workspace's one Mutex"
)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Data a [`Leaf`] critical section may hold or be handed: it owns no
/// lock, no source and no blocking handle, so nothing reachable from it
/// can stall or nest a section.
///
/// Implement it once per state or input type, with a one-line reason.
pub trait Plain {}

macro_rules! plain {
    ($($t:ty),* $(,)?) => { $(impl Plain for $t {})* };
}

plain!(
    (),
    bool,
    char,
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    str,
    String,
);

// The catalog's value types: owned values, with no handle to anything.
plain!(
    crate::Value,
    crate::Tuple,
    crate::Predicate,
    crate::SelectionQuery,
);

impl<T: Plain + ?Sized> Plain for &T {}
impl<T: Plain> Plain for Option<T> {}
impl<T: Plain> Plain for Vec<T> {}
impl<T: Plain> Plain for VecDeque<T> {}
impl<A: Plain, B: Plain> Plain for (A, B) {}
impl<A: Plain, B: Plain, C: Plain> Plain for (A, B, C) {}
impl<A: Plain, B: Plain, C: Plain, D: Plain> Plain for (A, B, C, D) {}

/// A mutex whose critical sections are `fn` pointers over [`Plain`]
/// data (see the module docs).
///
/// A panic inside a section poisons nothing: the next section sees the
/// state as the panicking one left it, because every state behind a
/// `Leaf` is plain bookkeeping that stays valid between statements.
pub struct Leaf<T>(Mutex<T>);

impl<T: Plain> Leaf<T> {
    /// A leaf lock around `value`. Deliberately not `const`, so a
    /// `Leaf` cannot sit in a plain `static`.
    pub fn new(value: T) -> Self {
        Leaf(Mutex::new(value))
    }

    /// Run the critical section `f` over the state and `input`.
    pub fn with<I: Plain, R>(&self, input: I, f: fn(&mut T, I) -> R) -> R {
        f(&mut self.guard(), input)
    }

    /// Run `f` until it returns `Some`, parking on `ready` in between.
    /// The lock is released while parked; whoever changes the state so
    /// that `f` could succeed must notify `ready` after their section.
    pub fn wait_for<I: Plain + Copy, R>(
        &self,
        ready: &Condvar,
        input: I,
        f: fn(&mut T, I) -> Option<R>,
    ) -> R {
        let mut guard = self.guard();
        loop {
            if let Some(out) = f(&mut guard, input) {
                return out;
            }
            guard = ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn guard(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Plain + fmt::Debug> fmt::Debug for Leaf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Leaf").field(&*self.guard()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn sections_see_their_input_and_return_a_value() {
        let leaf = Leaf::new(Vec::<u32>::new());
        let len = leaf.with(7, |v, x| {
            v.push(x);
            v.len()
        });
        assert_eq!(len, 1);
        assert_eq!(leaf.with((), |v, ()| v.clone()), vec![7]);
    }

    #[test]
    fn a_panicking_section_leaves_the_state_readable() {
        let leaf = Arc::new(Leaf::new(0u64));
        let panicker = Arc::clone(&leaf);
        let joined = thread::spawn(move || {
            panicker.with((), |n, ()| {
                *n = 5;
                panic!("section panics mid-update");
            })
        })
        .join();
        assert!(joined.is_err(), "the section panicked");
        assert_eq!(leaf.with((), |n, ()| *n), 5);
        leaf.with(1, |n, x| *n += x);
        assert_eq!(leaf.with((), |n, ()| *n), 6);
    }

    #[test]
    fn wait_for_wakes_on_notify_all_after_a_close() {
        #[derive(Default)]
        struct Gate {
            closed: bool,
            checks: u32,
        }
        impl Plain for Gate {}

        let state = Arc::new((Leaf::new(Gate::default()), Condvar::new()));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let state = Arc::clone(&state);
                thread::spawn(move || {
                    let (leaf, ready) = &*state;
                    leaf.wait_for(ready, (), |g, ()| {
                        g.checks += 1;
                        g.closed.then_some("closed")
                    })
                })
            })
            .collect();
        // A waiter that checked the open gate released the lock only by
        // parking, so once all three have checked, all three are parked.
        let (leaf, ready) = &*state;
        while leaf.with((), |g, ()| g.checks) < 3 {
            thread::yield_now();
        }
        leaf.with((), |g, ()| g.closed = true);
        ready.notify_all();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), "closed");
        }
    }

    #[test]
    fn debug_shows_the_state() {
        assert_eq!(format!("{:?}", Leaf::new(3u8)), "Leaf(3)");
    }
}
