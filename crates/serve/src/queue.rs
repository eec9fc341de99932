//! Bounded admission queue with backpressure.
//!
//! The serving runtime admits work through one [`AdmissionQueue`]: a
//! FIFO that counts every admitted item until its consumer releases it,
//! and *rejects* — never blocks, never silently drops — once that count
//! reaches the queue's limit. Producers get the item back in the error
//! so they can surface a typed `Overloaded` to the caller; consumers
//! block on a condition variable and drain remaining items after
//! [`close`] (graceful shutdown: everything admitted is eventually
//! served).
//!
//! [`close`]: AdmissionQueue::close

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Condvar;

use aimq_catalog::{Leaf, Plain};

/// Why a push was refused. The item comes back so the caller can report
/// or retry — admission control must never lose work silently.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at its limit; the caller should shed load.
    Overloaded(T),
    /// The queue was closed; no new work is accepted.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    /// Admitted items not yet released: queued, or popped and in
    /// service.
    in_flight: usize,
    closed: bool,
}

/// Queued items, a count and a flag.
impl<T: Plain> Plain for QueueState<T> {}

/// A bounded multi-producer multi-consumer FIFO.
///
/// The bound is on items *in flight*: an item holds its slot from
/// [`AdmissionQueue::try_push`] until the [`Admitted`] handle that
/// [`AdmissionQueue::pop`] returns for it is released or dropped, so
/// items a consumer is still working on count against the limit.
///
/// All coordination is a single [`Leaf`] plus one condition variable —
/// simple enough to exhaustively test (see the dual-order smoke test)
/// and free of ordering subtleties. Throughput is bounded by the
/// engine work per item, not by queue handoff, so a finer-grained
/// design would buy nothing here.
pub struct AdmissionQueue<T> {
    state: Leaf<QueueState<T>>,
    available: Condvar,
    limit: usize,
}

impl<T: Plain> AdmissionQueue<T> {
    /// An open queue holding at most `limit` items in flight (minimum
    /// 1).
    pub fn new(limit: usize) -> Self {
        AdmissionQueue {
            state: Leaf::new(QueueState {
                items: VecDeque::new(),
                in_flight: 0,
                closed: false,
            }),
            available: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// Items waiting for a consumer (racy by nature; exact under the
    /// caller's own lock discipline only).
    pub fn len(&self) -> usize {
        self.state.with((), |state, ()| state.items.len())
    }

    /// `true` when no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items admitted and not yet released: queued, or with a consumer.
    pub fn in_flight(&self) -> usize {
        self.state.with((), |state, ()| state.in_flight)
    }

    /// Admit `item`, returning the number of waiting items *after* the
    /// push, or give it back with the reason admission failed. Never
    /// blocks.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let pushed = self.state.with((item, self.limit), |state, (item, limit)| {
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.in_flight >= limit {
                return Err(PushError::Overloaded(item));
            }
            state.in_flight = state.in_flight.saturating_add(1);
            state.items.push_back(item);
            Ok(state.items.len())
        });
        if pushed.is_ok() {
            self.available.notify_one();
        }
        pushed
    }

    /// Block until an item is available or the queue is closed *and*
    /// drained. `None` means shutdown: every admitted item has been
    /// handed to some consumer. The item keeps its slot until the
    /// returned handle is released or dropped.
    pub fn pop(&self) -> Option<Admitted<'_, T>> {
        let item = self.state.wait_for(&self.available, (), |state, ()| {
            match state.items.pop_front() {
                Some(item) => Some(Some(item)),
                None => state.closed.then_some(None),
            }
        })?;
        Some(Admitted {
            _slot: Slot(self),
            item,
        })
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`],
    /// consumers drain what was admitted and then observe `None`.
    pub fn close(&self) {
        self.state.with((), |state, ()| state.closed = true);
        self.available.notify_all();
    }
}

/// An item taken off an [`AdmissionQueue`], still holding its in-flight
/// slot. The slot is released by [`Admitted::release`], or when the
/// handle is dropped — including while a panicking consumer unwinds —
/// and always before the item itself is dropped.
pub struct Admitted<'a, T: Plain> {
    /// Declared first, so a dropped handle releases the slot before it
    /// drops the item.
    _slot: Slot<'a, T>,
    item: T,
}

impl<T: Plain> Admitted<'_, T> {
    /// Release the slot and hand out the item.
    pub fn release(self) -> T {
        let Admitted { _slot, item } = self;
        drop(_slot);
        item
    }
}

impl<T: Plain> Deref for Admitted<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.item
    }
}

/// One in-flight slot of an [`AdmissionQueue`], given back on drop.
struct Slot<'a, T: Plain>(&'a AdmissionQueue<T>);

impl<T: Plain> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        self.0.state.with((), |state, ()| {
            state.in_flight = state.in_flight.saturating_sub(1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::Counter;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_is_preserved() {
        let q = AdmissionQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop().map(Admitted::release), Some(i));
        }
    }

    #[test]
    fn overload_returns_the_item_and_depth_is_reported() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push("a").unwrap(), 1);
        assert_eq!(q.try_push("b").unwrap(), 2);
        match q.try_push("c") {
            Err(PushError::Overloaded(item)) => assert_eq!(item, "c"),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // A popped item keeps its slot until it is released.
        let a = q.pop().expect("queued");
        assert_eq!(*a, "a");
        assert_eq!((q.len(), q.in_flight()), (1, 2));
        assert!(matches!(q.try_push("c"), Err(PushError::Overloaded("c"))));
        // Releasing one slot re-opens admission; the depth counts only
        // waiting items.
        assert_eq!(a.release(), "a");
        assert_eq!(q.in_flight(), 1);
        assert_eq!(q.try_push("c").unwrap(), 2);
        // A dropped handle releases its slot too.
        drop(q.pop());
        assert_eq!((q.len(), q.in_flight()), (1, 1));
    }

    #[test]
    fn close_drains_admitted_items_then_yields_none() {
        let q = AdmissionQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        match q.try_push(3) {
            Err(PushError::Closed(item)) => assert_eq!(item, 3),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop().map(Admitted::release), Some(1));
        assert_eq!(q.pop().map(Admitted::release), Some(2));
        assert!(q.pop().is_none());
        assert!(q.pop().is_none(), "closed queue stays closed");
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(AdmissionQueue::<u32>::new(1));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop().map(Admitted::release))
            })
            .collect();
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    /// Concurrent producers/consumers: every admitted item is consumed
    /// exactly once, in both spawn orders (producers-first and
    /// consumers-first) — a cheap stand-in for a model checker that
    /// still exercises both "queue starts full" and "consumers park
    /// first" interleavings.
    #[test]
    fn dual_order_smoke_every_item_consumed_exactly_once() {
        for consumers_first in [false, true] {
            let q = Arc::new(AdmissionQueue::<u64>::new(8));
            let consumed = Arc::new(Counter::default());
            let count = Arc::new(Counter::default());

            let spawn_consumers = |q: &Arc<AdmissionQueue<u64>>| {
                (0..4)
                    .map(|_| {
                        let q = Arc::clone(q);
                        let consumed = Arc::clone(&consumed);
                        let count = Arc::clone(&count);
                        thread::spawn(move || {
                            while let Some(v) = q.pop() {
                                consumed.add(v.release());
                                count.incr();
                            }
                        })
                    })
                    .collect::<Vec<_>>()
            };
            let spawn_producers = |q: &Arc<AdmissionQueue<u64>>| {
                (0..4)
                    .map(|p| {
                        let q = Arc::clone(q);
                        thread::spawn(move || {
                            let mut admitted = 0u64;
                            for i in 0..64u64 {
                                let v = p * 1000 + i;
                                // Spin on overload: the test wants every
                                // value through, not load shedding.
                                let mut item = v;
                                loop {
                                    match q.try_push(item) {
                                        Ok(_) => break,
                                        Err(PushError::Overloaded(back)) => {
                                            item = back;
                                            thread::yield_now();
                                        }
                                        Err(PushError::Closed(_)) => return admitted,
                                    }
                                }
                                admitted += v;
                            }
                            admitted
                        })
                    })
                    .collect::<Vec<_>>()
            };

            let (producers, workers) = if consumers_first {
                let w = spawn_consumers(&q);
                (spawn_producers(&q), w)
            } else {
                let p = spawn_producers(&q);
                (p, spawn_consumers(&q))
            };

            let produced: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
            q.close();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(count.get(), 4 * 64);
            assert_eq!(consumed.get(), produced);
            assert_eq!(q.in_flight(), 0);
        }
    }
}
