//! Bounded admission queue with backpressure.
//!
//! The serving runtime admits work through one [`AdmissionQueue`]: a
//! fixed-capacity FIFO that *rejects* — never blocks, never silently
//! drops — when full. Producers get the item back in the error so they
//! can surface a typed `Overloaded` to the caller; consumers block on a
//! condition variable and drain remaining items after [`close`]
//! (graceful shutdown: everything admitted is eventually served).
//!
//! [`close`]: AdmissionQueue::close

use std::collections::VecDeque;
use std::sync::Condvar;

use aimq_catalog::{Leaf, Plain};

/// Why a push was refused. The item comes back so the caller can report
/// or retry — admission control must never lose work silently.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; the caller should shed load.
    Overloaded(T),
    /// The queue was closed; no new work is accepted.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Queued items and a flag.
impl<T: Plain> Plain for QueueState<T> {}

/// A bounded multi-producer multi-consumer FIFO.
///
/// All coordination is a single mutex plus one condition variable —
/// simple enough to exhaustively test (see the dual-order smoke test)
/// and free of ordering subtleties. Throughput is bounded by the
/// engine work per item, not by queue handoff, so a finer-grained
/// design would buy nothing here.
pub struct AdmissionQueue<T> {
    state: Leaf<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T: Plain> AdmissionQueue<T> {
    /// An open queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Leaf::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy by nature; exact under the caller's own lock
    /// discipline only).
    pub fn len(&self) -> usize {
        self.state.with((), |state, ()| state.items.len())
    }

    /// `true` when no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit `item`, returning the depth *after* the push, or give it
    /// back with the reason admission failed. Never blocks.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let pushed = self
            .state
            .with((item, self.capacity), |state, (item, capacity)| {
                if state.closed {
                    return Err(PushError::Closed(item));
                }
                if state.items.len() >= capacity {
                    return Err(PushError::Overloaded(item));
                }
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
    /// handed to some consumer.
    pub fn pop(&self) -> Option<T> {
        self.state.wait_for(&self.available, (), |state, ()| {
            match state.items.pop_front() {
                Some(item) => Some(Some(item)),
                None => state.closed.then_some(None),
            }
        })
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`],
    /// consumers drain what was admitted and then observe `None`.
    pub fn close(&self) {
        self.state.with((), |state, ()| state.closed = true);
        self.available.notify_all();
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
            assert_eq!(q.pop(), Some(i));
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
        // Draining one slot re-opens admission.
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.try_push("c").unwrap(), 2);
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
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed queue stays closed");
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(AdmissionQueue::<u32>::new(1));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
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
                                consumed.add(v);
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
        }
    }
}
