//! The acceptor → worker hand-off: a blocking multi-consumer queue.
//!
//! `std::sync::mpsc::Receiver` has one consumer, so sharing it between
//! workers means a `Mutex` around it, and a blocking `recv` under that
//! mutex would park every other worker on the lock instead of the queue.
//! A `VecDeque` behind a `Mutex` with a `Condvar` has neither problem:
//! idle workers all wait on the condvar (which releases the lock), and a
//! pushed item wakes exactly one of them at once — no poll interval
//! between a connection being accepted and a worker picking it up.
//! The front end ([`crate::server::FrontEnd`]) that `vdbd` and the
//! router share is its one user.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking FIFO shared by one producer side and any number of
/// consumers. [`WorkQueue::pop`] blocks until an item is queued or the
/// queue is closed *and* drained, so items pushed before
/// [`WorkQueue::close`] are never lost.
pub(crate) struct WorkQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> WorkQueue<T> {
    /// An empty, open queue.
    pub(crate) fn new() -> Self {
        WorkQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // The queue is valid at every step of every update, so a panic
        // elsewhere while the lock was held leaves nothing to repair.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue an item and wake one waiting consumer.
    pub(crate) fn push(&self, item: T) {
        self.lock().items.push_back(item);
        self.ready.notify_one();
    }

    /// Stop the queue: consumers drain what is queued, then see `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Take the oldest item, blocking while the queue is empty and open.
    /// `None` means closed and drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn items_queued_before_close_are_still_delivered_in_order() {
        let q = WorkQueue::new();
        q.push(1);
        q.push(2);
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed stays closed");
    }

    /// Consumers parked on an empty queue are woken by a push (one item,
    /// one consumer) and all released by close — no timer involved.
    #[test]
    fn blocked_consumers_wake_on_push_and_on_close() {
        const CONSUMERS: usize = 4;
        let q = Arc::new(WorkQueue::<u32>::new());
        let (got_tx, got_rx) = mpsc::channel();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let got_tx = got_tx.clone();
                std::thread::spawn(move || {
                    let mut taken = 0;
                    while let Some(item) = q.pop() {
                        got_tx.send(item).unwrap();
                        taken += 1;
                    }
                    taken
                })
            })
            .collect();
        for item in 0..100 {
            q.push(item);
        }
        let mut seen: Vec<u32> = (0..100).map(|_| got_rx.recv().unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>(), "each item exactly once");
        q.close();
        let taken: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(taken, 100);
    }
}
