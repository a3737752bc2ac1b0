//! Offline shim for the `crossbeam-channel` surface the PerPos workspace
//! uses: [`unbounded`] channels with cloneable senders, non-blocking
//! receive, and disconnection tracking (a send to a dropped receiver
//! fails, which the positioning layer uses to prune dead subscribers).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    receiver_alive: AtomicBool,
    sender_count: AtomicUsize,
}

/// The sending half of an unbounded channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of an unbounded channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// All senders were dropped and the queue is drained.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => f.write_str("receiving on a disconnected channel"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv`] when all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on a disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        receiver_alive: AtomicBool::new(true),
        sender_count: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueues a message.
    ///
    /// # Errors
    ///
    /// Returns the message back when the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if !self.shared.receiver_alive.load(Ordering::Acquire) {
            return Err(SendError(value));
        }
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q.push_back(value);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.sender_count.fetch_add(1, Ordering::Relaxed);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.sender_count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Wake a blocked receiver so it can observe disconnection.
            self.shared.ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Receives a message without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when no message is queued,
    /// [`TryRecvError::Disconnected`] when the queue is drained and all
    /// senders are gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match q.pop_front() {
            Some(v) => Ok(v),
            None if self.shared.sender_count.load(Ordering::Acquire) == 0 => {
                Err(TryRecvError::Disconnected)
            }
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocks until a message arrives or every sender is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] when the channel is drained and disconnected.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.shared.sender_count.load(Ordering::Acquire) == 0 {
                return Err(RecvError);
            }
            q = self
                .shared
                .ready
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Drains currently queued messages without blocking.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receiver_alive.store(false, Ordering::Release);
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Iterator over currently queued messages (see [`Receiver::try_iter`]).
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_flow_in_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn try_recv_reports_disconnection() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn cloned_senders_share_the_queue() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send("a").unwrap();
        tx2.send("b").unwrap();
        drop((tx, tx2));
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42).unwrap();
        assert_eq!(handle.join().unwrap(), 42);
    }
}
