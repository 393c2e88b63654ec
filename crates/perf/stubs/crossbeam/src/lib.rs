//! Offline stand-in for `crossbeam` 0.8: the `deque` and `channel`
//! surface the program uses, built on `std::sync` locks. Same semantics
//! (LIFO worker deque, FIFO injector and stealers, MPMC channels);
//! lock-based rather than lock-free.

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, PoisonError};

    fn locked<T>(q: &Mutex<VecDeque<T>>) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        q.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Outcome of a steal attempt. The lock-based queues never return
    /// `Retry`; it exists because the program matches on it.
    #[derive(Debug)]
    pub enum Steal<T> {
        Empty,
        Success(T),
        Retry,
    }

    impl<T> Steal<T> {
        fn from_option(v: Option<T>) -> Self {
            v.map_or(Steal::Empty, Steal::Success)
        }
    }

    /// A worker-owned LIFO deque: the owner pushes and pops at the back,
    /// stealers take from the front.
    #[derive(Debug)]
    pub struct Worker<T>(Arc<Mutex<VecDeque<T>>>);

    #[derive(Debug)]
    pub struct Stealer<T>(Arc<Mutex<VecDeque<T>>>);

    impl<T> Worker<T> {
        pub fn new_lifo() -> Self {
            Worker(Arc::new(Mutex::new(VecDeque::new())))
        }

        pub fn stealer(&self) -> Stealer<T> {
            Stealer(Arc::clone(&self.0))
        }

        pub fn push(&self, value: T) {
            locked(&self.0).push_back(value);
        }

        pub fn pop(&self) -> Option<T> {
            locked(&self.0).pop_back()
        }

        pub fn is_empty(&self) -> bool {
            locked(&self.0).is_empty()
        }
    }

    impl<T> Stealer<T> {
        pub fn steal(&self) -> Steal<T> {
            Steal::from_option(locked(&self.0).pop_front())
        }

        pub fn is_empty(&self) -> bool {
            locked(&self.0).is_empty()
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer(Arc::clone(&self.0))
        }
    }

    /// The shared FIFO queue external submitters push into.
    #[derive(Debug)]
    pub struct Injector<T>(Mutex<VecDeque<T>>);

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        pub fn new() -> Self {
            Injector(Mutex::new(VecDeque::new()))
        }

        pub fn push(&self, value: T) {
            locked(&self.0).push_back(value);
        }

        pub fn steal(&self) -> Steal<T> {
            Steal::from_option(locked(&self.0).pop_front())
        }

        /// Take one job for the caller and move up to half of the rest
        /// (at most 32) into `dest`.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut q = locked(&self.0);
            let Some(first) = q.pop_front() else {
                return Steal::Empty;
            };
            let extra = (q.len() / 2).min(32);
            if extra > 0 {
                let mut d = locked(&dest.0);
                // Reversed, so the owner's LIFO pop sees them in FIFO order.
                let batch: Vec<T> = q.drain(..extra).collect();
                d.extend(batch.into_iter().rev());
            }
            Steal::Success(first)
        }

        pub fn is_empty(&self) -> bool {
            locked(&self.0).is_empty()
        }
    }
}

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Chan<T>>);
    pub struct Receiver<T>(Arc<Chan<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    /// The program only uses `bounded(1)` for send-once reply slots, so
    /// the capacity never blocks a sender and is not enforced here.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            drop(st);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match st.queue.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .0
                    .ready
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn is_empty(&self) -> bool {
            self.0.lock().queue.is_empty()
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.lock().receivers -= 1;
        }
    }
}
