//! Async serving: the submission contract in front of every
//! [`ReplicaPool`](crate::pool::ReplicaPool).
//!
//! The paper's macro is self-synchronous and completion-driven — a token
//! is done when the DLC ripple settles, not when a clock says so — which
//! makes variable-latency, many-client serving the natural software
//! analogue. This module holds the client-facing half of that serving
//! front door: any number of client threads call
//! [`ReplicaPool::submit`](crate::pool::ReplicaPool::submit) and get
//! back a [`BatchTicket`] immediately; the pool coalesces pending
//! submissions into micro-batches under a [`QueuePolicy`], runs them on
//! its replicas, and resolves each ticket with a [`QueueReply`]: that
//! request's own slice of the results plus its measured queue-wait and
//! service latency.
//!
//! [`Session::into_pool`](crate::session::Session::into_pool) is the
//! one conversion from a session to a serving pool; the default
//! [`ServePolicy`](crate::pool::ServePolicy) is a single FIFO replica, so
//! `into_pool(ServePolicy::default().with_queue(policy))` is a plain
//! one-backend queue.
//!
//! Design points, in the order they matter:
//!
//! * **No executor.** Tickets are condvar-backed wait/poll handles on
//!   `std` threads — the workspace has no async runtime and the vendored
//!   dependency set stays closed.
//! * **Bounded on two axes.** A pool holds at most
//!   [`QueuePolicy::max_depth`] unresolved requests and at most
//!   [`QueuePolicy::max_pending_tokens`] queued tokens; beyond either,
//!   `submit` answers with typed [`BackendError::QueueFull`]
//!   backpressure (naming the bound hit via
//!   [`QueueLimit`](crate::error::QueueLimit)) instead of buffering
//!   without limit.
//! * **Coalescing.** Whole requests are packed into a micro-batch of up
//!   to [`QueuePolicy::max_batch`] tokens, lingering up to
//!   [`QueuePolicy::max_linger`] past the oldest submission to let a
//!   fuller batch form. A micro-batch never splits a request.
//! * **Exactly-once resolution.** Accepted tickets always resolve — with
//!   results when a replica serves them, with a typed error otherwise.
//!   No ticket is ever leaked.
//!
//! ```
//! use maddpipe_runtime::prelude::*;
//! use maddpipe_core::prelude::*;
//!
//! let cfg = MacroConfig::new(2, 2);
//! let program = MacroProgram::random(cfg.ndec, cfg.ns, 42);
//! let queue = Session::builder(cfg)
//!     .program(program.clone())
//!     .build()
//!     .unwrap()
//!     .into_pool(ServePolicy::default().with_queue(QueuePolicy::default()))
//!     .unwrap();
//! std::thread::scope(|s| {
//!     for client in 0..4u64 {
//!         let queue = &queue;
//!         let program = &program;
//!         s.spawn(move || {
//!             let batch = TokenBatch::random(2, 8, client);
//!             let ticket = queue.submit(batch.clone()).expect("accepted");
//!             let reply = ticket.wait().expect("served");
//!             assert_eq!(
//!                 reply.result.tokens[0].outputs,
//!                 program.reference_output(&batch.tokens()[0]),
//!             );
//!         });
//!     }
//! });
//! let stats = queue.shutdown();
//! assert_eq!(stats.tokens(), 32);
//! assert!(stats.p50_queue_wait().is_some());
//! ```

use crate::batch::BatchResult;
use crate::error::BackendError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a [`ReplicaPool`](crate::pool::ReplicaPool) coalesces
/// submissions into micro-batches and when it pushes back on clients.
///
/// ```
/// use maddpipe_runtime::queue::QueuePolicy;
/// use std::time::Duration;
///
/// let policy = QueuePolicy::default()
///     .with_max_batch(128)
///     .with_max_linger(Duration::from_micros(500))
///     .with_max_depth(256)
///     .with_max_pending_tokens(4096);
/// assert_eq!(policy.max_batch, 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Most tokens the dispatcher packs into one micro-batch. Whole
    /// requests are never split: a single request larger than this runs
    /// alone as an oversized micro-batch.
    pub max_batch: usize,
    /// How long past the *oldest* pending submission the dispatcher
    /// lingers for more requests before dispatching a partial
    /// micro-batch. `Duration::ZERO` dispatches immediately.
    pub max_linger: Duration,
    /// Most unresolved requests (queued or executing) the queue holds;
    /// submissions beyond it are rejected with
    /// [`BackendError::QueueFull`].
    pub max_depth: usize,
    /// Most *queued* tokens (batch payload awaiting dispatch) the queue
    /// holds — the memory bound `max_depth`'s request count cannot give
    /// when clients submit huge batches. Submissions that would exceed
    /// it are rejected with [`BackendError::QueueFull`], except into an
    /// empty waiting room (mirroring the oversized `max_batch` rule, so
    /// a large request can never be starved).
    pub max_pending_tokens: usize,
}

impl Default for QueuePolicy {
    /// 64-token micro-batches, a 200 µs linger, room for 1024
    /// unresolved requests and 1 Mi queued tokens.
    fn default() -> QueuePolicy {
        QueuePolicy {
            max_batch: 64,
            max_linger: Duration::from_micros(200),
            max_depth: 1024,
            max_pending_tokens: 1 << 20,
        }
    }
}

impl QueuePolicy {
    /// Sets the micro-batch token bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> QueuePolicy {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the linger deadline for partial micro-batches.
    #[must_use]
    pub fn with_max_linger(mut self, max_linger: Duration) -> QueuePolicy {
        self.max_linger = max_linger;
        self
    }

    /// Sets the unresolved-request bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: usize) -> QueuePolicy {
        self.max_depth = max_depth.max(1);
        self
    }

    /// Sets the queued-token bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_pending_tokens(mut self, max_pending_tokens: usize) -> QueuePolicy {
        self.max_pending_tokens = max_pending_tokens.max(1);
        self
    }
}

/// What a resolved [`BatchTicket`] carries back to its submitter.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueReply {
    /// This request's own results: one observation per submitted token,
    /// in submission order — sliced out of the micro-batch it rode in.
    /// `makespan` is the whole micro-batch's (the backend ran the tokens
    /// together); `energy` is the sum over this request's tokens when
    /// every one was measured.
    pub result: BatchResult,
    /// Host time from submit to a dispatcher picking the request up —
    /// the queueing delay the client paid.
    pub queue_wait: Duration,
    /// Host time the backend spent serving the micro-batch this request
    /// rode in.
    pub service: Duration,
    /// Total tokens in that micro-batch (≥ this request's own count) —
    /// how much coalescing the policy achieved.
    pub coalesced_tokens: usize,
    /// Index of the [`ReplicaPool`](crate::pool::ReplicaPool) replica
    /// that served the micro-batch (always 0 behind a one-replica pool).
    pub replica: usize,
}

/// The state a ticket moves through: submitted → resolved → claimed.
pub(crate) enum TicketState {
    /// Still queued or executing.
    Pending,
    /// Resolved; the value waits to be claimed by `wait`/`poll`.
    Ready(Box<Result<QueueReply, BackendError>>),
    /// The value was handed to the submitter.
    Claimed,
}

/// The shared cell a ticket and the dispatcher communicate through.
pub(crate) struct TicketCell {
    state: Mutex<TicketState>,
    done: Condvar,
}

impl TicketCell {
    pub(crate) fn new() -> Arc<TicketCell> {
        Arc::new(TicketCell {
            state: Mutex::new(TicketState::Pending),
            done: Condvar::new(),
        })
    }

    /// Resolves the ticket if it is still pending (never overwrites an
    /// earlier resolution). Robust against poisoning: a resolution must
    /// reach the submitter even while the dispatcher is unwinding.
    pub(crate) fn resolve(&self, value: Result<QueueReply, BackendError>) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if matches!(*state, TicketState::Pending) {
            *state = TicketState::Ready(Box::new(value));
            self.done.notify_all();
        }
    }

    /// Claims a ready resolution, moving the state to `Claimed`; `None`
    /// while the ticket is still pending. The single claim step shared
    /// by `poll`/`wait`/`wait_timeout`.
    fn try_claim(state: &mut TicketState) -> Option<Result<QueueReply, BackendError>> {
        if matches!(state, TicketState::Ready(_)) {
            if let TicketState::Ready(value) = std::mem::replace(state, TicketState::Claimed) {
                return Some(*value);
            }
        }
        None
    }
}

/// A future-like handle to one submitted request: poll it or block on it
/// from the submitting thread; the dispatcher resolves it exactly once.
#[must_use = "a submission resolves only through wait()/poll(); dropping the ticket discards the result"]
pub struct BatchTicket {
    cell: Arc<TicketCell>,
}

impl BatchTicket {
    /// Wraps a freshly armed cell (the pool's submit path).
    pub(crate) fn from_cell(cell: Arc<TicketCell>) -> BatchTicket {
        BatchTicket { cell }
    }

    /// Whether the request has been resolved (successfully or not) —
    /// `wait` will not block once this returns `true`.
    pub fn is_ready(&self) -> bool {
        !matches!(
            *self.cell.state.lock().expect("ticket lock"),
            TicketState::Pending
        )
    }

    /// Non-blocking claim: the resolution if the request is done, the
    /// ticket itself (to try again later) if it is still in flight.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` while the request is unresolved.
    pub fn poll(self) -> Result<Result<QueueReply, BackendError>, BatchTicket> {
        {
            let mut state = self.cell.state.lock().expect("ticket lock");
            if let Some(value) = TicketCell::try_claim(&mut state) {
                return Ok(value);
            }
        }
        Err(self)
    }

    /// Blocks until the dispatcher resolves the request.
    ///
    /// # Errors
    ///
    /// Propagates the backend's typed error for the micro-batch this
    /// request rode in, or [`BackendError::QueueClosed`] when the queue
    /// shut down before the request could be served.
    pub fn wait(self) -> Result<QueueReply, BackendError> {
        let mut state = self.cell.state.lock().expect("ticket lock");
        loop {
            if let Some(value) = TicketCell::try_claim(&mut state) {
                return value;
            }
            state = self.cell.done.wait(state).expect("ticket lock");
        }
    }

    /// [`wait`](BatchTicket::wait) with a deadline: the resolution if it
    /// arrives within `timeout`, otherwise the ticket back. A `timeout`
    /// too large to represent as a deadline (e.g. [`Duration::MAX`])
    /// degrades to an unbounded [`wait`](BatchTicket::wait).
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the timeout elapses first.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<QueueReply, BackendError>, Self> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Ok(self.wait());
        };
        {
            let mut state = self.cell.state.lock().expect("ticket lock");
            loop {
                if let Some(value) = TicketCell::try_claim(&mut state) {
                    return Ok(value);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                let (s, _) = self
                    .cell
                    .done
                    .wait_timeout(state, left)
                    .expect("ticket lock");
                state = s;
            }
        }
        Err(self)
    }
}

impl core::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BatchTicket")
            .field("ready", &self.is_ready())
            .finish()
    }
}
