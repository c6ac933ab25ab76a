//! Cluster-level load/store unit with a bounded request queue.
//!
//! The paper queues "individual loads and stores … at the level of the
//! processing cluster" (§5.1) and attributes many DiAG stalls to "full LSU
//! request queues" (§7.3.2). [`Lsu`] models a unit that accepts at most one
//! request per cycle (without program-order coupling — the memory lanes
//! "enable access reordering", §5.2) and tracks a bounded window of
//! outstanding accesses; when the window is full the requester must stall
//! (a memory stall).

use diag_trace::{Event, EventKind, Tracer, Track};

use crate::meter::PortMeter;

/// A bounded-occupancy, one-request-per-cycle load/store port.
#[derive(Debug, Clone)]
pub struct Lsu {
    /// Completion times of in-flight requests (unordered).
    outstanding: Vec<u64>,
    /// Maximum in-flight requests.
    depth: usize,
    /// One acceptance per cycle, grantable out of order.
    port: PortMeter,
    /// Total accepted requests.
    accepted: u64,
    /// Requests rejected because the queue was full.
    rejections: u64,
}

impl Lsu {
    /// Creates an LSU with the given outstanding-request window.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero: such a unit could never accept a
    /// request.
    pub fn new(depth: usize) -> Lsu {
        let mut lsu = Lsu {
            outstanding: Vec::new(),
            depth: 1,
            port: PortMeter::new(1),
            accepted: 0,
            rejections: 0,
        };
        lsu.renew(depth);
        lsu
    }

    /// Retires completed requests as of cycle `now`.
    fn drain(&mut self, now: u64) {
        self.outstanding.retain(|&t| t > now);
    }

    /// Attempts to accept a request at cycle `now`. Returns the cycle at
    /// which the request is handed to the cache (after port arbitration),
    /// or `None` when the queue is full — the caller must retry later and
    /// record a memory stall.
    pub fn try_issue(&mut self, now: u64) -> Option<u64> {
        self.drain(now);
        if self.outstanding.len() >= self.depth {
            self.rejections += 1;
            return None;
        }
        let start = self.port.next(now);
        self.accepted += 1;
        Some(start)
    }

    /// Completion time of the oldest outstanding request, if any — the
    /// earliest moment a full queue frees a slot.
    pub fn front_completion(&self) -> Option<u64> {
        self.outstanding.iter().copied().min()
    }

    /// Accepts a request at the earliest feasible time at or after `now`,
    /// waiting for queue room if necessary. Returns `(start, waited)` where
    /// `waited` is the stall caused by a full queue (a memory stall in the
    /// paper's taxonomy, §7.3.2).
    pub fn issue_blocking(&mut self, now: u64) -> (u64, u64) {
        let mut t = now;
        loop {
            match self.try_issue(t) {
                Some(start) => return (start, start.saturating_sub(now)),
                None => {
                    // The queue is full and `depth > 0`, so it has a front.
                    let front = self.front_completion().unwrap_or(t);
                    t = front.max(t + 1);
                }
            }
        }
    }

    /// [`Lsu::issue_blocking`] with trace instrumentation: emits an
    /// [`EventKind::LsuEnqueue`] on `tracer` (an async-begin in the
    /// Perfetto export) and returns `(start, waited, id)` where `id` is
    /// the per-LSU request serial number pairing the enqueue with its
    /// [`Lsu::complete_at_traced`]. With a disabled tracer this is
    /// exactly `issue_blocking`.
    pub fn issue_blocking_traced(
        &mut self,
        now: u64,
        write: bool,
        tracer: &Tracer,
        thread: u32,
        unit: u32,
    ) -> (u64, u64, u64) {
        let (start, waited) = self.issue_blocking(now);
        let id = self.accepted - 1;
        tracer.emit(|| Event {
            cycle: start,
            thread,
            track: Track::Lsu(unit),
            kind: EventKind::LsuEnqueue {
                id,
                write,
                wait: waited,
                // This request occupies a slot from `start`; it is pushed
                // into `outstanding` by the matching complete call.
                occupancy: self.outstanding.len() as u32 + 1,
            },
        });
        (start, waited, id)
    }

    /// Records the completion time of the most recently issued request so
    /// the occupancy window reflects it.
    pub fn complete_at(&mut self, ready_at: u64) {
        self.outstanding.push(ready_at);
    }

    /// [`Lsu::complete_at`] with trace instrumentation: emits the
    /// [`EventKind::LsuComplete`] closing request `id` (the async-end in
    /// the Perfetto export).
    pub fn complete_at_traced(
        &mut self,
        ready_at: u64,
        id: u64,
        tracer: &Tracer,
        thread: u32,
        unit: u32,
    ) {
        self.complete_at(ready_at);
        tracer.emit(|| Event {
            cycle: ready_at,
            thread,
            track: Track::Lsu(unit),
            kind: EventKind::LsuComplete { id },
        });
    }

    /// Number of requests currently in flight as of `now`.
    pub fn in_flight(&mut self, now: u64) -> usize {
        self.drain(now);
        self.outstanding.len()
    }

    /// Whether the queue has room at `now` without consuming the port.
    pub fn has_room(&mut self, now: u64) -> bool {
        self.drain(now);
        self.outstanding.len() < self.depth
    }

    /// Total requests accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total requests rejected due to a full queue.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Resets port and queue state (on cluster free), keeping statistics.
    pub fn reset(&mut self) {
        self.outstanding.clear();
        self.port.reset();
    }

    /// Returns the unit to the state of [`Lsu::new`]`(depth)`, keeping
    /// its queue and port storage.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn renew(&mut self, depth: usize) {
        assert!(depth > 0, "LSU depth must be positive");
        self.outstanding.clear();
        self.outstanding.reserve(depth);
        self.depth = depth;
        self.port.renew(1);
        self.accepted = 0;
        self.rejections = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_request_per_cycle() {
        let mut lsu = Lsu::new(4);
        let a = lsu.try_issue(10).unwrap();
        lsu.complete_at(a + 3);
        let b = lsu.try_issue(10).unwrap();
        lsu.complete_at(b + 3);
        assert_eq!(a, 10);
        assert_eq!(b, 11);
    }

    #[test]
    fn port_grants_out_of_order() {
        let mut lsu = Lsu::new(8);
        let late = lsu.try_issue(100).unwrap();
        lsu.complete_at(late + 1);
        // An independent request at an earlier time is not delayed.
        let early = lsu.try_issue(5).unwrap();
        assert_eq!(early, 5);
        lsu.complete_at(early + 1);
    }

    #[test]
    fn full_queue_rejects() {
        let mut lsu = Lsu::new(2);
        for _ in 0..2 {
            let t = lsu.try_issue(0).unwrap();
            lsu.complete_at(t + 100);
        }
        assert_eq!(lsu.try_issue(5), None);
        assert_eq!(lsu.rejections(), 1);
        // After completions drain, requests are accepted again.
        assert!(lsu.try_issue(200).is_some());
    }

    #[test]
    fn issue_blocking_waits_for_room() {
        let mut lsu = Lsu::new(1);
        let t = lsu.try_issue(0).unwrap();
        lsu.complete_at(t + 50);
        let (start, waited) = lsu.issue_blocking(10);
        assert_eq!(start, 50);
        assert_eq!(waited, 40);
        // Uncontended issue waits zero.
        lsu.complete_at(start + 1);
        let (s2, w2) = lsu.issue_blocking(100);
        assert_eq!(s2, 100);
        assert_eq!(w2, 0);
    }

    #[test]
    fn occupancy_tracking() {
        let mut lsu = Lsu::new(4);
        let a = lsu.try_issue(0).unwrap();
        lsu.complete_at(a + 100);
        let b = lsu.try_issue(0).unwrap();
        lsu.complete_at(b + 2);
        assert_eq!(lsu.in_flight(1), 2);
        assert_eq!(lsu.in_flight(10), 1);
        assert_eq!(lsu.in_flight(200), 0);
    }

    #[test]
    fn has_room_does_not_consume_port() {
        let mut lsu = Lsu::new(1);
        assert!(lsu.has_room(0));
        assert!(lsu.has_room(0));
        let t = lsu.try_issue(0).unwrap();
        lsu.complete_at(t + 10);
        assert!(!lsu.has_room(5));
    }

    #[test]
    fn traced_wrappers_match_plain_and_emit_pairs() {
        use diag_trace::VecSink;

        let sink = VecSink::shared();
        let tracer = Tracer::to_shared(sink.clone());
        let mut lsu = Lsu::new(1);
        let (s, w, id) = lsu.issue_blocking_traced(0, false, &tracer, 0, 3);
        assert_eq!((s, w, id), (0, 0, 0));
        lsu.complete_at_traced(s + 10, id, &tracer, 0, 3);
        // Queue of depth 1 is full until cycle 10: the traced path must
        // report the same wait as the plain one.
        let mut plain = Lsu::new(1);
        let (ps, _) = plain.issue_blocking(0);
        plain.complete_at(ps + 10);
        let (s2, w2, id2) = lsu.issue_blocking_traced(1, true, &tracer, 0, 3);
        assert_eq!((s2, w2), plain.issue_blocking(1));
        assert_eq!(id2, 1);

        let events = sink.borrow().events().to_vec();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0].kind,
            EventKind::LsuEnqueue {
                id: 0,
                write: false,
                wait: 0,
                occupancy: 1,
            }
        ));
        assert_eq!(events[0].track, Track::Lsu(3));
        assert!(matches!(events[1].kind, EventKind::LsuComplete { id: 0 }));
        assert!(matches!(
            events[2].kind,
            EventKind::LsuEnqueue {
                id: 1,
                write: true,
                ..
            }
        ));
    }

    #[test]
    fn renew_restarts_statistics_and_depth() {
        let mut lsu = Lsu::new(1);
        let t = lsu.try_issue(0).unwrap();
        lsu.complete_at(t + 1000);
        assert_eq!(lsu.try_issue(1), None);
        lsu.renew(2);
        assert_eq!((lsu.accepted(), lsu.rejections()), (0, 0));
        for _ in 0..2 {
            let t = lsu.try_issue(0).unwrap();
            lsu.complete_at(t + 100);
        }
        assert_eq!(lsu.try_issue(0), None, "depth 2 after renew");
    }

    #[test]
    fn reset_clears_in_flight() {
        let mut lsu = Lsu::new(1);
        let t = lsu.try_issue(0).unwrap();
        lsu.complete_at(t + 1000);
        lsu.reset();
        assert!(lsu.has_room(1));
        assert_eq!(lsu.accepted(), 1);
    }
}
