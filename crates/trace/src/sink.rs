//! Trace sinks and the cheap-when-off [`Tracer`] handle.
//!
//! Machines hold a [`Tracer`] and call [`Tracer::emit`] with a closure;
//! when tracing is disabled the call is a single branch on an `Option`
//! discriminant and the closure — including every argument computation
//! inside it — is never evaluated. [`NullSink`] additionally lets a
//! *connected-but-discarding* tracer be constructed for overhead tests.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::event::Event;

/// Receives trace events in emission order.
///
/// Sinks are driven from a single simulation thread through a
/// `Rc<RefCell<..>>` handle; they do not need to be `Send`.
pub trait TraceSink {
    /// Accept one event.
    fn record(&mut self, event: &Event);
}

/// A sink that discards every event. Useful for measuring the overhead of
/// an *enabled* tracer whose events go nowhere.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _event: &Event) {}
}

/// An unbounded in-memory sink; the workhorse behind the exporters.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<Event>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sink behind a shared handle suitable for
    /// [`Tracer::to_shared`].
    pub fn shared() -> Rc<RefCell<VecSink>> {
        Rc::new(RefCell::new(VecSink::new()))
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Moves the recorded events out, leaving the sink empty.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// Shared handle to a dynamically-typed sink, as held by a [`Tracer`].
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// The handle machine models hold. Cloning is cheap (an `Rc` bump or a
/// `None` copy); a disabled tracer's [`Tracer::emit`] is a single branch.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<SharedSink>,
}

impl Tracer {
    /// A disabled tracer: `emit` never evaluates its closure.
    pub fn off() -> Self {
        Self { sink: None }
    }

    /// A tracer delivering events to `sink`.
    pub fn to_shared(sink: SharedSink) -> Self {
        Self { sink: Some(sink) }
    }

    /// Wraps an owned sink in a fresh shared handle.
    pub fn to_sink<S: TraceSink + 'static>(sink: S) -> Self {
        Self::to_shared(Rc::new(RefCell::new(sink)))
    }

    /// Whether events are being delivered anywhere.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `f` — which runs only when the tracer is
    /// enabled, so argument computation is free when tracing is off.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            let event = f();
            sink.borrow_mut().record(&event);
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Track};

    fn ev(cycle: u64) -> Event {
        Event {
            cycle,
            thread: 0,
            track: Track::Control,
            kind: EventKind::ThreadStart,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let tracer = Tracer::off();
        assert!(!tracer.enabled());
        tracer.emit(|| unreachable!("must not run"));
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let sink = VecSink::shared();
        let tracer = Tracer::to_shared(sink.clone());
        assert!(tracer.enabled());
        for c in 0..5 {
            tracer.emit(|| ev(c));
        }
        let cycles: Vec<u64> = sink.borrow().events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn null_sink_through_tracer() {
        let tracer = Tracer::to_sink(NullSink);
        assert!(tracer.enabled());
        tracer.emit(|| ev(0));
    }
}
