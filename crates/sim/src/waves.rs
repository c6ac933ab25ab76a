//! The thread-wave run loop of machines that give each hardware thread
//! its own execution unit.
//!
//! Multithreaded DiAG runs one dataflow ring per thread (paper §7.2.1);
//! the out-of-order baseline runs one core per thread, all sharing one L2
//! (§7.1). Both run the same loop, [`Waves`]: launch as many threads as
//! there are units, step the unit furthest behind so shared busy-until
//! state (caches, bus, DRAM) is booked in approximate time order, and
//! when the wave's last thread halts, fold its counters and launch the
//! next wave at the latest finish. Waves approximate, conservatively, a
//! scheduler that refills each unit as soon as its thread halts.

use std::fmt;

use diag_trace::{Event, EventKind, Track};

use crate::machine::{SimError, StepOutcome};
use crate::probes::Probes;
use crate::stats::{Counters, RunStats};

/// The execution unit of one hardware thread: a DiAG ring or an
/// out-of-order core.
pub trait Unit: fmt::Debug + Sized {
    /// What every unit of a run shares: the program, the configuration
    /// and the memory side.
    type Shared: fmt::Debug;

    /// The track `thread`'s [`EventKind::ThreadStart`] event rides on.
    fn track(thread: u32) -> Track;

    /// Starts hardware thread `thread` of `threads` at cycle `at`,
    /// reporting through `probes`.
    fn launch(
        shared: &Self::Shared,
        thread: usize,
        threads: usize,
        at: u64,
        probes: Probes,
    ) -> Self;

    /// Retires the thread's next quantum of work (see
    /// [`crate::Machine::step`]).
    ///
    /// # Errors
    ///
    /// See [`SimError`]; [`SimError::Halted`] once the thread has halted.
    fn step(&mut self, shared: &mut Self::Shared) -> Result<(), SimError>;

    /// The unit's current time (its last retirement).
    fn clock(&self) -> u64;

    /// Whether the thread has halted.
    fn halted(&self) -> bool;

    /// What the unit has added to its run's totals so far.
    fn counters(&self) -> Counters;
}

/// The state of one run on a machine of [`Unit`]s, from load to halt.
#[derive(Debug)]
pub struct Waves<U: Unit> {
    shared: U::Shared,
    /// The machine's probes as of load, cloned into each unit.
    probes: Probes,
    /// Units of the current wave (empty only between waves).
    units: Vec<U>,
    /// Totals of the finished waves.
    done: RunStats,
    threads: usize,
    /// Units per wave.
    width: usize,
    max_cycles: u64,
    /// First thread not yet launched.
    next_thread: usize,
    /// Launch cycle of the current wave; the run's end once it halted.
    wave_start: u64,
    halted: bool,
}

impl<U: Unit> Waves<U> {
    /// Starts a run of `threads` threads (at least one) on `width` units
    /// at a time, and launches the first wave. A step that takes a unit's
    /// clock past `max_cycles` fails; `freq_ghz` goes into the stats.
    pub fn start(
        shared: U::Shared,
        probes: Probes,
        threads: usize,
        width: usize,
        max_cycles: u64,
        freq_ghz: f64,
    ) -> Waves<U> {
        let threads = threads.max(1);
        let mut waves = Waves {
            shared,
            probes,
            units: Vec::with_capacity(width),
            done: RunStats {
                threads: threads as u64,
                freq_ghz,
                ..RunStats::default()
            },
            threads,
            width,
            max_cycles,
            next_thread: 0,
            wave_start: 0,
            halted: false,
        };
        waves.launch_wave();
        waves
    }

    /// What the units share (the machine's memory, for one).
    pub fn shared(&self) -> &U::Shared {
        &self.shared
    }

    /// Steps the running unit furthest behind. Once the whole wave has
    /// halted, folds it and launches the next wave, or ends the run.
    ///
    /// # Errors
    ///
    /// The unit's [`SimError`]; [`SimError::CycleLimit`] past the limit;
    /// [`SimError::NotLoaded`] once the run has halted.
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        if self.halted {
            return Err(SimError::NotLoaded);
        }
        // Advance the unit that is furthest behind, so shared
        // busy-until state is updated in approximate time order.
        let next = self
            .units
            .iter_mut()
            .filter(|u| !u.halted())
            .min_by_key(|u| u.clock());
        if let Some(unit) = next {
            unit.step(&mut self.shared)?;
            if unit.clock() > self.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.max_cycles,
                });
            }
            return Ok(StepOutcome::Running);
        }
        self.finish_wave();
        if self.next_thread < self.threads {
            self.launch_wave();
            Ok(StepOutcome::Running)
        } else {
            self.halted = true;
            Ok(StepOutcome::Halted)
        }
    }

    /// Statistics of the run so far: the finished waves plus the running
    /// wave's units. Final once [`Waves::step`] returned
    /// [`StepOutcome::Halted`].
    pub fn stats(&self) -> RunStats {
        let mut stats = self.done;
        let mut clock = self.wave_start;
        for unit in &self.units {
            add(&mut stats, &unit.counters());
            clock = clock.max(unit.clock());
        }
        stats.cycles = clock;
        stats.activity.busy_cycles = clock;
        stats
    }

    /// Launches the next wave of threads at `wave_start`.
    fn launch_wave(&mut self) {
        let first = self.next_thread;
        self.next_thread = self.threads.min(first + self.width);
        let at = self.wave_start;
        for thread in first..self.next_thread {
            let unit = U::launch(&self.shared, thread, self.threads, at, self.probes.clone());
            self.units.push(unit);
            let thread = thread as u32;
            self.probes.emit(|| Event {
                cycle: at,
                thread,
                track: U::track(thread),
                kind: EventKind::ThreadStart,
            });
        }
    }

    /// Folds the halted wave into the totals: each thread's profiler
    /// span and counters. The next wave launches at the latest finish.
    fn finish_wave(&mut self) {
        let floor = self.wave_start;
        let first = self.next_thread - self.units.len();
        for (thread, unit) in (first..).zip(&self.units) {
            let clock = unit.clock();
            self.probes
                .profiler()
                .thread_span(thread as u32, floor, clock);
            add(&mut self.done, &unit.counters());
            self.wave_start = self.wave_start.max(clock);
        }
        self.units.clear();
    }
}

/// Adds one unit's counters to a run's totals.
fn add(total: &mut RunStats, unit: &Counters) {
    total.activity += unit.activity;
    total.stalls += unit.stalls;
    total.committed += unit.committed;
}
