//! Hot-loop discipline tests: once a loop's line is resident, every
//! further step must execute entirely from the predecoded stations —
//! zero `decode()` calls and zero heap allocations per step, including
//! steps that load and store (lazily allocated port-meter windows and
//! cache state are paid during warm-up, never per step). A machine that
//! has run before must also reload and run again without rebuilding its
//! caches, windows and arenas. Lives in its own test binary because the
//! checks hook process-wide state (the decoder's call counter and a
//! counting global allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use diag::asm::assemble;
use diag::bench::runner::{build_machine, MachineSpec};
use diag::core::{Diag, DiagConfig};
use diag::isa::{decode_calls, StationTable};
use diag::sim::Machine;
use diag::workloads::{find, Params};

/// Counts every allocation (and growing reallocation) made by the
/// calling thread, and the bytes they claim, so the harness's own
/// bookkeeping on other threads never lands in a measured window.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The decoder's call counter is process-global, so the tests in this
/// binary must not run concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the serial lock. A test that failed while holding it poisoned
/// it; the others still run and report their own result.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Steps `cpu` through `warmup` steps, then returns the decoder-call
/// and allocation deltas over the next `measured` steps.
fn steady_state_deltas(cpu: &mut Diag, warmup: usize, measured: usize) -> (u64, u64) {
    for _ in 0..warmup {
        cpu.step().unwrap();
    }
    let decodes_before = decode_calls();
    let allocs_before = allocs();
    for _ in 0..measured {
        cpu.step().unwrap();
    }
    (decode_calls() - decodes_before, allocs() - allocs_before)
}

#[test]
fn steady_state_steps_do_not_decode_or_allocate() {
    let _serial = serial();
    let program = assemble(
        r#"
            li   t0, 1000000
            li   t1, 0
        loop:
            add  t1, t1, t0
            addi t0, t0, -1
            bnez t0, loop
            sw   t1, 0(zero)
            ecall
        "#,
    )
    .unwrap();
    let mut cpu = Diag::new(DiagConfig::f4c2());
    cpu.load(&program, 1);
    // Warm-up: line fetch, station population, first iterations.
    let (decode_delta, alloc_delta) = steady_state_deltas(&mut cpu, 256, 2048);
    assert_eq!(decode_delta, 0, "reuse steps must never call the decoder");
    assert_eq!(alloc_delta, 0, "reuse steps must never touch the heap");
}

/// The same discipline for a loop that loads and stores: every
/// iteration reads a word back through the memory lane or the cluster
/// line buffer, and writes it through the LSU queue and the banked L1D.
/// Windows, cache lines, and store-buffer capacity are all claimed
/// during warm-up; the measured window must not allocate at all.
#[test]
fn steady_state_memory_steps_do_not_decode_or_allocate() {
    let _serial = serial();
    let program = assemble(
        r#"
            .data
            buf:
                .zero 256
            .text
                la   a2, buf
                li   t0, 1000000
            loop:
                andi t2, t0, 63
                slli t2, t2, 2
                add  t3, a2, t2
                lw   t1, 0(t3)
                add  t1, t1, t0
                sw   t1, 0(t3)
                addi t0, t0, -1
                bnez t0, loop
                ecall
        "#,
    )
    .unwrap();
    let mut cpu = Diag::new(DiagConfig::f4c32());
    cpu.load(&program, 1);
    let before = cpu.stats();
    let (decode_delta, alloc_delta) = steady_state_deltas(&mut cpu, 4096, 8192);
    let after = cpu.stats();
    let (loads, stores) = (
        after.activity.loads - before.activity.loads,
        after.activity.stores - before.activity.stores,
    );
    assert!(
        loads > 1000 && stores > 1000,
        "the loop must exercise the memory path ({loads} loads, {stores} stores)"
    );
    assert!(
        after.activity.l1d_accesses > before.activity.l1d_accesses + 1000,
        "stores must reach the banked L1D"
    );
    assert!(
        after.activity.memlane_hits > before.activity.memlane_hits,
        "loads must be served by the memory lane or line buffer"
    );
    assert_eq!(decode_delta, 0, "reuse steps must never call the decoder");
    assert_eq!(alloc_delta, 0, "memory steps must never touch the heap");
}

/// Bytes the calling thread allocates while `f` runs.
fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = bytes();
    f();
    bytes() - before
}

/// A second load and run on a used machine renews its caches, meter
/// windows, arenas and memory pages in place: it allocates a small
/// fraction of what the first run, which built them, allocated.
#[test]
fn reloading_a_used_machine_allocates_little() {
    let _serial = serial();
    let built = find("bfs").unwrap().build(&Params::tiny()).unwrap();
    let program = &built.program;
    let stations = Arc::new(StationTable::build(program.text_base(), program.text()));
    for text in ["diag:f4c32", "ooo:12"] {
        let spec = MachineSpec::parse(text).unwrap();
        let mut machine = build_machine(&spec);
        let mut run = || {
            let stats = match spec {
                MachineSpec::Diag(_) => machine.run(program, 1),
                _ => machine.run_prepared(program, &stations, 1),
            };
            assert!(stats.unwrap().committed > 1000, "{text}");
        };
        let first = bytes_during(&mut run);
        let second = bytes_during(&mut run);
        assert!(
            second < 64 << 10,
            "{text}: the second run allocated {second} bytes (the first {first})"
        );
        // The counter sees the first run's build.
        assert!(
            second * 8 < first,
            "{text}: the first run allocated {first} bytes, the second {second}"
        );
    }
}
