//! Hot-loop discipline tests: once a loop's line is resident, every
//! further step must execute entirely from the predecoded stations —
//! zero `decode()` calls and zero heap allocations per step, including
//! steps that load and store (lazily allocated port-meter windows and
//! cache state are paid during warm-up, never per step). Lives in
//! its own test binary because both checks hook process-wide state (the
//! decoder's call counter and a counting global allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use diag::asm::assemble;
use diag::core::{Diag, DiagConfig};
use diag::isa::decode_calls;
use diag::sim::Machine;

/// Counts every allocation (and growing reallocation) made by the
/// calling thread, so the harness's own bookkeeping on other threads
/// never lands in a measured window.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The decoder's call counter is process-global, so the tests in this
/// binary must not run concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap();
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
    let _serial = SERIAL.lock().unwrap();
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
