//! Stackful user-space fibers for the simulated world (x86_64 only).
//!
//! Sim mode runs exactly one rank at a time (see [`crate::sched`]), so
//! OS threads buy nothing and cost plenty: every token handoff is a
//! futex wake, a kernel context switch and a cold-cache landing —
//! measured at ~4–5 µs per handoff with 512 rank threads on one core,
//! which is the dominant cost of a large simulated run. A fiber switch
//! is ~20 instructions in user space, so the same handoff costs tens of
//! nanoseconds and the scheduler state stays cache-hot.
//!
//! The contract is deliberately narrow:
//!
//! * every fiber of a world is created, resumed and destroyed by one
//!   host thread (the caller of `World::run`);
//! * a fiber suspends only at explicit scheduler points (blocked recv,
//!   collective rendezvous, exit): it switches straight to the next
//!   ready fiber ([`FiberSet::switch`]) when there is one, and back to
//!   the host otherwise (its exit always goes to the host);
//! * panics never unwind across a switch: the rank body runs under
//!   `catch_unwind` *inside* the fiber, and the stored result is
//!   re-thrown on the host side;
//! * a fiber closure never returns — its last action is the final
//!   switch to the host (`SimScheduler::fiber_exit`).
//!
//! Stacks are heap allocations without guard pages, so each carries a
//! canary at the deep end that the runtime checks after the run. Other
//! architectures fall back to the thread-parking scheduler, which has
//! identical semantics (and identical, bit-deterministic results —
//! both schedulers replay the same FIFO token order).

use std::alloc::{alloc, dealloc, Layout};
use std::arch::naked_asm;

/// Default fiber stack size. Generous for the benchmark closures (heap
/// buffers, shallow call depth) while staying lazily committed: the
/// allocator mmaps at this size, so untouched pages cost no RSS.
pub const STACK_SIZE: usize = 1 << 20;

const STACK_ALIGN: usize = 64;
const CANARY: u64 = 0xBEEF_F1BE_57AC_CA4D;

/// One heap-allocated fiber stack with a deep-end canary.
pub struct FiberStack {
    base: *mut u8,
    size: usize,
}

// SAFETY: a stack is plain memory; the runtime moves sets of them
// between session runs, but all *use* stays on the driving thread.
unsafe impl Send for FiberStack {}
// SAFETY: shared references only expose the canary word, which is
// written once before any fiber runs.
unsafe impl Sync for FiberStack {}

impl FiberStack {
    pub fn new(size: usize) -> Self {
        let layout = Layout::from_size_align(size, STACK_ALIGN).expect("stack layout");
        // SAFETY: `layout` has non-zero size (STACK_SIZE) and valid
        // alignment; the null result is checked on the next line.
        let base = unsafe { alloc(layout) };
        assert!(!base.is_null(), "fiber stack allocation failed");
        // SAFETY: `base` is a live allocation of at least 8 aligned
        // bytes (STACK_ALIGN = 64), so the u64 canary write is in
        // bounds and aligned.
        unsafe { (base as *mut u64).write(CANARY) };
        Self { base, size }
    }

    /// Exclusive top of the stack (stacks grow down).
    fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the owned allocation, which is
        // explicitly allowed for pointer arithmetic.
        unsafe { self.base.add(self.size) }
    }

    /// Did the fiber ever scribble over the deep end? (No guard pages
    /// on heap stacks, so this is the overflow tripwire.)
    pub fn canary_intact(&self) -> bool {
        // SAFETY: reads the canary word written by `new` inside the
        // live allocation; fibers never legally reach this deep.
        unsafe { (self.base as *const u64).read() == CANARY }
    }
}

impl Drop for FiberStack {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.size, STACK_ALIGN).expect("stack layout");
        // SAFETY: `base` came from `alloc` with this exact layout and
        // is freed exactly once (Drop).
        unsafe { dealloc(self.base, layout) };
    }
}

/// Saved stack pointers for one world: the host context plus one per
/// rank. Only the driving host thread ever reads or writes these (the
/// narrow contract above); the raw cells exist because `WorldShared`
/// must stay `Sync` for the thread-mode scheduler.
pub struct FiberSet {
    host_sp: std::cell::UnsafeCell<*mut u8>,
    sps: Vec<std::cell::UnsafeCell<*mut u8>>,
}

// SAFETY: see struct docs — single-thread use by construction; the
// raw cells are only touched by the driving host thread.
unsafe impl Send for FiberSet {}
// SAFETY: as above — `Sync` exists for `WorldShared`'s sake, not for
// actual cross-thread access.
unsafe impl Sync for FiberSet {}

impl FiberSet {
    pub fn new(n: usize) -> Self {
        Self {
            host_sp: std::cell::UnsafeCell::new(std::ptr::null_mut()),
            sps: (0..n).map(|_| std::cell::UnsafeCell::new(std::ptr::null_mut())).collect(),
        }
    }

    /// Install a freshly initialized fiber (see [`init_fiber`]).
    pub fn install(&self, rank: usize, sp: *mut u8) {
        // SAFETY: install happens on the driving thread before any
        // resume; no other reference to the cell exists yet.
        unsafe { *self.sps[rank].get() = sp };
    }

    /// Host → fiber. Returns when the fiber switches back.
    ///
    /// # Safety
    /// `rank` must hold an initialized, non-finished fiber, and the
    /// caller must be the driving host thread.
    pub unsafe fn resume(&self, rank: usize) {
        // SAFETY: caller contract (driving host thread, initialized
        // fiber); the cells are written only by this thread.
        unsafe { fiber_switch(self.host_sp.get(), self.sps[rank].get()) };
    }

    /// Fiber → fiber: suspend `from` and continue `to` directly, without
    /// a round trip through the host. Returns when some context
    /// switches back to `from`.
    ///
    /// # Safety
    /// Must be called from the fiber registered at `from`; `to` must be
    /// a different, initialized, non-finished fiber of this set.
    pub unsafe fn switch(&self, from: usize, to: usize) {
        debug_assert_ne!(from, to, "a fiber cannot switch to itself");
        // SAFETY: caller contract (called from `from`'s fiber, `to` is
        // an initialized live fiber); `from`'s slot is saved here and
        // `to`'s was saved by its last suspension or by `install`.
        unsafe { fiber_switch(self.sps[from].get(), self.sps[to].get()) };
    }

    /// Fiber → host. Returns when the host resumes this fiber.
    ///
    /// # Safety
    /// Must be called from the fiber registered at `rank`.
    pub unsafe fn to_host(&self, rank: usize) {
        // SAFETY: caller contract (called from the fiber registered at
        // `rank`); the host slot was saved by the matching resume.
        unsafe { fiber_switch(self.sps[rank].get(), self.host_sp.get()) };
    }
}

/// Prepare `stack` so the first [`FiberSet::resume`] enters `body`.
/// The closure is boxed twice so a single (thin) pointer smuggles it
/// through the register file.
///
/// # Safety
/// The caller must keep `stack` alive and drive the fiber to
/// completion (its final switch) before dropping it; `body`'s borrows
/// must outlive the run (the runtime guarantees both).
pub unsafe fn init_fiber(stack: &FiberStack, body: Box<dyn FnOnce() + '_>) -> *mut u8 {
    // SAFETY: lifetime erasure only — the fiber completes before the
    // borrowed data dies (runtime contract, see # Safety above), and
    // the box layout is lifetime-free.
    let body: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(body) };
    let closure = Box::into_raw(Box::new(body)) as u64;

    let top = stack.top();
    // SAFETY: all writes land inside `stack`'s allocation (72 bytes
    // below its top, far above the canary), and the save-area layout
    // matches fiber_switch's asm exactly.
    unsafe {
        // Layout mirrors fiber_switch's save area (see its asm):
        //   sp + 0   mxcsr | x87 cw
        //   sp + 8   r15
        //   sp + 16  r14
        //   sp + 24  r13
        //   sp + 32  r12  ← closure pointer for fiber_entry
        //   sp + 40  rbx
        //   sp + 48  rbp  (0 terminates frame-pointer walks)
        //   sp + 56  return address → fiber_entry
        //   sp + 64  (top - 8) scratch word, keeps entry rsp ≡ 8 mod 16
        let sp = top.sub(72);
        (sp as *mut u32).write(0x1F80); // MXCSR power-on default
        (sp.add(4) as *mut u32).write(0x037F); // x87 CW default
        (sp.add(8) as *mut u64).write(0); // r15
        (sp.add(16) as *mut u64).write(0); // r14
        (sp.add(24) as *mut u64).write(0); // r13
        (sp.add(32) as *mut u64).write(closure); // r12
        (sp.add(40) as *mut u64).write(0); // rbx
        (sp.add(48) as *mut u64).write(0); // rbp
        (sp.add(56) as *mut u64).write(fiber_entry as *const () as usize as u64);
        (sp.add(64) as *mut u64).write(0);
        sp
    }
}

/// Save the callee-saved state on the current stack, store rsp through
/// `save`, load rsp from `load`, restore and return — i.e. continue
/// whatever context last saved itself into `load`.
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_switch(save: *mut *mut u8, load: *const *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every fiber: forwards the closure pointer parked in
/// r12 by [`init_fiber`] to [`fiber_main`] with a call-aligned stack.
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_entry() {
    naked_asm!(
        "sub rsp, 8",
        "mov rdi, r12",
        "call {main}",
        "ud2",
        main = sym fiber_main,
    )
}

unsafe extern "sysv64" fn fiber_main(closure: *mut u8) {
    // SAFETY: `closure` is the Box::into_raw pointer parked in r12 by
    // init_fiber; ownership transfers here exactly once.
    let body = unsafe { Box::from_raw(closure as *mut Box<dyn FnOnce()>) };
    body();
    // A fiber body must leave through its final switch to the host
    // (SimScheduler::fiber_exit); returning here means the scheduler
    // resumed a finished fiber and the stack below is gone.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Minimal two-way handoff: host → fiber → host → fiber → done.
    #[test]
    fn fiber_switches_roundtrip() {
        let stack = FiberStack::new(STACK_SIZE);
        let set = FiberSet::new(1);
        let hits = Cell::new(0u32);
        let sp = unsafe {
            init_fiber(
                &stack,
                Box::new(|| {
                    hits.set(hits.get() + 1);
                    unsafe { set.to_host(0) };
                    hits.set(hits.get() + 10);
                    unsafe { set.to_host(0) };
                    unreachable!("finished fiber must not be resumed");
                }),
            )
        };
        set.install(0, sp);
        unsafe { set.resume(0) };
        assert_eq!(hits.get(), 1);
        unsafe { set.resume(0) };
        assert_eq!(hits.get(), 11);
        assert!(stack.canary_intact());
    }

    /// Float state survives a switch (the benchmarks are f64-heavy).
    #[test]
    fn float_state_survives_switches() {
        let stack = FiberStack::new(STACK_SIZE);
        let set = FiberSet::new(1);
        let out = Cell::new(0.0f64);
        let sp = unsafe {
            init_fiber(
                &stack,
                Box::new(|| {
                    let mut acc = 1.0f64;
                    for i in 1..=10 {
                        acc = acc * 1.5 + i as f64;
                        unsafe { set.to_host(0) };
                    }
                    out.set(acc);
                    unsafe { set.to_host(0) };
                    unreachable!();
                }),
            )
        };
        set.install(0, sp);
        let mut host_acc = 1.0f64;
        for i in 1..=10 {
            unsafe { set.resume(0) };
            host_acc = host_acc * 1.5 + i as f64;
        }
        unsafe { set.resume(0) };
        assert_eq!(out.get().to_bits(), host_acc.to_bits());
        assert!(stack.canary_intact());
    }

    /// Fiber → fiber switches skip the host: the host resumes fiber 0
    /// once, and the two fibers ping-pong directly until fiber 1 hands
    /// control back.
    #[test]
    fn direct_switches_bypass_the_host() {
        let stacks = [FiberStack::new(STACK_SIZE), FiberStack::new(STACK_SIZE)];
        let set = FiberSet::new(2);
        let log = std::cell::RefCell::new(Vec::new());
        for (r, stack) in stacks.iter().enumerate() {
            let (set, log) = (&set, &log);
            let sp = unsafe {
                init_fiber(
                    stack,
                    Box::new(move || {
                        for step in 0..3 {
                            log.borrow_mut().push((r, step));
                            if r == 1 && step == 2 {
                                unsafe { set.to_host(r) };
                            } else {
                                unsafe { set.switch(r, 1 - r) };
                            }
                        }
                        unreachable!("finished fiber must not be resumed");
                    }),
                )
            };
            set.install(r, sp);
        }
        unsafe { set.resume(0) };
        assert_eq!(
            log.borrow().as_slice(),
            &[(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
        assert!(stacks.iter().all(FiberStack::canary_intact));
    }

    /// Two fibers interleaved through the host in a fixed order.
    #[test]
    fn two_fibers_interleave_deterministically() {
        let stacks = [FiberStack::new(STACK_SIZE), FiberStack::new(STACK_SIZE)];
        let set = FiberSet::new(2);
        let log = std::cell::RefCell::new(Vec::new());
        for (r, stack) in stacks.iter().enumerate() {
            let set = &set;
            let log = &log;
            let sp = unsafe {
                init_fiber(
                    stack,
                    Box::new(move || {
                        for step in 0..3 {
                            log.borrow_mut().push((r, step));
                            unsafe { set.to_host(r) };
                        }
                        unsafe { set.to_host(r) };
                        unreachable!();
                    }),
                )
            };
            set.install(r, sp);
        }
        for _ in 0..4 {
            unsafe { set.resume(0) };
            unsafe { set.resume(1) };
        }
        assert_eq!(
            log.borrow().as_slice(),
            &[(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
    }
}
