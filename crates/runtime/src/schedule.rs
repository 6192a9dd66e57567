//! The parallel schedule, written once for both engines.
//!
//! A kernel launch and an OpenMP work-sharing loop run the same way whichever
//! engine executes their bodies, so the order of blocks, threads, barrier
//! segments, chunks and reduction combines lives here and nowhere else. An
//! engine supplies a *lane*: [`KernelLane`] runs the threads of a block,
//! [`RegionLane`] the iterations of a chunk in the chunk's private worker.
//! Each lane method that runs a whole block or chunk has a default body that
//! steps through it one thread segment or iteration at a time, in the
//! schedule's order; the tree-walking evaluator ([`crate::eval`]) keeps
//! those, and the bytecode VM ([`crate::bytecode::vm`]) overrides them to
//! run a block or chunk in one pass of its dispatch loop, in the same order,
//! or, for an eligible kernel or region body, one instruction at a time over
//! all of a block's threads or up to 1024 consecutive iterations of a chunk
//! ([`crate::bytecode::lockstep`]), with the sequential path's exact
//! results. The schedule is generic over the lane, so the hot loops compile
//! to direct calls.
//!
//! What device threads and workers print is collected in schedule order and
//! appended to the host's output, and the steps they take are summed into
//! the run's lane steps.
//!
//! The [`Machine`] only prices what ran: a launch on its GPU, a region on
//! its OpenMP runtime.
//!
//! Everything runs on the calling thread, so device atomics land in one
//! fixed order and float accumulations are reproducible bit for bit.

use lassi_lang::{OmpDirective, ReductionOp, Type};

use crate::cost::CostCounter;
use crate::error::ExecError;
use crate::eval::{ControlFlow, EvalContext};
use crate::machine::Machine;
use crate::memory::Memory;
use crate::value::{Dim3Val, Value};

/// Hard cap on the number of simulated threads in one launch; larger launches
/// are rejected with a runtime error (they would indicate a broken translated
/// program anyway, e.g. a grid computed from uninitialized data).
const MAX_SIMULATED_THREADS: u64 = 8_000_000;

/// Per-thread step budget inside a kernel.
const THREAD_STEP_LIMIT: u64 = 20_000_000;

/// Hard cap on simulated loop iterations per region.
const MAX_SIMULATED_ITERATIONS: u64 = 8_000_000;

/// Per-worker step budget.
const WORKER_STEP_LIMIT: u64 = 50_000_000;

/// Number of functional execution chunks used to run a region. Chunks run
/// one after another on the calling thread; the split still matters because
/// each chunk is one modelled worker: it fixes `omp_get_thread_num` and the
/// order in which private reduction copies are combined. Independent of the
/// *modelled* thread count that drives the cost model.
const EXEC_CHUNKS: u64 = 64;

/// Step budget of the throwaway host evaluation of a dynamic `__shared__`
/// array length.
pub(crate) const SHARED_LEN_STEP_LIMIT: u64 = 100_000;

/// What a parallel construct ran and cost.
#[derive(Debug)]
pub(crate) struct LaunchStats {
    /// Simulated execution time of the construct, in seconds.
    pub simulated_seconds: f64,
    /// Dynamic operation counts aggregated over every thread.
    pub cost: CostCounter,
    /// Combined reduction values, in clause order (empty for kernels).
    pub reductions: Vec<Value>,
    /// Steps of every thread or worker.
    pub lane_steps: u64,
    /// What the threads or workers printed: blocks in index order, threads
    /// x-fastest (segment by segment in a block with barriers), chunks in
    /// order.
    pub stdout: String,
}

/// A thread or worker of either engine.
pub(crate) trait Costed {
    /// The operations it executed so far.
    fn cost(&self) -> &CostCounter;
    /// The steps it took so far, over every thread it ran.
    fn steps(&self) -> u64;
    /// Move what it printed so far to the end of `out`.
    fn drain_stdout(&mut self, out: &mut String);
}

/// One engine's side of a kernel launch: the kernel's code, run a block of
/// a single-segment kernel at a time, or one thread segment at a time.
pub(crate) trait KernelLane {
    /// One thread's state, kept across the barrier segments.
    type Thread: Costed;
    /// The kernel's name, for errors.
    fn name(&self) -> &str;
    /// Number of declared parameters.
    fn params(&self) -> usize;
    /// Number of segments delimited by top-level `__syncthreads()` calls.
    fn segments(&self) -> usize;
    /// Allocate a block's `__shared__` arrays. Called once per block, before
    /// any of its threads starts.
    fn enter_block(&mut self, args: &[Value], mem: &Memory) -> Result<(), ExecError>;
    /// A thread of the current block at the kernel's entry.
    fn thread(&self, ctx: EvalContext, step_limit: u64) -> Self::Thread;
    /// Make `thread` a fresh thread of the current block at the kernel's
    /// entry, keeping only its accumulated cost and output.
    fn restart(&self, thread: &mut Self::Thread, ctx: EvalContext);
    /// Run one segment of `thread`.
    fn run(
        &self,
        thread: &mut Self::Thread,
        segment: usize,
        mem: &Memory,
    ) -> Result<ControlFlow, ExecError>;
    /// Run every thread of block `block_idx` of a single-segment kernel to
    /// completion in `thread`, threads x-fastest, each restarted at the
    /// kernel's entry. A thread that returns is done.
    fn run_block(
        &self,
        thread: &mut Self::Thread,
        block_idx: Dim3Val,
        block: Dim3Val,
        grid: Dim3Val,
        mem: &Memory,
    ) -> Result<(), ExecError> {
        for thread_idx in coords(block) {
            self.restart(thread, device_thread(thread_idx, block_idx, block, grid));
            self.run(thread, 0, mem)?;
        }
        Ok(())
    }
}

/// One engine's side of a work-sharing loop: the loop body, run a chunk of
/// iterations at a time in the chunk's private worker.
pub(crate) trait RegionLane {
    /// One chunk's worker: a private copy of the enclosing bindings.
    type Worker: Costed;
    /// The work-sharing directive with its clauses.
    fn directive(&self) -> &OmpDirective;
    /// Number of reduction variables.
    fn reductions(&self) -> usize;
    /// Reduction variable `r`: its operator, its binding type (`double`
    /// when the variable is unbound at the pragma) and the value it held
    /// before the region (`None` when unbound).
    fn reduction(&self, r: usize) -> (ReductionOp, &Type, Option<Value>);
    /// A worker over the enclosing bindings, with the private copy of every
    /// reduction variable set to its `identities` entry.
    fn worker(&self, ctx: EvalContext, step_limit: u64, identities: &[Value]) -> Self::Worker;
    /// Run the body once with the loop variable at `i`.
    fn run(
        &self,
        worker: &mut Self::Worker,
        i: i64,
        mem: &Memory,
    ) -> Result<ControlFlow, ExecError>;
    /// Run iterations `first..last` of the loop `lo, lo + step, ...` in
    /// `worker`, in order. `break` ends the chunk; an iteration that returns
    /// ends it too, and its `Return` is the result.
    fn run_chunk(
        &self,
        worker: &mut Self::Worker,
        lo: i64,
        step: i64,
        first: u64,
        last: u64,
        mem: &Memory,
    ) -> Result<ControlFlow, ExecError> {
        for k in first..last {
            match self.run(worker, iteration_value(lo, step, k), mem)? {
                ControlFlow::Normal | ControlFlow::Continue => {}
                ControlFlow::Break => break,
                flow @ ControlFlow::Return(_) => return Ok(flow),
            }
        }
        Ok(ControlFlow::Normal)
    }
    /// The worker's private copy of reduction variable `r`.
    fn private(&self, worker: &Self::Worker, r: usize) -> Value;
}

/// The first thread of a block and the first block of a grid.
pub(crate) const ORIGIN: Dim3Val = Dim3Val { x: 0, y: 0, z: 0 };

/// Every index of a grid or block, x fastest.
fn coords(extent: Dim3Val) -> impl Iterator<Item = Dim3Val> {
    let first = (extent.count() > 0).then_some(ORIGIN);
    std::iter::successors(first, move |&idx| next_coord(idx, extent))
}

/// The index after `idx` in a grid or block of `extent`, x fastest, or
/// `None` after the last.
pub(crate) fn next_coord(idx: Dim3Val, extent: Dim3Val) -> Option<Dim3Val> {
    let mut next = idx;
    next.x += 1;
    if next.x < extent.x {
        return Some(next);
    }
    next.x = 0;
    next.y += 1;
    if next.y < extent.y {
        return Some(next);
    }
    next.y = 0;
    next.z += 1;
    (next.z < extent.z).then_some(next)
}

/// The context of thread `thread_idx` of block `block_idx`.
pub(crate) fn device_thread(
    thread_idx: Dim3Val,
    block_idx: Dim3Val,
    block: Dim3Val,
    grid: Dim3Val,
) -> EvalContext {
    EvalContext::DeviceThread {
        thread_idx,
        block_idx,
        block_dim: block,
        grid_dim: grid,
    }
}

/// The loop variable's value in iteration `k` of `lo, lo + step, ...`.
pub(crate) fn iteration_value(lo: i64, step: i64, k: u64) -> i64 {
    lo.wrapping_add((k as i64).wrapping_mul(step))
}

/// Run a kernel launch of `grid` x `block` threads: blocks in index order,
/// threads x-fastest, and the threads of a block segment by segment, so
/// every thread finishes segment `k` before any starts `k + 1` — the barrier
/// semantics well-formed CUDA code relies on. A thread that returns is done.
/// A `__syncthreads()` the segments do not cover is barrier divergence,
/// reported under the kernel's name.
pub(crate) fn launch<L: KernelLane>(
    lane: &mut L,
    grid: Dim3Val,
    block: Dim3Val,
    args: &[Value],
    machine: &Machine,
    mem: &Memory,
) -> Result<LaunchStats, ExecError> {
    let total_threads = grid.count().saturating_mul(block.count());
    if total_threads > MAX_SIMULATED_THREADS {
        return Err(ExecError::InvalidLaunchConfig {
            kernel: lane.name().to_string(),
            reason: format!(
                "launch of {total_threads} threads exceeds the simulator limit of {MAX_SIMULATED_THREADS}"
            ),
        });
    }
    if args.len() != lane.params() {
        return Err(ExecError::other(format!(
            "kernel '{}' launched with {} arguments but declares {} parameters",
            lane.name(),
            args.len(),
            lane.params()
        )));
    }
    let named = |e: ExecError, lane: &L| match e {
        ExecError::BarrierDivergence { .. } => ExecError::BarrierDivergence {
            kernel: lane.name().to_string(),
        },
        e => e,
    };

    let mut cost = CostCounter::new();
    let mut lane_steps = 0;
    let mut stdout = String::new();
    // Single segment: every thread runs to completion before the next
    // starts, so one thread state serves the whole launch and its cost and
    // output accumulate across threads (merging once equals merging per
    // thread, since `CostCounter::merge` is field-wise addition).
    let mut reused: Option<L::Thread> = None;
    for block_idx in coords(grid) {
        lane.enter_block(args, mem)?;
        if lane.segments() == 1 {
            let thread = reused.get_or_insert_with(|| {
                let first = device_thread(ORIGIN, block_idx, block, grid);
                lane.thread(first, THREAD_STEP_LIMIT)
            });
            lane.run_block(thread, block_idx, block, grid, mem)
                .map_err(|e| named(e, lane))?;
            continue;
        }
        let mut threads: Vec<(L::Thread, bool)> = coords(block)
            .map(|tid| {
                let ctx = device_thread(tid, block_idx, block, grid);
                (lane.thread(ctx, THREAD_STEP_LIMIT), false)
            })
            .collect();
        for segment in 0..lane.segments() {
            for (thread, finished) in threads.iter_mut().filter(|(_, f)| !*f) {
                let flow = lane.run(thread, segment, mem).map_err(|e| named(e, lane))?;
                thread.drain_stdout(&mut stdout);
                if let ControlFlow::Return(_) = flow {
                    *finished = true;
                }
            }
        }
        for (thread, _) in &threads {
            cost.merge(thread.cost());
            lane_steps += thread.steps();
        }
    }
    if let Some(thread) = &mut reused {
        cost.merge(thread.cost());
        lane_steps += thread.steps();
        thread.drain_stdout(&mut stdout);
    }
    Ok(LaunchStats {
        simulated_seconds: machine.gpu.kernel_seconds(grid, block, &cost),
        cost,
        reductions: Vec::new(),
        lane_steps,
        stdout,
    })
}

/// Run a work-sharing loop over `lo..hi` by `step` (> 0): the iterations
/// split into at most [`EXEC_CHUNKS`] contiguous chunks, chunk `c` runs as
/// thread `c % threads` in a worker whose reduction variables start at the
/// identity, `break` ends the chunk, and `return` is an error. The private
/// copies combine in chunk order, then with the variables' original values.
pub(crate) fn work_share<L: RegionLane>(
    lane: &L,
    lo: i64,
    hi: i64,
    step: i64,
    line: u32,
    machine: &Machine,
    mem: &Memory,
) -> Result<LaunchStats, ExecError> {
    let directive = lane.directive();
    let offload = directive.kind.is_offload();
    let iterations = if hi > lo {
        hi.abs_diff(lo).div_ceil(step.max(1) as u64)
    } else {
        0
    };
    if iterations > MAX_SIMULATED_ITERATIONS {
        return Err(ExecError::other(format!(
            "line {line}: work-sharing loop of {iterations} iterations exceeds the simulator limit of {MAX_SIMULATED_ITERATIONS}"
        )));
    }
    let resources = machine.omp.region_resources(directive, offload, iterations);
    let threads = resources.threads;

    let identities: Vec<Value> = (0..lane.reductions())
        .map(|r| {
            let (op, ty, _) = lane.reduction(r);
            reduction_identity(op, ty)
        })
        .collect();
    let mut partial = identities.clone();
    let mut cost = CostCounter::new();
    let mut lane_steps = 0;
    let mut stdout = String::new();
    let chunk_count = EXEC_CHUNKS.min(iterations.max(1));
    let chunk_size = iterations.div_ceil(chunk_count).max(1);
    for chunk in 0..chunk_count {
        let first = chunk * chunk_size;
        let last = ((chunk + 1) * chunk_size).min(iterations);
        // An empty chunk runs no worker and contributes the identities.
        let mut worker = None;
        if first < last {
            let ctx = EvalContext::OmpWorker {
                thread_num: (chunk % threads.max(1)) as i64,
                num_threads: threads as i64,
                offloaded: offload,
            };
            let w = worker.insert(lane.worker(ctx, WORKER_STEP_LIMIT, &identities));
            if let ControlFlow::Return(_) = lane.run_chunk(w, lo, step, first, last, mem)? {
                return Err(ExecError::other(format!(
                    "line {line}: 'return' is not allowed inside an OpenMP work-sharing region"
                )));
            }
            cost.merge(w.cost());
            lane_steps += w.steps();
            w.drain_stdout(&mut stdout);
        }
        for (r, acc) in partial.iter_mut().enumerate() {
            let (op, ty, _) = lane.reduction(r);
            let private = match &worker {
                Some(w) => lane.private(w, r),
                None => identities[r],
            };
            *acc = reduce_combine(op, ty, acc, &private);
        }
    }

    let reductions = partial
        .iter()
        .enumerate()
        .map(|(r, acc)| {
            let (op, ty, original) = lane.reduction(r);
            reduce_combine(op, ty, &original.unwrap_or(identities[r]), acc)
        })
        .collect();
    Ok(LaunchStats {
        simulated_seconds: machine
            .omp
            .region_seconds(&resources, offload, iterations, &cost),
        cost,
        reductions,
        lane_steps,
        stdout,
    })
}

fn reduction_identity(op: ReductionOp, ty: &Type) -> Value {
    let int = ty.is_integer();
    match op {
        ReductionOp::Add if int => Value::Int(0),
        ReductionOp::Add => Value::Float(0.0),
        ReductionOp::Mul if int => Value::Int(1),
        ReductionOp::Mul => Value::Float(1.0),
        ReductionOp::Min if int => Value::Int(i64::MAX),
        ReductionOp::Min => Value::Float(f64::INFINITY),
        ReductionOp::Max if int => Value::Int(i64::MIN),
        ReductionOp::Max => Value::Float(f64::NEG_INFINITY),
    }
}

/// Combine two reduction values. Integers wrap, like the program's own
/// integer arithmetic.
fn reduce_combine(op: ReductionOp, ty: &Type, a: &Value, b: &Value) -> Value {
    if ty.is_integer() {
        let (x, y) = (a.as_int(), b.as_int());
        Value::Int(match op {
            ReductionOp::Add => x.wrapping_add(y),
            ReductionOp::Mul => x.wrapping_mul(y),
            ReductionOp::Min => x.min(y),
            ReductionOp::Max => x.max(y),
        })
    } else {
        let (x, y) = (a.as_float(), b.as_float());
        Value::Float(match op {
            ReductionOp::Add => x + y,
            ReductionOp::Mul => x * y,
            ReductionOp::Min => x.min(y),
            ReductionOp::Max => x.max(y),
        })
    }
}
