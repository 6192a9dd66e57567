//! Step-limit kill points: the bytecode VM folds node steps into the
//! instructions that consume them, so these tests run small programs on both
//! engines at *every* step limit from 1 to past the run's total and require
//! identical results. A folded charge that moved across a fallible or
//! observable instruction would show up as a different error at some limit
//! (a division fault where the interpreter reports the step limit, or the
//! reverse) or as a different `omp_get_wtime` reading.

use lassi_lang::{parse, Dialect, Type};
use lassi_runtime::{
    compile, run_compiled, Dim3Val, Env, EvalContext, Evaluator, ExecError, ExecutionReport,
    HostInterpreter, MemSpace, Memory, ParallelBackend, RunConfig, Value, Vm,
};

struct HostOnly;
impl ParallelBackend for HostOnly {}

/// Indexing, a user call with a ternary, `&&` and two `omp_get_wtime`
/// readings. `arg0` selects the outcome: 0 completes, 1 divides by zero and
/// 2 reads out of bounds (both at `i == 3`). The faulting divide and load
/// follow a call, so their operand steps are folded into them rather than
/// into the statement.
const HOST: &str = r#"
int scale(int x) { return x > 2 ? x * 2 : x; }
int main() {
    int n = 6;
    int* a = (int*)malloc(n * sizeof(int));
    double t0 = omp_get_wtime();
    for (int i = 0; i < n; i++) { a[i] = i * 3 + 1; }
    int zero = arg0 == 1 ? 10 : 0;
    int skew = arg0 == 2 ? 3 : 0;
    int s = 0;
    int i = 0;
    while (i < n && s > -100) {
        int j = i + skew;
        int d = a[i] - zero;
        s += scale(a[j] / d);
        i++;
    }
    double t1 = omp_get_wtime();
    printf("%d %.9f\n", s, t1 - t0);
    free(a);
    return 0;
}
"#;

/// `threadIdx.x`, indexing and `omp_get_wtime`; thread 2 divides by zero
/// and thread 3 reads out of bounds, in instructions that carry folded
/// operand steps.
const KERNEL: &str = r#"
__global__ void k(int* a, double* t, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    double t0 = omp_get_wtime();
    int s = 0;
    for (int j = 0; j < n; j++) { s += a[j] * (i + 1); }
    int d = i - 2;
    int k = i == 3 ? n : i;
    t[i] = omp_get_wtime() - t0 + a[k] / d;
    a[i] = s;
}
int main() { return 0; }
"#;

fn host_run(
    program: &lassi_lang::Program,
    limit: u64,
    arg: i64,
    compiled: bool,
) -> Result<ExecutionReport, ExecError> {
    let config = RunConfig {
        step_limit: limit,
        ..RunConfig::default()
    };
    if compiled {
        run_compiled(&compile(program, 1), &config, &HostOnly, &[arg])
    } else {
        HostInterpreter::new(program, config).run(&HostOnly, &[arg])
    }
}

#[test]
fn host_program_fails_at_the_same_step_under_every_limit() {
    let program = parse(HOST, Dialect::CudaLite).unwrap();
    let total = host_run(&program, u64::MAX, 0, false).unwrap().steps;
    for arg in [0, 1, 2] {
        let mut kills = 0;
        let mut outcome = None;
        for limit in 1..=total + 2 {
            let reference = host_run(&program, limit, arg, false);
            let vm = host_run(&program, limit, arg, true);
            match (&reference, &vm) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.stdout, b.stdout, "stdout, limit {limit}, arg {arg}");
                    assert_eq!(a.steps, b.steps, "steps, limit {limit}, arg {arg}");
                    assert_eq!(a.cost, b.cost, "cost, limit {limit}, arg {arg}");
                    assert_eq!(a.memory, b.memory, "memory, limit {limit}, arg {arg}");
                    assert_eq!(
                        a.simulated_seconds.to_bits(),
                        b.simulated_seconds.to_bits(),
                        "simulated seconds, limit {limit}, arg {arg}"
                    );
                    outcome = Some("ok");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "error, limit {limit}, arg {arg}");
                    match a {
                        ExecError::StepLimitExceeded { .. } => kills += 1,
                        other => outcome = Some(other.category()),
                    }
                }
                _ => panic!("limit {limit}, arg {arg}: interpreter={reference:?} vm={vm:?}"),
            }
        }
        // Every limit below the run's own end kills it.
        assert!(kills > 0, "arg {arg}: no step-limit kill");
        let expected = ["ok", "division_by_zero", "out_of_bounds"][arg as usize];
        assert_eq!(outcome, Some(expected), "arg {arg}");
    }
}

/// Observables of one device thread: the unit's result, the step and cost
/// counters, and the contents of both buffers.
type ThreadRun = (
    Result<lassi_runtime::ControlFlow, ExecError>,
    u64,
    lassi_runtime::CostCounter,
    Vec<Value>,
);

fn kernel_thread(program: &lassi_lang::Program, tid: u32, limit: u64, compiled: bool) -> ThreadRun {
    let n = 4;
    let ctx = EvalContext::DeviceThread {
        thread_idx: Dim3Val { x: tid, y: 0, z: 0 },
        block_idx: Dim3Val { x: 0, y: 0, z: 0 },
        block_dim: Dim3Val::linear(n),
        grid_dim: Dim3Val::linear(1),
    };
    let mem = Memory::new();
    let a = mem.alloc("a", Type::Int, n as usize, MemSpace::Device);
    let t = mem.alloc("t", Type::Double, n as usize, MemSpace::Device);
    for j in 0..n as i64 {
        mem.store(&a, j, &Value::Int(j + 1), true, 0).unwrap();
    }
    let args = [Value::Ptr(a), Value::Ptr(t), Value::Int(n as i64)];
    let (result, steps, cost) = if compiled {
        let compiled = compile(program, 0);
        let kernel = &compiled.kernels[0];
        let mut vm = Vm::for_context(&compiled, ctx, limit);
        vm.prepare_frame(kernel.nslots);
        for (i, v) in args.iter().enumerate() {
            vm.set_slot(i as u32, *v);
        }
        let result = vm.run_unit(&mem, kernel.segments[0]);
        (result, vm.steps, vm.cost)
    } else {
        let kernel = program.function("k").unwrap();
        let mut eval = Evaluator::for_context(program, ctx, limit);
        let mut env = Env::new();
        for (p, v) in kernel.params.iter().zip(args) {
            env.declare(&p.name, p.ty.clone(), v);
        }
        let result = eval.exec_stmts(&kernel.body.stmts, &mut env, &mem);
        (result, eval.steps, eval.cost)
    };
    let cells = (0..n as i64)
        .flat_map(|j| {
            [
                mem.load(&a, j, true, 0).unwrap(),
                mem.load(&t, j, true, 0).unwrap(),
            ]
        })
        .collect();
    (result, steps, cost, cells)
}

#[test]
fn kernel_threads_fail_at_the_same_step_under_every_limit() {
    let program = parse(KERNEL, Dialect::CudaLite).unwrap();
    for tid in 0..4 {
        let total = kernel_thread(&program, tid, u64::MAX, false).1;
        for limit in 1..=total + 2 {
            let reference = kernel_thread(&program, tid, limit, false);
            let vm = kernel_thread(&program, tid, limit, true);
            assert_eq!(reference.0, vm.0, "result, thread {tid}, limit {limit}");
            assert_eq!(reference.3, vm.3, "memory, thread {tid}, limit {limit}");
            // A failed thread's counters are discarded with its launch.
            if reference.0.is_ok() {
                assert_eq!(reference.1, vm.1, "steps, thread {tid}, limit {limit}");
                assert_eq!(reference.2, vm.2, "cost, thread {tid}, limit {limit}");
            }
        }
        let outcome = kernel_thread(&program, tid, u64::MAX, true).0;
        match tid {
            2 => assert!(matches!(outcome, Err(ExecError::DivisionByZero { .. }))),
            3 => assert!(matches!(outcome, Err(ExecError::OutOfBounds { .. }))),
            _ => assert!(outcome.is_ok(), "thread {tid}: {outcome:?}"),
        }
    }
}
