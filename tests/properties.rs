//! Property-based tests over the core data structures and invariants:
//! printer/parser round-tripping, similarity-metric bounds, cost-model
//! monotonicity, memory-model safety under random access patterns,
//! bytecode/interpreter parity over every binary operator, the line a fault
//! reports, and the parallel parity corpus: one program per kernel and
//! work-sharing construct, run on both engines.

use proptest::prelude::*;

use lassi::hecbench::Machine;
use lassi::lang::{parse, print_program, BinOp, Dialect, Expr};
use lassi::metrics::{sim_l, sim_t};
use lassi::runtime::value::PtrValue;
use lassi::runtime::{
    compile, run_compiled_with_memory, BufferId, ExecError, ExecutionReport, HostInterpreter,
    MemSpace, Memory, Value,
};

/// Generate random arithmetic expressions as source text.
fn arb_expr(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        prop_oneof![
            (0i64..1000).prop_map(|v| v.to_string()),
            prop_oneof![
                Just("a".to_string()),
                Just("b".to_string()),
                Just("n".to_string())
            ],
        ]
        .boxed()
    } else {
        let sub = arb_expr(depth - 1);
        (
            sub.clone(),
            prop_oneof![Just("+"), Just("-"), Just("*")],
            sub,
        )
            .prop_map(|(l, op, r)| format!("({l} {op} {r})"))
            .boxed()
    }
}

/// Every binary operator's spelling: the VM has an instruction of its own
/// for most of them and falls back to the shared operator code for the rest.
const OPERATORS: [&str; 18] = [
    "+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||", "&", "|", "^", "<<",
    ">>",
];

/// Random operator expressions over `int i`, `long l`, `float f`,
/// `double d`, the zero `int z`, a heap pointer `p`, a null pointer `q` and
/// literals, so both integer and float fast paths, mixed operands, pointer
/// arithmetic, zero divisors, negative shift counts and bitwise operators
/// on floats all occur.
fn arb_op_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("i"),
        Just("l"),
        Just("f"),
        Just("d"),
        Just("z"),
        Just("0"),
        Just("3"),
        Just("(-2)"),
        Just("0.0"),
        Just("2.5"),
        Just("(-1.5)"),
        Just("p"),
        Just("q"),
        Just("(p + i)"),
        Just("(p - 2)"),
    ]
    .prop_map(str::to_string)
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = prop_oneof![leaf, arb_op_expr(depth - 1)].boxed();
    (sub.clone(), 0usize..OPERATORS.len(), sub)
        .prop_map(|(l, op, r)| format!("({l} {} {r})", OPERATORS[op]))
        .boxed()
}

/// The four places an operator expression `e` is lowered differently: a
/// value stored to every scalar type, a branch condition, an `&&` chain and
/// the right-hand side of compound assignments. Each writes only the
/// result variables `n`, `s`, `g` and `w`.
fn contexts(e: &str) -> [String; 4] {
    [
        format!(
            "int a = {e}; long b = {e}; float c = {e}; double x = {e}; \
             n = a; s = b + ({e}); g = c; w = x;"
        ),
        format!(
            "if ({e}) {{ s += 1; }} else {{ s -= 1; }} \
             while ({e}) {{ s += 2; break; }} \
             for (int k = 0; {e}; k++) {{ if (k > 1) {{ break; }} n += 1; }} \
             w = ({e}) ? w + 1.0 : w - 1.0;"
        ),
        format!(
            "if (s >= 0 && ({e}) && i > -100) {{ s += 4; }} \
             long c = ({e}) && n; s += c; n = (i > 100) || ({e});"
        ),
        format!("s += {e}; n -= {e}; g *= {e}; w /= {e}; s *= ({e}) + 1;"),
    ]
}

/// `body` run by `main` itself, printing the result variables.
fn host_program(vars: &str, body: &str) -> String {
    format!(
        "int main() {{ {vars} long* p = (long*)malloc(8 * sizeof(long)); long* q; \
         long s = 0; int n = 1; float g = 1.5; double w = 0.25; {body} \
         printf(\"%d %ld %.17e %.17e\\n\", n, s, g, w); return 0; }}"
    )
}

/// `body` run by each thread of a one-block kernel, which stores the result
/// variables for `main` to print. The pointer `p` is a parameter: a
/// `long* p = ol;` declaration would keep the kernel out of lockstep.
fn kernel_program(vars: &str, body: &str) -> String {
    format!(
        "__global__ void k(long* ol, double* od, long* p) {{ {vars} int t = threadIdx.x; i = i + t; \
         long* q; long s = 0; int n = 1; float g = 1.5; double w = 0.25; {body} \
         ol[t * 2] = s; ol[t * 2 + 1] = n; od[t * 2] = g; od[t * 2 + 1] = w; }} \
         int main() {{ long* hl = (long*)malloc(8 * sizeof(long)); \
         double* hd = (double*)malloc(8 * sizeof(double)); long* dl; double* dd; \
         cudaMalloc(&dl, 8 * sizeof(long)); cudaMalloc(&dd, 8 * sizeof(double)); \
         k<<<1, 4>>>(dl, dd, dl); \
         cudaMemcpy(hl, dl, 8 * sizeof(long), cudaMemcpyDeviceToHost); \
         cudaMemcpy(hd, dd, 8 * sizeof(double), cudaMemcpyDeviceToHost); \
         for (int t = 0; t < 8; t++) {{ printf(\"%ld %.17e\\n\", hl[t], hd[t]); }} \
         return 0; }}"
    )
}

/// Every cell of every buffer a run allocated, freed ones included (as the
/// error reading them raises), in allocation order. Floats as bit patterns,
/// so NaNs compare.
fn cells(mem: &Memory) -> Vec<Result<String, ExecError>> {
    (0..)
        .map(BufferId)
        .take_while(|&id| mem.buffer_elem(id).is_some())
        .flat_map(|buffer| {
            let p = PtrValue {
                buffer,
                offset: 0,
                space: MemSpace::Host,
            };
            (0..mem.buffer_len(buffer) as i64).map(move |j| {
                let cell = mem.load(&p, j, false, 0);
                cell.or_else(|_| mem.load(&p, j, true, 0)).map(|v| match v {
                    Value::Float(f) => format!("{:#x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
            })
        })
        .collect()
}

/// Run `src` on the reference interpreter and on the bytecode VM, both on
/// the paper's machine (without semantic checking, so ill-typed operands
/// reach the runtime), and require the same report, or the same error
/// (its line included), and the same memory contents after the run either
/// way. Returns the VM's outcome for the caller's own checks.
fn assert_engines_agree(src: &str, dialect: Dialect) -> Result<ExecutionReport, ExecError> {
    let program = parse(src, dialect).expect("generated program parses");
    let machine = Machine::a100();
    let config = Machine::run_config();
    let mut interp = HostInterpreter::new(&program, config.clone());
    let reference = interp.run(&machine, &[]);
    let memory = Memory::new();
    let vm = run_compiled_with_memory(&compile(&program, 0), &config, &machine, &[], &memory);
    assert_eq!(cells(&interp.memory), cells(&memory), "memory: {src}");
    match (&reference, &vm) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.stdout, b.stdout, "stdout: {src}");
            assert_eq!(a.steps, b.steps, "steps: {src}");
            assert_eq!(a.lane_steps, b.lane_steps, "lane steps: {src}");
            assert_eq!(a.cost, b.cost, "cost: {src}");
            assert_eq!(a.memory, b.memory, "memory: {src}");
            assert_eq!(
                a.simulated_seconds.to_bits(),
                b.simulated_seconds.to_bits(),
                "simulated seconds: {src}"
            );
            assert_eq!(
                a.parallel_seconds.to_bits(),
                b.parallel_seconds.to_bits(),
                "parallel seconds: {src}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "error: {src}"),
        (a, b) => panic!("engines disagree on {src}: interpreter={a:?} vm={b:?}"),
    }
    vm
}

/// Every context of `e`, in a host program and in a kernel that runs in
/// lockstep.
fn assert_operator_parity(vars: &str, e: &str) {
    for body in contexts(e) {
        let _ = assert_engines_agree(&host_program(vars, &body), Dialect::CudaLite);
        let kernel = kernel_program(vars, &body);
        assert_eq!(
            lockstep_marks(&kernel, Dialect::CudaLite),
            [true],
            "{kernel}"
        );
        let _ = assert_engines_agree(&kernel, Dialect::CudaLite);
    }
}

/// Every operator over every ordered pair of a fixed operand set, which
/// the random expressions reach only by chance: equal operands, zero
/// divisors (in a register and as a literal), negative shift counts, floats
/// under bitwise operators, mixed int/float pairs, and pointer and null
/// pointer operands.
#[test]
fn engines_agree_on_every_operator_and_operand_pair() {
    let vars = "int i = 7; long l = -3; float f = 0.5; double d = -2.25; int z = 0;";
    let operands = ["i", "f", "d", "z", "0", "0.5", "(-2)", "p", "q"];
    for op in OPERATORS {
        for l in operands {
            for r in operands {
                assert_operator_parity(vars, &format!("({l} {op} {r})"));
            }
        }
    }
    for e in [
        "((p + i) - p)",
        "((p - 2) < p)",
        "(3 + p)",
        "(l % 0)",
        "(f % 0.0)",
    ] {
        assert_operator_parity(vars, e);
    }
    // A call site naming `main` makes it a callable function besides the
    // host unit: this one recurses until the simulated clock passes 0.1 ms.
    let report = assert_engines_agree(
        "int main() { long s = 0; for (int i = 0; i < 1000; i++) { s += i; } \
         printf(\"%ld %.9f\\n\", s, omp_get_wtime()); \
         if (omp_get_wtime() > 0.0001) { return 0; } return main(); }",
        Dialect::CudaLite,
    );
    let stdout = report.expect("the recursion ends").stdout;
    assert_eq!(stdout.lines().count(), 13, "{stdout}");
    assert!(stdout.ends_with("499500 0.000104254\n"), "{stdout}");
}

// ------------------------------------------------------------------------
// Parallel parity corpus: one program per construct of the kernel and the
// work-sharing schedule (barrier segments, `__shared__` memory, early
// returns, divergent barriers, device atomics, reductions, OpenMP thread
// queries, region control flow, launch and iteration caps), run on both
// engines. Each test also checks what the program must print or which error
// it must raise, so the corpus pins behaviour, not just agreement.

fn cuda(src: &str) -> Result<ExecutionReport, ExecError> {
    assert_engines_agree(src, Dialect::CudaLite)
}

fn omp(src: &str) -> Result<ExecutionReport, ExecError> {
    assert_engines_agree(src, Dialect::OmpLite)
}

fn stdout(outcome: Result<ExecutionReport, ExecError>) -> String {
    outcome.expect("program runs").stdout
}

fn error(outcome: Result<ExecutionReport, ExecError>) -> ExecError {
    outcome.expect_err("program fails")
}

/// Every thread of every block runs, threads x-fastest, and kernels call
/// `__device__` helpers.
#[test]
fn parallel_parity_every_thread_of_every_block_runs() {
    let report = cuda(
        r#"
        __device__ double square(double x) { return x * x; }
        __global__ void fill(int* out, double* sq, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = i * 3; sq[i] = square(i); }
        }
        int main() {
            int n = 256;
            int* h = (int*)malloc(n * sizeof(int));
            double* hs = (double*)malloc(n * sizeof(double));
            int* d;
            double* ds;
            cudaMalloc(&d, n * sizeof(int));
            cudaMalloc(&ds, n * sizeof(double));
            fill<<<4, 64>>>(d, ds, n);
            cudaMemcpy(h, d, n * sizeof(int), cudaMemcpyDeviceToHost);
            cudaMemcpy(hs, ds, n * sizeof(double), cudaMemcpyDeviceToHost);
            printf("%d %d %.1f\n", h[0], h[255], hs[5]);
            return 0;
        }
        "#,
    )
    .expect("program runs");
    assert_eq!(report.stdout, "0 765 25.0\n");
    assert!(report.parallel_seconds > 0.0);
    assert!(report.cost.total_ops() > 256);
}

/// Two-dimensional grids and blocks: `blockIdx.y`/`threadIdx.y` index rows.
#[test]
fn parallel_parity_two_dimensional_geometry() {
    let out = stdout(cuda(
        r#"
        __global__ void idx2d(int* out, int n) {
            int i = blockIdx.y * blockDim.y + threadIdx.y;
            int j = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n && j < n) { out[i * n + j] = i * 100 + j + threadIdx.z * 7; }
        }
        int main() {
            int n = 8;
            int* h = (int*)malloc(n * n * sizeof(int));
            int* d;
            cudaMalloc(&d, n * n * sizeof(int));
            idx2d<<<dim3(2, 2, 1), dim3(4, 4, 1)>>>(d, n);
            cudaMemcpy(h, d, n * n * sizeof(int), cudaMemcpyDeviceToHost);
            printf("%d %d\n", h[7 * 8 + 5], h[9]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "705 101\n");
}

/// Barrier segments over a literal and a dynamic-length `__shared__` array:
/// every thread of a block finishes a segment before any starts the next,
/// and each block gets its own shared buffers.
#[test]
fn parallel_parity_shared_memory_across_barriers() {
    let out = stdout(cuda(
        r#"
        __global__ void block_sum(double* out, const double* in, int n, int m) {
            __shared__ double tile[64];
            __shared__ long scratch[m + 1];
            int tid = threadIdx.x;
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { tile[tid] = in[i]; } else { tile[tid] = 0.0; }
            scratch[tid % (m + 1)] = tid + blockIdx.x;
            __syncthreads();
            if (tid == 0) {
                double s = 0.0;
                for (int k = 0; k < 64; k++) { s += tile[k]; }
                out[blockIdx.x] = s;
            }
            __syncthreads();
            tile[tid] = tile[(tid + 1) % 64] * 2.0;
            __syncthreads();
            if (tid == 1) { out[gridDim.x + blockIdx.x] = tile[0] + scratch[m]; }
        }
        int main() {
            int n = 128;
            double* h_in = (double*)malloc(n * sizeof(double));
            double* h_out = (double*)malloc(4 * sizeof(double));
            for (int i = 0; i < n; i++) { h_in[i] = 1.0; }
            h_in[70] = 2.5;
            double* d_in;
            double* d_out;
            cudaMalloc(&d_in, n * sizeof(double));
            cudaMalloc(&d_out, 4 * sizeof(double));
            cudaMemcpy(d_in, h_in, n * sizeof(double), cudaMemcpyHostToDevice);
            block_sum<<<2, 64>>>(d_out, d_in, n, 7);
            cudaMemcpy(h_out, d_out, 4 * sizeof(double), cudaMemcpyDeviceToHost);
            printf("%.2f %.2f %.2f %.2f\n", h_out[0], h_out[1], h_out[2], h_out[3]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "64.00 65.50 65.00 66.00\n");
}

/// A thread that returns is done: it runs no later segment, while the rest
/// of its block passes the barrier.
#[test]
fn parallel_parity_thread_returning_before_a_barrier() {
    let out = stdout(cuda(
        r#"
        __global__ void k(int* out) {
            __shared__ int flag[4];
            int t = threadIdx.x;
            flag[t] = t + 1;
            if (t >= 2) { out[t] = -1; return; }
            __syncthreads();
            out[t] = flag[3 - t] * 10;
        }
        int main() {
            int* h = (int*)malloc(4 * sizeof(int));
            int* d;
            cudaMalloc(&d, 4 * sizeof(int));
            k<<<1, 4>>>(d);
            cudaMemcpy(h, d, 4 * sizeof(int), cudaMemcpyDeviceToHost);
            printf("%d %d %d %d\n", h[0], h[1], h[2], h[3]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "40 30 -1 -1\n");
}

/// A `__syncthreads()` below the top level of a kernel is barrier
/// divergence, reported under the launched kernel's name.
#[test]
fn parallel_parity_nested_barrier_is_divergence_named_after_the_kernel() {
    let err = error(cuda(
        r#"
        __global__ void diverge(int* out) {
            int t = threadIdx.x;
            out[t] = t;
            if (t < 2) { __syncthreads(); }
        }
        int main() {
            int* d;
            cudaMalloc(&d, 4 * sizeof(int));
            diverge<<<1, 4>>>(d);
            return 0;
        }
        "#,
    ));
    assert_eq!(
        err,
        ExecError::BarrierDivergence {
            kernel: "diverge".to_string()
        }
    );
}

/// `atomicAdd` across blocks, and `atomicMin`/`atomicMax` on int and
/// double cells.
#[test]
fn parallel_parity_device_atomics() {
    let out = stdout(cuda(
        r#"
        __global__ void atoms(double* sum, int* lo, int* hi, double* dlo, double* dhi, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                int v = (i * 37) % 101 - 50;
                atomicAdd(sum, 1.0);
                atomicMin(lo, v);
                atomicMax(hi, v);
                atomicMin(dlo, v * 0.5);
                atomicMax(dhi, v * 0.25);
            }
        }
        int main() {
            int n = 1000;
            double* hd = (double*)malloc(3 * sizeof(double));
            int* hi = (int*)malloc(2 * sizeof(int));
            hd[0] = 0.0; hd[1] = 100.0; hd[2] = -100.0;
            hi[0] = 1000; hi[1] = -1000;
            double* d;
            int* di;
            cudaMalloc(&d, 3 * sizeof(double));
            cudaMalloc(&di, 2 * sizeof(int));
            cudaMemcpy(d, hd, 3 * sizeof(double), cudaMemcpyHostToDevice);
            cudaMemcpy(di, hi, 2 * sizeof(int), cudaMemcpyHostToDevice);
            atoms<<<8, 128>>>(d, di, di + 1, d + 1, d + 2, n);
            cudaMemcpy(hd, d, 3 * sizeof(double), cudaMemcpyDeviceToHost);
            cudaMemcpy(hi, di, 2 * sizeof(int), cudaMemcpyDeviceToHost);
            printf("%.1f %d %d %.2f %.2f\n", hd[0], hi[0], hi[1], hd[1], hd[2]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "1000.0 -50 50 -25.00 12.50\n");
}

/// Faults inside a kernel surface as the run's error: an out-of-bounds
/// store, and a host pointer dereferenced on the device.
#[test]
fn parallel_parity_kernel_faults() {
    let oob = error(cuda(
        r#"
        __global__ void bad(int* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = i;
        }
        int main() {
            int* d;
            cudaMalloc(&d, 16 * sizeof(int));
            bad<<<4, 64>>>(d, 16);
            return 0;
        }
        "#,
    ));
    assert_eq!(oob.category(), "out_of_bounds");
    let host = error(cuda(
        r#"
        __global__ void bad(float* out) { out[0] = 1.0; }
        int main() {
            float* h = (float*)malloc(8 * sizeof(float));
            bad<<<1, 32>>>(h);
            return 0;
        }
        "#,
    ));
    assert_eq!(host.category(), "illegal_memory_space");
    assert!(host.to_string().contains("CUDA error"));
}

/// The simulator's thread cap and the argument-count check reject a launch
/// before any thread runs, with their exact messages.
#[test]
fn parallel_parity_launch_limits() {
    let cap = error(cuda(
        r#"
        __global__ void k(int* out) { out[0] = 1; }
        int main() {
            int* d;
            cudaMalloc(&d, sizeof(int));
            k<<<100000, 1024>>>(d);
            return 0;
        }
        "#,
    ));
    assert_eq!(
        cap.to_string(),
        ExecError::InvalidLaunchConfig {
            kernel: "k".to_string(),
            reason: "launch of 102400000 threads exceeds the simulator limit of 8000000"
                .to_string(),
        }
        .to_string()
    );
    let argc = error(cuda(
        r#"
        __global__ void k(int* out, int n) { out[0] = n; }
        int main() {
            int* d;
            cudaMalloc(&d, sizeof(int));
            k<<<1, 32>>>(d);
            return 0;
        }
        "#,
    ));
    assert_eq!(
        argc,
        ExecError::other("kernel 'k' launched with 1 arguments but declares 2 parameters")
    );
}

/// The kernel cost model prices a one-thread launch of the same work far
/// above a wide one.
#[test]
fn parallel_parity_single_thread_launch_is_slower() {
    let launch = |grid: u32, block: u32| {
        cuda(&format!(
            r#"
            __global__ void work(double* out, int n) {{
                int start = blockIdx.x * blockDim.x + threadIdx.x;
                int stride = gridDim.x * blockDim.x;
                for (int i = start; i < n; i += stride) {{ out[i] = i * 2.0; }}
            }}
            int main() {{
                int n = 4096;
                double* d;
                cudaMalloc(&d, n * sizeof(double));
                work<<<{grid}, {block}>>>(d, n);
                return 0;
            }}
            "#
        ))
        .expect("program runs")
        .parallel_seconds
    };
    let wide = launch(16, 256);
    let narrow = launch(1, 1);
    assert!(
        narrow > wide * 20.0,
        "serialized kernel should be much slower ({narrow} vs {wide})"
    );
}

/// `reduction` with `+ * min max` over int, long, float and double, each
/// from a non-identity original value, in a host region over 100
/// iterations and in an offload region over 65 (which leaves empty chunks),
/// plus a two-variable clause and a variable unbound at the pragma.
#[test]
fn parallel_parity_reductions_over_every_operator_and_type() {
    let cases = [
        (
            "+",
            "r += i % 7 - 2;",
            "r += (i % 7) * 0.37 - 1.1;",
            "5",
            "2.5",
        ),
        (
            "*",
            "r *= (i % 9 == 0) ? 2 : 1;",
            "r *= 1.0 + (i % 3) * 0.01;",
            "3",
            "1.5",
        ),
        (
            "min",
            "if ((i * 37) % 101 - 50 < r) { r = (i * 37) % 101 - 50; }",
            "if ((i * 37) % 101 * 0.5 - 20.0 < r) { r = (i * 37) % 101 * 0.5 - 20.0; }",
            "-7",
            "-7.5",
        ),
        (
            "max",
            "if ((i * 37) % 101 - 50 > r) { r = (i * 37) % 101 - 50; }",
            "if ((i * 37) % 101 * 0.5 - 20.0 > r) { r = (i * 37) % 101 * 0.5 - 20.0; }",
            "42",
            "20.25",
        ),
    ];
    for (op, int_update, float_update, int_init, float_init) in cases {
        for (ty, fmt, update, init) in [
            ("int", "%d", int_update, int_init),
            ("long", "%ld", int_update, int_init),
            ("float", "%.17e", float_update, float_init),
            ("double", "%.17e", float_update, float_init),
        ] {
            for (pragma, n) in [
                ("parallel for", 100),
                ("target teams distribute parallel for map(tofrom: r)", 65),
            ] {
                let out = stdout(omp(&format!(
                    r#"
                    int main() {{
                        int n = {n};
                        {ty} r = {init};
                        #pragma omp {pragma} reduction({op}:r)
                        for (int i = 0; i < n; i++) {{ {update} }}
                        printf("{fmt}\n", r);
                        return 0;
                    }}
                    "#
                )));
                assert!(!out.is_empty(), "{op} over {ty} printed nothing");
            }
        }
    }
    let out = stdout(omp(r#"
        int main() {
            int n = 300;
            double sum = 100.0;
            long count = 7;
            #pragma omp parallel for reduction(+:sum, count)
            for (int i = 0; i < n; i++) { sum += i; count += 1; }
            #pragma omp parallel for reduction(+:unbound)
            for (int i = 0; i < n; i++) { unbound += 1.0; }
            printf("%.1f %ld\n", sum, count);
            return 0;
        }
        "#));
    assert_eq!(out, "44950.0 307\n");
}

/// `omp_get_thread_num`, `omp_get_num_threads` and `omp_get_max_threads`
/// in host code, in a host region and in an offload region: chunk `c` of
/// the split runs as thread `c % threads`.
#[test]
fn parallel_parity_omp_thread_queries() {
    let out = stdout(omp(r#"
        int main() {
            int n = 200;
            long* t = (long*)malloc(n * sizeof(long));
            long* m = (long*)malloc(n * sizeof(long));
            printf("%d %d %d\n", omp_get_thread_num(), omp_get_num_threads(), omp_get_max_threads());
            #pragma omp parallel for num_threads(8)
            for (int i = 0; i < n; i++) {
                t[i] = omp_get_thread_num();
                m[i] = omp_get_num_threads() * 1000 + omp_get_max_threads();
            }
            long s = 0;
            for (int i = 0; i < n; i++) { s += t[i] * (i + 1) + m[i]; }
            printf("%ld %ld %ld\n", s, t[7], t[199]);
            #pragma omp target teams distribute parallel for map(tofrom: t[0:n], m[0:n])
            for (int i = 0; i < n; i++) {
                t[i] = omp_get_thread_num();
                m[i] = omp_get_num_threads() * 1000 + omp_get_max_threads();
            }
            s = 0;
            for (int i = 0; i < n; i++) { s += t[i] * (i + 1) + m[i]; }
            printf("%ld %ld %ld\n", s, t[7], t[199]);
            return 0;
        }
        "#));
    assert_eq!(out.lines().next(), Some("0 1 64"));
    assert_eq!(out.lines().count(), 3);
}

/// `break` ends the current chunk only; `return` inside a region is an
/// error.
#[test]
fn parallel_parity_region_control_flow() {
    let out = stdout(omp(r#"
        int main() {
            int n = 640;
            long* hit = (long*)malloc(n * sizeof(long));
            for (int i = 0; i < n; i++) { hit[i] = 0; }
            #pragma omp parallel for
            for (int i = 0; i < n; i++) {
                if (i % 10 == 3) { break; }
                if (i % 10 == 1) { continue; }
                hit[i] = 1;
            }
            long s = 0;
            for (int i = 0; i < n; i++) { s += hit[i]; }
            printf("%ld\n", s);
            return 0;
        }
        "#));
    assert_eq!(out, "128\n");
    let err = error(omp(r#"
        int main() {
            int n = 10;
            #pragma omp parallel for
            for (int i = 0; i < n; i++) { if (i == 5) { return 1; } }
            return 0;
        }
        "#));
    assert_eq!(
        err,
        ExecError::other("line 4: 'return' is not allowed inside an OpenMP work-sharing region")
    );
}

/// The iteration cap rejects a region before any iteration runs.
#[test]
fn parallel_parity_region_iteration_cap() {
    let err = error(omp(r#"
        int main() {
            long c = 0;
            #pragma omp parallel for
            for (long i = 0; i < 9000000; i++) { c += 1; }
            printf("%ld\n", c);
            return 0;
        }
        "#));
    assert_eq!(
        err,
        ExecError::other(
            "line 4: work-sharing loop of 9000000 iterations exceeds the simulator limit of 8000000"
        )
    );
}

/// An iteration space wider than `i64` counts its iterations without
/// overflow and meets the iteration cap.
#[test]
fn parallel_parity_wide_iteration_space_meets_the_cap() {
    let err = error(omp(r#"
        int main() {
            long lo = -9000000000000000000;
            long hi = 9000000000000000000;
            long c = 0;
            #pragma omp parallel for
            for (long i = lo; i < hi; i++) { c += 1; }
            printf("%ld\n", c);
            return 0;
        }
        "#));
    assert_eq!(
        err,
        ExecError::other(
            "line 6: work-sharing loop of 18000000000000000000 iterations exceeds the simulator limit of 8000000"
        )
    );
}

/// A step whose offset from the lower bound overflows `i64` midway still
/// gives every iteration its value.
#[test]
fn parallel_parity_wide_step_reaches_every_iteration() {
    let out = stdout(omp(r#"
        int main() {
            long lo = -9000000000000000000;
            long hi = 9000000000000000000;
            long* seen = (long*)malloc(18 * sizeof(long));
            #pragma omp parallel for
            for (long i = lo; i < hi; i += 1000000000000000000) {
                seen[i / 1000000000000000000 + 9] = i;
            }
            printf("%ld %ld\n", seen[0], seen[17]);
            return 0;
        }
        "#));
    assert_eq!(out, "-9000000000000000000 8000000000000000000\n");
}

/// A `long` product reduction wraps like the program's own arithmetic.
#[test]
fn parallel_parity_long_product_reduction_wraps() {
    let out = stdout(omp(r#"
        int main() {
            int n = 640;
            long p = 1;
            #pragma omp parallel for reduction(*:p)
            for (int i = 0; i < n; i++) { p *= 3; }
            printf("%ld\n", p);
            return 0;
        }
        "#));
    assert_eq!(out, "-5642588177638596095\n");
}

/// Negating the least `long` wraps to itself, like the binary operators, in
/// host code, in a lockstep kernel and in the delta of an atomic `-=`.
#[test]
fn parallel_parity_negating_the_least_long_wraps() {
    let kernel = r#"
        __global__ void neg(long* out, long m) { out[threadIdx.x] = -m; }
        int main() {
            long m = 1;
            for (int i = 0; i < 63; i++) { m *= 2; }
            long* h = (long*)malloc(4 * sizeof(long));
            long* d;
            cudaMalloc(&d, 4 * sizeof(long));
            neg<<<1, 4>>>(d, m);
            cudaMemcpy(h, d, 4 * sizeof(long), cudaMemcpyDeviceToHost);
            printf("%ld %ld\n", -m, h[3]);
            return 0;
        }
        "#;
    assert_eq!(lockstep_marks(kernel, Dialect::CudaLite), [true]);
    let out = stdout(cuda(kernel));
    assert_eq!(out, "-9223372036854775808 -9223372036854775808\n");
    let out = stdout(omp(r#"
        int main() {
            long m = 1;
            for (int i = 0; i < 63; i++) { m *= 2; }
            long* a = (long*)malloc(1 * sizeof(long));
            a[0] = 0;
            #pragma omp parallel for
            for (int i = 0; i < 1; i++) {
                #pragma omp atomic
                a[0] -= m;
            }
            printf("%ld\n", a[0]);
            return 0;
        }
        "#));
    assert_eq!(out, "-9223372036854775808\n");
}

/// An atomic add past the greatest `long` wraps to the least, like the
/// binary operators, in a CUDA `atomicAdd` and in an OpenMP `atomic +=`.
#[test]
fn parallel_parity_atomic_add_past_the_greatest_long_wraps() {
    let out = stdout(cuda(
        r#"
        __global__ void bump(long* x) { atomicAdd(x, 1); }
        int main() {
            long* h = (long*)malloc(1 * sizeof(long));
            h[0] = 9223372036854775807;
            long* d;
            cudaMalloc(&d, 1 * sizeof(long));
            cudaMemcpy(d, h, 1 * sizeof(long), cudaMemcpyHostToDevice);
            bump<<<1, 1>>>(d);
            cudaMemcpy(h, d, 1 * sizeof(long), cudaMemcpyDeviceToHost);
            printf("%ld\n", h[0]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "-9223372036854775808\n");
    let out = stdout(omp(r#"
        int main() {
            long* a = (long*)malloc(1 * sizeof(long));
            a[0] = 9223372036854775807;
            #pragma omp parallel for
            for (int i = 0; i < 1; i++) {
                #pragma omp atomic
                a[0] += 1;
            }
            printf("%ld\n", a[0]);
            return 0;
        }
        "#));
    assert_eq!(out, "-9223372036854775808\n");
}

/// Region memory semantics: writes are visible after the region, `omp
/// atomic` updates land, faults propagate, an offload region needs its
/// buffers mapped and a host region does not.
#[test]
fn parallel_parity_region_memory() {
    let out = stdout(omp(r#"
        int main() {
            int n = 300;
            long* out = (long*)malloc(n * sizeof(long));
            double* total = (double*)malloc(1 * sizeof(double));
            double* a = (double*)malloc(64 * sizeof(double));
            total[0] = 0.0;
            #pragma omp target teams distribute parallel for map(from: out[0:n])
            for (int i = 0; i < n; i++) { out[i] = i * i; }
            #pragma omp target teams distribute parallel for map(tofrom: total[0:1])
            for (int i = 0; i < 1000; i++) {
                #pragma omp atomic
                total[0] += 1.0;
            }
            #pragma omp parallel for num_threads(8) schedule(static)
            for (int i = 0; i < 64; i++) { a[i] = 2.0 * i; }
            printf("%ld %ld %.1f %.1f\n", out[2], out[299], total[0], a[63]);
            return 0;
        }
        "#));
    assert_eq!(out, "4 89401 1000.0 126.0\n");
    let oob = error(omp(r#"
        int main() {
            int n = 10;
            double* a = (double*)malloc(4 * sizeof(double));
            #pragma omp target teams distribute parallel for map(tofrom: a[0:4])
            for (int i = 0; i < n; i++) { a[i] = i; }
            return 0;
        }
        "#));
    assert_eq!(oob.category(), "out_of_bounds");
    let unmapped = error(omp(r#"
        int main() {
            int n = 16;
            double* a = (double*)malloc(n * sizeof(double));
            #pragma omp target teams distribute parallel for
            for (int i = 0; i < n; i++) { a[i] = i; }
            return 0;
        }
        "#));
    assert_eq!(unmapped.category(), "illegal_memory_space");
}

/// Mapping inside a loop (the `jacobi`/`dense-embedding` pattern) costs far
/// more than mapping once around it, for the same output.
#[test]
fn parallel_parity_mapping_inside_a_loop_costs_transfers() {
    let run = |body: &str| {
        omp(&format!(
            r#"
            int main() {{
                int n = 60000;
                int iters = 8;
                double* a = (double*)malloc(n * sizeof(double));
                double sum = 0.0;
                {body}
                printf("%.1f\n", sum);
                return 0;
            }}
            "#
        ))
        .expect("program runs")
    };
    let per_iteration = run(r#"
        for (int it = 0; it < iters; it++) {
            #pragma omp target teams distribute parallel for map(tofrom: a[0:n]) map(tofrom: sum) reduction(+:sum)
            for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; sum += 1.0; }
        }"#);
    let map_once = run(r#"
        #pragma omp target data map(tofrom: a[0:n])
        {
            for (int it = 0; it < iters; it++) {
                #pragma omp target teams distribute parallel for map(tofrom: sum) reduction(+:sum)
                for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; sum += 1.0; }
            }
        }"#);
    assert_eq!(per_iteration.stdout, "480000.0\n");
    assert_eq!(per_iteration.stdout, map_once.stdout);
    assert!(
        per_iteration.parallel_seconds > map_once.parallel_seconds * 1.5,
        "per-iteration mapping should be much slower ({} vs {})",
        per_iteration.parallel_seconds,
        map_once.parallel_seconds
    );
}

/// A fault in a later thread of a later block stops the launch there:
/// earlier threads' stores stay, later threads never run, and the error
/// names the faulting statement's line.
#[test]
fn parallel_parity_fault_in_a_later_thread_of_a_later_block() {
    let div = error(cuda(
        r#"
        __global__ void k(int* out) {
            int t = threadIdx.x;
            int i = blockIdx.x * blockDim.x + t;
            out[i] = t + 1;
            if (blockIdx.x == 2) { out[i] = 100 / (5 - t); }
        }
        int main() {
            int* d;
            cudaMalloc(&d, 32 * sizeof(int));
            k<<<4, 8>>>(d);
            return 0;
        }
        "#,
    ));
    assert_eq!(div, ExecError::DivisionByZero { line: 6 });
    let oob = error(cuda(
        r#"
        __global__ void k(int* out) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = i;
            if (blockIdx.x == 1 && threadIdx.x == 3) {
                out[i + 100] = 7;
            }
            out[i] = -i;
        }
        int main() {
            int* d;
            cudaMalloc(&d, 32 * sizeof(int));
            k<<<4, 8>>>(d);
            return 0;
        }
        "#,
    ));
    assert_eq!(
        oob,
        ExecError::OutOfBounds {
            buffer: "d".to_string(),
            index: 111,
            len: 32,
            line: 6
        }
    );
}

/// A thread that returns early ends only itself: the threads after it in
/// the block still run.
#[test]
fn parallel_parity_early_return_in_the_middle_of_a_block() {
    let out = stdout(cuda(
        r#"
        __global__ void k(int* out) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = -1;
            if (threadIdx.x % 3 == 1) { return; }
            out[i] = i * 2;
        }
        int main() {
            int* h = (int*)malloc(16 * sizeof(int));
            int* d;
            cudaMalloc(&d, 16 * sizeof(int));
            k<<<2, 8>>>(d);
            cudaMemcpy(h, d, 16 * sizeof(int), cudaMemcpyDeviceToHost);
            for (int i = 0; i < 16; i++) { printf("%d ", h[i]); }
            printf("\n");
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "0 -1 4 6 -1 10 12 -1 16 -1 20 22 -1 26 28 -1 \n");
}

/// `break` in the middle of a chunk skips the rest of that chunk only, and
/// the next chunk starts at its own first iteration.
#[test]
fn parallel_parity_break_in_the_middle_of_a_chunk() {
    let out = stdout(omp(r#"
        int main() {
            int n = 640;
            long* hit = (long*)malloc(n * sizeof(long));
            for (int i = 0; i < n; i++) { hit[i] = -1; }
            #pragma omp parallel for
            for (int i = 0; i < n; i++) {
                if (i % 10 == 5 && i < 320) { break; }
                hit[i] = i;
            }
            long s = 0;
            for (int i = 0; i < n; i++) { if (hit[i] >= 0) { s += 1; } }
            printf("%ld %ld %ld %ld %ld\n", s, hit[4], hit[5], hit[10], hit[325]);
            return 0;
        }
        "#));
    assert_eq!(out, "480 4 -1 10 325\n");
}

/// A `continue` at the top level of a region body ends the iteration, in
/// an `if` or unconditionally, and the chunk goes on with the next one.
#[test]
fn parallel_parity_top_level_continue_in_a_region_body() {
    let out = stdout(omp(r#"
        int main() {
            int n = 200;
            long* hit = (long*)malloc(n * sizeof(long));
            #pragma omp parallel for
            for (int i = 0; i < n; i++) {
                hit[i] = 1;
                if (i % 2 == 0) { continue; }
                hit[i] = 2;
                continue;
                hit[i] = 3;
            }
            long s = 0;
            for (int i = 0; i < n; i++) { s += hit[i]; }
            printf("%ld %ld %ld\n", s, hit[198], hit[199]);
            return 0;
        }
        "#));
    assert_eq!(out, "300 1 2\n");
}

/// The threads of a three-dimensional block run x fastest, then y, then z,
/// and blocks in index order: each thread takes the next ticket.
#[test]
fn parallel_parity_three_dimensional_block_runs_x_fastest() {
    let out = stdout(cuda(
        r#"
        __global__ void k(int* ticket, int* order) {
            int t = (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x + threadIdx.x;
            int i = blockIdx.x * blockDim.x * blockDim.y * blockDim.z + t;
            order[i] = atomicAdd(ticket, 1);
        }
        int main() {
            int n = 24;
            int* h = (int*)malloc(n * sizeof(int));
            int* ticket;
            int* order;
            cudaMalloc(&ticket, sizeof(int));
            cudaMalloc(&order, n * sizeof(int));
            k<<<dim3(2, 1, 1), dim3(2, 3, 2)>>>(ticket, order);
            cudaMemcpy(h, order, n * sizeof(int), cudaMemcpyDeviceToHost);
            int in_order = 1;
            for (int i = 0; i < n; i++) { if (h[i] != i) { in_order = 0; } }
            printf("%d %d %d\n", in_order, h[5], h[23]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "1 5 23\n");
}

/// What kernel threads and OpenMP workers print reaches the program's
/// output in schedule order: blocks in index order, threads x fastest,
/// a block with a barrier segment by segment, chunks in order.
#[test]
fn parallel_parity_device_and_worker_printf() {
    let out = stdout(cuda(
        r#"
        __global__ void flat(int n) {
            printf("%d.%d ", blockIdx.x, threadIdx.x);
        }
        __global__ void barrier(int n) {
            printf("a%d ", threadIdx.x);
            __syncthreads();
            printf("b%d ", threadIdx.x);
        }
        int main() {
            printf("[");
            flat<<<2, 3>>>(0);
            printf("] [");
            barrier<<<1, 3>>>(0);
            printf("]\n");
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "[0.0 0.1 0.2 1.0 1.1 1.2 ] [a0 a1 a2 b0 b1 b2 ]\n");
    let out = stdout(omp(r#"
        int main() {
            printf("<");
            #pragma omp parallel for
            for (int i = 0; i < 4; i++) { printf("%d:%d ", i, omp_get_thread_num()); }
            printf(">\n");
            return 0;
        }
        "#));
    assert_eq!(out, "<0:0 1:1 2:2 3:3 >\n");
}

// ------------------------------------------------------------------------
// Lockstep lanes: the VM runs an eligible kernel block, or up to 1024
// consecutive iterations of an eligible chunk, one instruction at a time
// over all of them, and runs a group again sequentially when lanes fault
// or share memory in a way lockstep cannot order. These programs diverge,
// fault and share memory on purpose; both engines must agree on every
// observable, memory included.

/// Whether the compiled program's kernels and regions are marked for
/// lockstep, in table order.
fn lockstep_marks(src: &str, dialect: Dialect) -> Vec<bool> {
    let compiled = compile(&parse(src, dialect).expect("parses"), 0);
    let kernels = compiled.kernels.iter().map(|k| k.lockstep.is_some());
    kernels
        .chain(compiled.regions.iter().map(|r| r.lockstep.is_some()))
        .collect()
}

/// Lanes of one block split three ways at an `if`/`else if`/`else` and
/// meet again at its end.
#[test]
fn parallel_parity_lockstep_divergent_if_else() {
    let src = r#"
        __global__ void k(int* out, double* f) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i % 3 == 0) {
                out[i] = i * 2;
                f[i] = i * 0.5;
            } else if (i % 3 == 1) {
                out[i] = -i;
            } else {
                out[i] = i + 100;
                f[i] = sqrt(i * 1.0);
            }
        }
        int main() {
            int n = 192;
            int* h = (int*)malloc(n * sizeof(int));
            double* g = (double*)malloc(n * sizeof(double));
            int* d;
            double* f;
            cudaMalloc(&d, n * sizeof(int));
            cudaMalloc(&f, n * sizeof(double));
            k<<<3, 64>>>(d, f);
            cudaMemcpy(h, d, n * sizeof(int), cudaMemcpyDeviceToHost);
            cudaMemcpy(g, f, n * sizeof(double), cudaMemcpyDeviceToHost);
            long s = 0;
            double t = 0.0;
            for (int i = 0; i < n; i++) { s += h[i] * (i + 1); t += g[i]; }
            printf("%ld %.6f %d %d %d\n", s, t, h[0], h[64], h[191]);
            return 0;
        }
        "#;
    assert_eq!(lockstep_marks(src, Dialect::CudaLite), [true]);
    assert_eq!(stdout(cuda(src)), "2184640 3617.505137 0 -64 291\n");
}

/// Every lane runs a `while` loop its own number of times (Collatz steps),
/// so lanes leave the loop one by one.
#[test]
fn parallel_parity_lockstep_per_lane_loop_trip_counts() {
    let out = stdout(cuda(
        r#"
        __global__ void k(long* out) {
            int t = blockIdx.x * blockDim.x + threadIdx.x;
            long n = t;
            long steps = 0;
            while (n != 1 && n > 0) {
                if (n % 2 == 0) {
                    n = n / 2;
                } else {
                    n = 3 * n + 1;
                }
                steps += 1;
            }
            out[t] = steps;
        }
        int main() {
            long* h = (long*)malloc(64 * sizeof(long));
            long* d;
            cudaMalloc(&d, 64 * sizeof(long));
            k<<<2, 32>>>(d);
            cudaMemcpy(h, d, 64 * sizeof(long), cudaMemcpyDeviceToHost);
            long s = 0;
            for (int t = 0; t < 64; t++) { s += h[t] * (t + 1); }
            printf("%ld %ld %ld %ld\n", s, h[0], h[27], h[63]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "71962 0 111 107\n");
}

/// A load faults in lane 5 of block 1 after every lane of the block
/// stored: the block runs again sequentially, so lanes 0 to 4 finish, lane
/// 5 keeps its first store, and the later lanes never run.
#[test]
fn parallel_parity_lockstep_fault_in_a_later_lane_of_a_later_block() {
    let err = error(cuda(
        r#"
        __global__ void k(int* out, int* idx) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            int j = idx[i];
            out[i] = j * 2;
            out[i] = idx[j] + 1;
        }
        int main() {
            int n = 32;
            int* h = (int*)malloc(n * sizeof(int));
            for (int i = 0; i < n; i++) { h[i] = i; }
            h[13] = 1000;
            int* out;
            int* idx;
            cudaMalloc(&out, n * sizeof(int));
            cudaMalloc(&idx, n * sizeof(int));
            cudaMemcpy(idx, h, n * sizeof(int), cudaMemcpyHostToDevice);
            k<<<4, 8>>>(out, idx);
            return 0;
        }
        "#,
    ));
    assert_eq!(
        err,
        ExecError::OutOfBounds {
            buffer: "idx".to_string(),
            index: 1000,
            len: 32,
            line: 6
        }
    );
}

/// Each lane stores the cell the next lane loads: lockstep would read the
/// old values, so the launch falls back and runs in thread order, which
/// carries the chain through the block.
#[test]
fn parallel_parity_lockstep_in_place_update_falls_back() {
    let out = stdout(cuda(
        r#"
        __global__ void k(int* a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i + 1 < n) {
                a[i + 1] = a[i] + 1;
            }
        }
        int main() {
            int n = 64;
            int* h = (int*)malloc(n * sizeof(int));
            int* d;
            cudaMalloc(&d, n * sizeof(int));
            k<<<2, 32>>>(d, n);
            k<<<2, 32>>>(d, n);
            cudaMemcpy(h, d, n * sizeof(int), cudaMemcpyDeviceToHost);
            long s = 0;
            for (int i = 0; i < n; i++) { s += h[i]; }
            printf("%ld %d %d %d\n", s, h[1], h[32], h[63]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "2016 1 32 63\n");
}

/// Lanes store to one cell from two different stores: the last thread in
/// order must win, so the launch falls back.
#[test]
fn parallel_parity_lockstep_two_stores_to_one_cell() {
    let out = stdout(cuda(
        r#"
        __global__ void k(int* out) {
            int t = threadIdx.x;
            if (t & 1) {
                out[0] = t;
            } else {
                out[0] = -t;
            }
            out[t + 1] = blockIdx.x;
        }
        int main() {
            int* h = (int*)malloc(17 * sizeof(int));
            int* d;
            cudaMalloc(&d, 17 * sizeof(int));
            k<<<2, 16>>>(d);
            cudaMemcpy(h, d, 17 * sizeof(int), cudaMemcpyDeviceToHost);
            printf("%d %d %d\n", h[0], h[1], h[16]);
            k<<<1, 15>>>(d);
            cudaMemcpy(h, d, 17 * sizeof(int), cudaMemcpyDeviceToHost);
            printf("%d %d\n", h[0], h[16]);
            return 0;
        }
        "#,
    ));
    assert_eq!(out, "15 1 1\n-14 1\n");
}

/// A private variable carried from one iteration to the next keeps the
/// region off lockstep: each chunk's worker accumulates its own copy.
#[test]
fn parallel_parity_lockstep_loop_carried_private_is_ineligible() {
    let src = r#"
        int main() {
            int n = 200;
            long* out = (long*)malloc(n * sizeof(long));
            long c = 0;
            #pragma omp parallel for
            for (int i = 0; i < n; i++) {
                c = c + i;
                out[i] = c;
            }
            long s = 0;
            for (int i = 0; i < n; i++) { s += out[i]; }
            printf("%ld %ld %ld %ld\n", s, out[3], out[4], out[199]);
            return 0;
        }
        "#;
    assert_eq!(lockstep_marks(src, Dialect::OmpLite), [false]);
    assert_eq!(stdout(omp(src)), "49500 6 4 790\n");
}

/// A float reduction keeps its region off lockstep, so its private sums
/// still add up in iteration order, chunk by chunk.
#[test]
fn parallel_parity_lockstep_float_reduction_is_ineligible() {
    let src = r#"
        int main() {
            int n = 1000;
            double* x = (double*)malloc(n * sizeof(double));
            for (int i = 0; i < n; i++) { x[i] = 1.0 / (i + 3); }
            double s = 0.25;
            #pragma omp parallel for reduction(+:s)
            for (int i = 0; i < n; i++) {
                s += x[i] * 0.1;
            }
            printf("%.17e\n", s);
            return 0;
        }
        "#;
    assert_eq!(lockstep_marks(src, Dialect::OmpLite), [false]);
    assert_eq!(stdout(omp(src)), "8.48746786554136157e-01\n");
}

/// Chunks of 1500 iterations run as a group of 1024 lanes and one of 476,
/// each lane with its own loop variable.
#[test]
fn parallel_parity_lockstep_chunk_of_more_than_1024_iterations() {
    let src = r#"
        int main() {
            long n = 96000;
            long* out = (long*)malloc(n * sizeof(long));
            #pragma omp parallel for
            for (long i = 0; i < n; i++) {
                long v = i * 7 % 11;
                if (v > 5) {
                    v = v - omp_get_thread_num();
                }
                out[i] = v;
            }
            long s = 0;
            for (long i = 0; i < n; i++) { s += out[i] * (i % 5 + 1); }
            printf("%ld %ld %ld %ld\n", s, out[1023], out[1024], out[95999]);
            return 0;
        }
        "#;
    assert_eq!(lockstep_marks(src, Dialect::OmpLite), [true]);
    assert_eq!(stdout(omp(src)), "-2683532 0 7 3\n");
}

// ------------------------------------------------------------------------
// The line a fault reports: the innermost enclosing statement's, on both
// engines, wherever the fault happens inside it.

/// A fault in a `while` condition, after the body ran, reports the loop.
#[test]
fn fault_line_of_a_while_condition_is_the_loop() {
    let err = error(assert_engines_agree(
        r#"
        int main() {
            int a[4];
            int i = 0;
            while (a[i] < 10) {
                a[i] = 20;
                i = i + 1;
            }
            return 0;
        }
        "#,
        Dialect::CudaLite,
    ));
    assert_eq!(
        err,
        ExecError::OutOfBounds {
            buffer: "a".to_string(),
            index: 4,
            len: 4,
            line: 5
        }
    );
}

/// A fault in a `for` condition, after the body and the step ran, reports
/// the loop.
#[test]
fn fault_line_of_a_for_condition_is_the_loop() {
    let err = error(assert_engines_agree(
        r#"
        int main() {
            int a[4];
            for (int i = 0;
                 a[i] < 10;
                 i++) {
                a[i] = 20;
            }
            return 0;
        }
        "#,
        Dialect::CudaLite,
    ));
    assert_eq!(
        err,
        ExecError::OutOfBounds {
            buffer: "a".to_string(),
            index: 4,
            len: 4,
            line: 4
        }
    );
}

/// A fault after a call returns reports the caller's statement, not the
/// callee's last line.
#[test]
fn fault_line_after_a_call_is_the_callers_statement() {
    let err = error(assert_engines_agree(
        r#"
        int f(int x) {
            int y = x * 2;
            return y + 1;
        }
        int main() {
            int a[4];
            int s = a[f(3)];
            return s;
        }
        "#,
        Dialect::CudaLite,
    ));
    assert_eq!(
        err,
        ExecError::OutOfBounds {
            buffer: "a".to_string(),
            index: 7,
            len: 4,
            line: 8
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bytecode VM and the reference interpreter agree on random
    /// expressions over all eighteen binary operators, in every lowering
    /// context, in host code and in a kernel.
    #[test]
    fn engines_agree_on_every_operator(
        e in arb_op_expr(2),
        i in -20i64..20,
        l in -1000i64..1000,
        f in -8.0f64..8.0,
        d in -8.0f64..8.0,
    ) {
        let vars = format!("int i = {i}; long l = {l}; float f = {f:.3}; double d = {d:.3}; int z = 0;");
        assert_operator_parity(&vars, &e);
    }

    /// Any generated arithmetic expression embedded in a tiny program parses,
    /// and the printed form re-parses to the same printed form (printer is a
    /// fixed point after one round trip).
    #[test]
    fn printer_roundtrip_is_stable(expr in arb_expr(3)) {
        let src = format!("int main() {{ int a = 1; int b = 2; int n = 3; int x = {expr}; return x; }}");
        let program = parse(&src, Dialect::CudaLite).expect("generated program parses");
        let printed = print_program(&program);
        let reparsed = parse(&printed, Dialect::CudaLite).expect("printed program parses");
        prop_assert_eq!(printed, print_program(&reparsed));
    }

    /// Sim-T and Sim-L are bounded and reflexive. (Exact symmetry is *not* an
    /// invariant of Ratcliff–Obershelp when tie-breaking picks different
    /// blocks, so only boundedness is asserted for the reversed pair.)
    #[test]
    fn similarity_bounds(a in "[a-z ;{}()=+0-9\n]{0,200}", b in "[a-z ;{}()=+0-9\n]{0,200}") {
        let t = sim_t(&a, &b);
        let l = sim_l(&a, &b);
        prop_assert!((0.0..=1.0).contains(&t));
        prop_assert!((0.0..=1.0).contains(&l));
        prop_assert!((0.0..=1.0).contains(&sim_t(&b, &a)));
        prop_assert!((sim_t(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!((sim_l(&a, &a) - 1.0).abs() < 1e-9);
    }

    /// Stores followed by loads round-trip through typed buffers, and any
    /// index outside the allocation is rejected rather than wrapping.
    #[test]
    fn memory_model_is_safe(len in 1usize..64, writes in prop::collection::vec((0i64..128, -1000.0f64..1000.0), 0..32)) {
        let mem = Memory::new();
        let ptr = mem.alloc("buf", lassi::lang::Type::Double, len, MemSpace::Host);
        for (idx, value) in writes {
            let result = mem.store(&ptr, idx, &Value::Float(value), false, 1);
            if (idx as usize) < len && idx >= 0 {
                prop_assert!(result.is_ok());
                let read = mem.load(&ptr, idx, false, 1).unwrap();
                prop_assert_eq!(read, Value::Float(value));
            } else {
                prop_assert!(result.is_err());
            }
        }
    }

    /// The expression evaluator agrees with native Rust arithmetic on
    /// randomly generated integer expressions (no overflow cases generated).
    #[test]
    fn evaluator_matches_reference_arithmetic(x in -1000i64..1000, y in -1000i64..1000, z in 1i64..100) {
        let src = format!(
            "int main() {{ long x = {x}; long y = {y}; long z = {z}; long r = (x + y) * 2 - x / z + (x % z); printf(\"%ld\\n\", r); return 0; }}"
        );
        let expected = (x + y) * 2 - x / z + (x % z);
        let report = lassi::hecbench::run_source(&src, Dialect::CudaLite).expect("runs");
        prop_assert_eq!(report.stdout.trim(), expected.to_string());
    }
}

/// Non-proptest sanity check that the Expr helpers compose as documented.
#[test]
fn expr_helpers_build_expected_shapes() {
    let e = Expr::bin(BinOp::Add, Expr::int(1), Expr::ident("n"));
    match e {
        Expr::Binary { op: BinOp::Add, .. } => {}
        other => panic!("unexpected shape {other:?}"),
    }
}
