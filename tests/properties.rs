//! Property-based tests over the core data structures and invariants:
//! printer/parser round-tripping, similarity-metric bounds, cost-model
//! monotonicity, memory-model safety under random access patterns, and
//! bytecode/interpreter parity over every binary operator.

use proptest::prelude::*;

use lassi::hecbench::Machine;
use lassi::lang::{parse, print_program, BinOp, Dialect, Expr};
use lassi::metrics::{sim_l, sim_t};
use lassi::runtime::{compile, run_compiled, HostInterpreter, MemSpace, Memory, Value};

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
/// variables for `main` to print.
fn kernel_program(vars: &str, body: &str) -> String {
    format!(
        "__global__ void k(long* ol, double* od) {{ {vars} int t = threadIdx.x; i = i + t; \
         long* p = ol; long* q; long s = 0; int n = 1; float g = 1.5; double w = 0.25; {body} \
         ol[t * 2] = s; ol[t * 2 + 1] = n; od[t * 2] = g; od[t * 2 + 1] = w; }} \
         int main() {{ long* hl = (long*)malloc(8 * sizeof(long)); \
         double* hd = (double*)malloc(8 * sizeof(double)); long* dl; double* dd; \
         cudaMalloc(&dl, 8 * sizeof(long)); cudaMalloc(&dd, 8 * sizeof(double)); \
         k<<<1, 4>>>(dl, dd); \
         cudaMemcpy(hl, dl, 8 * sizeof(long), cudaMemcpyDeviceToHost); \
         cudaMemcpy(hd, dd, 8 * sizeof(double), cudaMemcpyDeviceToHost); \
         for (int t = 0; t < 8; t++) {{ printf(\"%ld %.17e\\n\", hl[t], hd[t]); }} \
         return 0; }}"
    )
}

/// Run `src` on the reference interpreter and on the bytecode VM (without
/// semantic checking, so ill-typed operands reach the runtime) and require
/// the same report, or the same error.
fn assert_engines_agree(src: &str) {
    let program = parse(src, Dialect::CudaLite).expect("generated program parses");
    let machine = Machine::a100();
    let config = Machine::run_config();
    let reference = HostInterpreter::new(&program, config.clone()).run(&machine, &[]);
    let vm = run_compiled(&compile(&program, 0), &config, &machine, &[]);
    match (reference, vm) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.stdout, b.stdout, "stdout: {src}");
            assert_eq!(a.steps, b.steps, "steps: {src}");
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
}

/// Every context of `e`, in a host program and in a kernel.
fn assert_operator_parity(vars: &str, e: &str) {
    for body in contexts(e) {
        assert_engines_agree(&host_program(vars, &body));
        assert_engines_agree(&kernel_program(vars, &body));
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
