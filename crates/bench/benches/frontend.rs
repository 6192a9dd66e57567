//! Front-end benchmarks: lexing/parsing, printing, semantic analysis and the
//! similarity metrics over the benchmark sources.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lassi_hecbench::applications;
use lassi_lang::{parse, print_program, Dialect, Lexer};
use lassi_llm::translate_program;
use lassi_metrics::{sim_l, sim_t};

fn bench_frontend(c: &mut Criterion) {
    let apps = applications();
    let jacobi = apps.iter().find(|a| a.name == "jacobi").unwrap();

    // The 20 reference programs and their 20 golden translations: the
    // texts the repair loop parses most.
    let mut sources: Vec<String> = Vec::new();
    for app in &apps {
        for dialect in [Dialect::CudaLite, Dialect::OmpLite] {
            let program = parse(app.source(dialect), dialect).unwrap();
            let translated = translate_program(&program, dialect.other()).unwrap();
            sources.push(app.source(dialect).to_string());
            sources.push(print_program(&translated));
        }
    }
    c.bench_function("lex_all_sources", |b| {
        b.iter(|| {
            for src in &sources {
                black_box(Lexer::tokenize(black_box(src)).unwrap());
            }
        })
    });

    c.bench_function("parse_all_cuda_sources", |b| {
        b.iter(|| {
            for app in &apps {
                black_box(parse(app.cuda_source, Dialect::CudaLite).unwrap());
            }
        })
    });

    let program = parse(jacobi.cuda_source, Dialect::CudaLite).unwrap();
    c.bench_function("print_and_reparse_jacobi", |b| {
        b.iter(|| {
            let text = print_program(black_box(&program));
            black_box(parse(&text, Dialect::CudaLite).unwrap())
        })
    });

    c.bench_function("sema_compile_all_omp_sources", |b| {
        let parsed: Vec<_> = apps
            .iter()
            .map(|a| parse(a.omp_source, Dialect::OmpLite).unwrap())
            .collect();
        b.iter(|| {
            for p in &parsed {
                black_box(lassi_sema::compile(p).unwrap());
            }
        })
    });

    c.bench_function("similarity_metrics_jacobi_pair", |b| {
        b.iter(|| {
            black_box(sim_t(jacobi.cuda_source, jacobi.omp_source));
            black_box(sim_l(jacobi.cuda_source, jacobi.omp_source));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_frontend
}
criterion_main!(benches);
