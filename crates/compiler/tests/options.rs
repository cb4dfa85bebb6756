//! `CompileOptions` are validated before any pass runs: an out-of-range
//! field is a typed [`CompileError::InvalidOptions`], never a panic caught
//! and relabelled deeper in the pipeline.

use hyperap_compiler::{compile, CompileError, CompileOptions, LUT_INPUTS_RANGE, OPT_LEVEL_MAX};
use hyperap_isa::KEY_COLUMNS;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const ADD: &str = "unsigned int (9) main(unsigned int (8) a, unsigned int (8) b) { return a + b; }";

/// Compile `ADD` under each of `options`, returning the results and
/// failing if any panic hook fired on this thread meanwhile (so a panic
/// caught and relabelled inside `compile` is caught here too).
fn compile_without_panics<T: Copy>(
    options: &[T],
    opts: impl Fn(T) -> CompileOptions,
) -> Vec<(T, Result<(), CompileError>)> {
    // Count panics raised on this test's thread only, so concurrent tests
    // in the same binary cannot disturb the count.
    let panics = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&panics);
    let me = std::thread::current().id();
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| {
        if std::thread::current().id() == me {
            seen.fetch_add(1, Ordering::SeqCst);
        }
    }));
    let results: Vec<_> = options
        .iter()
        .map(|&v| (v, compile(ADD, &opts(v)).map(|_| ())))
        .collect();
    drop(std::panic::take_hook());
    std::panic::set_hook(previous);
    assert_eq!(panics.load(Ordering::SeqCst), 0, "a panic hook fired");
    results
}

/// Assert every result is `InvalidOptions` with the message `expect(v)`.
fn assert_invalid<T: std::fmt::Debug>(
    results: Vec<(T, Result<(), CompileError>)>,
    expect: impl Fn(&T) -> String,
) {
    for (v, result) in results {
        let Err(CompileError::InvalidOptions(msg)) = result else {
            panic!("{v:?}: expected InvalidOptions, got {result:?}");
        };
        assert_eq!(msg, expect(&v));
    }
}

#[test]
fn out_of_range_lut_inputs_are_a_typed_error_without_a_panic() {
    let results =
        compile_without_panics(&[0, 1, 17, usize::MAX], |max_lut_inputs| CompileOptions {
            max_lut_inputs,
            ..CompileOptions::default()
        });
    assert_invalid(results, |n| {
        format!("max_lut_inputs is {n}, must be in 2..=16")
    });
}

#[test]
fn lut_input_range_ends_compile_and_run() {
    // A 3-bit add keeps the 16-input cut enumeration small.
    let add3 = "unsigned int (4) main(unsigned int (3) a, unsigned int (3) b) { return a + b; }";
    for max_lut_inputs in [*LUT_INPUTS_RANGE.start(), *LUT_INPUTS_RANGE.end()] {
        let opts = CompileOptions {
            max_lut_inputs,
            ..CompileOptions::default()
        };
        let kernel = compile(add3, &opts).unwrap();
        assert_eq!(kernel.run_rows(&[&[7, 6]]).unwrap(), vec![13]);
    }
}

#[test]
fn out_of_range_opt_level_alpha_and_pe_columns_are_typed_errors_without_a_panic() {
    let levels = [OPT_LEVEL_MAX + 1, u8::MAX];
    let results = compile_without_panics(&levels, |opt_level| CompileOptions {
        opt_level,
        ..CompileOptions::default()
    });
    assert_invalid(results, |n| format!("opt_level is {n}, must be in 0..=2"));

    let alphas = [
        -1.0,
        -f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let results = compile_without_panics(&alphas, |alpha| CompileOptions {
        alpha,
        ..CompileOptions::default()
    });
    assert_invalid(results, |a| {
        format!("alpha is {a}, must be finite and non-negative")
    });

    let columns = [0, KEY_COLUMNS + 1, usize::MAX];
    let results = compile_without_panics(&columns, |pe_columns| CompileOptions {
        pe_columns,
        ..CompileOptions::default()
    });
    assert_invalid(results, |n| {
        format!("pe_columns is {n}, must be in 1..=256")
    });
}

#[test]
fn opt_level_alpha_and_pe_columns_range_ends_compile() {
    for opt_level in [0, OPT_LEVEL_MAX] {
        let opts = CompileOptions {
            opt_level,
            ..CompileOptions::default()
        };
        let kernel = compile(ADD, &opts).unwrap();
        assert_eq!(kernel.run_rows(&[&[200, 100]]).unwrap(), vec![300]);
    }
    for alpha in [0.0, f64::MAX] {
        let opts = CompileOptions {
            alpha,
            ..CompileOptions::default()
        };
        let kernel = compile(ADD, &opts).unwrap();
        assert_eq!(kernel.run_rows(&[&[200, 100]]).unwrap(), vec![300]);
    }
    let opts = CompileOptions {
        pe_columns: KEY_COLUMNS,
        ..CompileOptions::default()
    };
    let kernel = compile(ADD, &opts).unwrap();
    assert_eq!(kernel.run_rows(&[&[200, 100]]).unwrap(), vec![300]);
    // One column holds a 1-bit identity (the output reuses the input's
    // column) but no 8-bit add: that program is refused for what it needs,
    // not for the option.
    let opts = CompileOptions {
        pe_columns: 1,
        ..CompileOptions::default()
    };
    let identity = "unsigned int (1) main(unsigned int (1) a) { return a & a; }";
    let kernel = compile(identity, &opts).unwrap();
    assert_eq!(kernel.run_rows(&[&[0], &[1]]).unwrap(), vec![0, 1]);
    let result = compile(ADD, &opts).map(|_| ());
    assert!(
        matches!(result, Err(CompileError::Unsupported(_))),
        "{result:?}"
    );
}
