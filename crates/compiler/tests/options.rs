//! `CompileOptions` are validated before any pass runs: an out-of-range
//! field is a typed [`CompileError::InvalidOptions`], never a panic caught
//! and relabelled deeper in the pipeline.

use hyperap_compiler::{compile, CompileError, CompileOptions, LUT_INPUTS_RANGE};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const ADD: &str = "unsigned int (9) main(unsigned int (8) a, unsigned int (8) b) { return a + b; }";

#[test]
fn out_of_range_lut_inputs_are_a_typed_error_without_a_panic() {
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
    let results: Vec<_> = [0, 1, 17, usize::MAX]
        .into_iter()
        .map(|max_lut_inputs| {
            let opts = CompileOptions {
                max_lut_inputs,
                ..CompileOptions::default()
            };
            (max_lut_inputs, compile(ADD, &opts).map(|_| ()))
        })
        .collect();
    drop(std::panic::take_hook());
    std::panic::set_hook(previous);
    assert_eq!(panics.load(Ordering::SeqCst), 0, "a panic hook fired");
    for (n, result) in results {
        let Err(CompileError::InvalidOptions(msg)) = result else {
            panic!("max_lut_inputs = {n}: expected InvalidOptions, got {result:?}");
        };
        assert_eq!(msg, format!("max_lut_inputs is {n}, must be in 2..=16"));
    }
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
