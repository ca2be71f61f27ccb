//! Failure accounting of the measurement loop, on a synthetic workload.

use vermem_perfbench::harness::{measure, Outcome};
use vermem_perfbench::layers::Layers;
use vermem_perfbench::workload::Bench;

const INPUTS: usize = 120;

/// Input `i` verifies to `i`. Inputs 0, 40 and 80 fail their output check,
/// input 7 errors on every attempt, and the traced run gets input 9 wrong.
struct Fake;

impl Bench for Fake {
    type Output = usize;
    type Summary = usize;

    fn inputs(&self) -> usize {
        INPUTS
    }

    fn ops(&self, _: usize) -> u64 {
        10
    }

    fn run(&self, i: usize) -> Result<usize, String> {
        if i == 7 {
            Err(format!("input {i}: error"))
        } else {
            Ok(i)
        }
    }

    fn traced(&self, i: usize, _: &mut Layers) -> Result<usize, String> {
        self.run(i).map(|s| if i == 9 { s + 1 } else { s })
    }

    fn check(&self, i: usize, _: &usize) -> Result<(), String> {
        if i.is_multiple_of(40) {
            Err(format!("input {i}: wrong verdict"))
        } else {
            Ok(())
        }
    }

    fn summary(&self, _: usize, out: &usize) -> usize {
        *out
    }

    fn decided(&self, _: &usize) -> bool {
        true
    }
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn each_failed_input_counts_once_whatever_the_passes() {
    let out = measure(&Fake, 0.001, false);
    assert_eq!(out.attempted, INPUTS as u64);
    // Three failed checks plus one input that errors on every pass.
    assert_eq!(out.failed, 4);
    assert_eq!(metric(&out, "ok_share"), 1.0 - 4.0 / INPUTS as f64);
}

#[test]
fn a_traced_mismatch_counts_against_its_input() {
    let out = measure(&Fake, 0.001, true);
    assert_eq!(out.attempted, INPUTS as u64);
    assert_eq!(out.failed, 5);
}
