//! Regenerates Table I: update speed (million insertions per second) of GSS, GSS without
//! candidate sampling, TCM and the accelerated adjacency list on the three static datasets.

use gss_bench::{bench_scale, emit};
use gss_experiments::run_table1;

fn main() {
    let scale = bench_scale("table1_update_speed");
    emit(&[run_table1(scale)], "table1_update_speed");
}
