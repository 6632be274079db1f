//! Regenerates fig13 of the paper. Run via `cargo bench -p unit-bench --bench fig13_conv3d`.

fn main() {
    let figure = unit_bench::figures::fig13();
    println!("{}", figure.to_table());
}
