//! Regenerates fig01 of the paper. Run via `cargo bench -p unit-bench --bench fig01_mixed_precision_motivation`.

fn main() {
    let figure = unit_bench::figures::fig01();
    println!("{}", figure.to_table());
}
