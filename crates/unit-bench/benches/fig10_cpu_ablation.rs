//! Regenerates fig10 of the paper. Run via `cargo bench -p unit-bench --bench fig10_cpu_ablation`.

fn main() {
    let figure = unit_bench::figures::fig10();
    println!("{}", figure.to_table());
}
