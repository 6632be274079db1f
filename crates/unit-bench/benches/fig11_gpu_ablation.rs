//! Regenerates fig11 of the paper. Run via `cargo bench -p unit-bench --bench fig11_gpu_ablation`.

fn main() {
    let figure = unit_bench::figures::fig11();
    println!("{}", figure.to_table());
}
