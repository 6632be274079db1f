//! Regenerates fig09 of the paper. Run via `cargo bench -p unit-bench --bench fig09_e2e_gpu_tensorcore`.

fn main() {
    let figure = unit_bench::figures::fig09();
    println!("{}", figure.to_table());
}
