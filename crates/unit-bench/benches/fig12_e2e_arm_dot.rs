//! Regenerates fig12 of the paper. Run via `cargo bench -p unit-bench --bench fig12_e2e_arm_dot`.

fn main() {
    let figure = unit_bench::figures::fig12();
    println!("{}", figure.to_table());
}
