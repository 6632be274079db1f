//! Regenerates fig08 of the paper. Run via `cargo bench -p unit-bench --bench fig08_e2e_x86_vnni`.

fn main() {
    let figure = unit_bench::figures::fig08();
    println!("{}", figure.to_table());
}
