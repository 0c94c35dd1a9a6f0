//! Prints the build of the lane kernels this CPU runs: `baseline`,
//! `avx2` or `avx512` (see `cati_nn::kernel_isa`).
//!
//! ```sh
//! cargo run --release -q -p cati-nn --example kernel_isa
//! ```

fn main() {
    println!("{}", cati_nn::kernel_isa());
}
