//! Records how the benchmark was compiled, for the provenance block.

fn main() {
    let var = |name: &str| std::env::var(name).unwrap_or_default();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        var("CARGO_ENCODED_RUSTFLAGS").replace('\u{1f}', " ")
    );
    println!("cargo:rustc-env=PERFBENCH_PROFILE={}", var("PROFILE"));
    println!("cargo:rustc-env=PERFBENCH_TARGET={}", var("TARGET"));
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
