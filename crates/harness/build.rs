//! Exports `LASSI_SOURCE_FINGERPRINT`, the hash of every source that can
//! shape a scenario record, for the scenario-cache key (`src/fingerprint.rs`).

#[path = "src/fingerprint.rs"]
mod fingerprint;

fn main() {
    // Cargo runs a build script in its package's directory: `..` is `crates/`.
    let (hash, watched) = fingerprint::source_fingerprint("..".as_ref())
        .unwrap_or_else(|e| panic!("cannot fingerprint the sources under crates/: {e}"));
    for path in watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
    println!("cargo:rustc-env=LASSI_SOURCE_FINGERPRINT={hash:016x}");
}
