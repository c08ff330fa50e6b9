//! Where the `LD_PRELOAD` interposition shim is.
//!
//! `iotrace-interpose` builds only the preloadable `cdylib`: its hooks
//! define `open`, `read`, `write`, `close` and the rest, so a binary
//! that linked them as a library would interpose its own libc calls.
//! The programs that drive the shim — its live test, the
//! `live_interpose` example and the E11 bench — link this crate instead,
//! which builds the shim and returns its path.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Path of the preloadable `libiotrace_interpose.so` for the profile
/// this crate was built in (`target/debug` or `target/release`, under
/// `CARGO_TARGET_DIR` if set). Runs `cargo build -p iotrace-interpose`
/// first, which is a no-op when the library is fresh, so a stale shim
/// is never preloaded. Panics if the build fails.
pub fn shim_path() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/preload sits two levels below the workspace root");
    let release = !cfg!(debug_assertions);
    let mut cargo = Command::new(env!("CARGO"));
    cargo
        .args(["build", "-p", "iotrace-interpose", "--quiet"])
        .current_dir(root);
    if release {
        cargo.arg("--release");
    }
    let status = cargo.status().expect("spawn cargo build");
    assert!(status.success(), "building the interposition shim failed");
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), PathBuf::from)
        .join(if release { "release" } else { "debug" })
        .join("libiotrace_interpose.so")
}
