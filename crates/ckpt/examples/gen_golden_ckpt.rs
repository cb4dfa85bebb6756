//! Regenerate the `ckpt_v2` golden checkpoint fixture.
//!
//! ```text
//! cargo run -p hyperap-ckpt --example gen_golden_ckpt
//! ```
//!
//! Writes a fully committed epoch-0 checkpoint of
//! [`hyperap_ckpt::testing::golden_machine`] into
//! `crates/tcam/tests/golden/ckpt_v2/` via the real [`DirSink`] commit
//! protocol. Only rerun this when the on-disk format version is
//! deliberately bumped (and then into a new `ckpt_v<N>` directory) — the
//! fixture pins wire-format stability for `tests/golden_checkpoint.rs`.
//! Resume reads only the current version, so a bump retires the old
//! fixture directory with its reader.

use hyperap_ckpt::testing::golden_machine;
use hyperap_ckpt::{Checkpointer, DirSink};

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../tcam/tests/golden/ckpt_v2");
    // Start from a clean slate so stale chunk files can't linger.
    if std::path::Path::new(dir).exists() {
        std::fs::remove_dir_all(dir).expect("clear fixture dir");
    }
    let machine = golden_machine();
    let mut ck = Checkpointer::new(DirSink::new(dir).expect("open fixture dir"));
    ck.set_keep(1);
    let stats = ck.checkpoint(&machine).expect("commit fixture epoch");
    println!(
        "wrote epoch {} to {dir}: {} chunks, {} payload bytes, {} manifest bytes",
        stats.epoch, stats.chunks_written, stats.payload_bytes, stats.manifest_bytes
    );
}
