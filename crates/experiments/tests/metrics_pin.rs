//! Pinned-metrics regression: the fig05 and ext-churn quick-scale
//! metrics JSON must each hash to a known constant (ext-churn is the
//! figure whose runs carry the optional `scenario.*` counters). `determinism.rs` proves two runs agree with
//! each other; this test proves they agree with *history* — any change
//! to the PRNG, event ordering, propagation model, or metrics encoding
//! shows up as a hash mismatch even if the run is still self-consistent.
//!
//! If the change is intentional (a model fix that legitimately moves the
//! numbers), regenerate the hash with the command in the assert message
//! and update the pinned constant in the same commit.

use std::path::PathBuf;
use std::process::Command;

/// FNV-1a 64 of the fig05 quick-scale metrics JSON, pinned at the commit
/// that introduced this test.
const PINNED_FNV1A64: u64 = 0xc05cb88f2d2fe4a3;

/// The same for ext-churn, pinned again when `N_{x,h}` became exactly
/// the list `h` last advertised (its NC row moved), and when noise drops
/// and rejoin HELLO phases became keyed draws and a rejoining MAC kept
/// its host's backoff stream.
const PINNED_CHURN_FNV1A64: u64 = 0xc31803110b61514f;

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs `figure` at quick scale and returns the FNV-1a 64 hash of the
/// metrics JSON it writes.
fn quick_hash(figure: &str) -> u64 {
    let dir =
        std::env::temp_dir().join(format!("manet-metrics-pin-{figure}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    let metrics: PathBuf = dir.join("quick-metrics.json");

    let output = Command::new(env!("CARGO_BIN_EXE_manet-experiments"))
        .args([figure, "--scale", "quick", "--metrics"])
        .arg(&metrics)
        .output()
        .expect("experiment binary runs");
    assert!(
        output.status.success(),
        "runner failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let bytes = std::fs::read(&metrics).expect("metrics JSON written");
    assert!(!bytes.is_empty(), "metrics JSON is empty");
    let hash = fnv1a64(&bytes);
    std::fs::remove_dir_all(&dir).ok();
    hash
}

#[test]
fn fig05_quick_metrics_hash_is_pinned() {
    let hash = quick_hash("fig05");
    assert_eq!(
        hash, PINNED_FNV1A64,
        "fig05 quick metrics drifted from the pinned baseline \
         (got {hash:#018x}, pinned {PINNED_FNV1A64:#018x}). If the change \
         is intentional, rerun `manet-experiments fig05 --scale quick \
         --metrics m.json`, recompute FNV-1a 64 over the file, and \
         update PINNED_FNV1A64."
    );
}

#[test]
fn ext_churn_quick_metrics_hash_is_pinned() {
    let hash = quick_hash("ext-churn");
    assert_eq!(
        hash, PINNED_CHURN_FNV1A64,
        "ext-churn quick metrics drifted from the pinned baseline \
         (got {hash:#018x}, pinned {PINNED_CHURN_FNV1A64:#018x})."
    );
}
