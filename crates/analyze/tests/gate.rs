//! End-to-end gate tests: drive the analyzer over on-disk fixture trees
//! that mirror the real workspace layout (`crates/engine/src/knobs.rs`,
//! `checkpoint.rs`, `crates/server/src/wire.rs`, a codec-bearing type),
//! and over the real checkout itself.
//!
//! The fixture scenarios pin the contract the CI gate relies on:
//!
//! - a blessed tree is clean, and `--bless` is idempotent;
//! - mutating a codec struct without a version bump fails naming the
//!   type and the field, and the hint tracks whether the version was
//!   bumped;
//! - an unregistered `SLX_*` literal fails the knob lint;
//! - the CLI exits 0 on a clean tree and 1 with findings.

use std::path::{Path, PathBuf};
use std::process::Command;

use slx_analyze::Workspace;

/// A throwaway fixture checkout under the system temp dir.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    /// Builds the minimal clean tree every scenario starts from.
    fn new(name: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("slx-analyze-gate-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        let fx = Fixture { root };
        fx.write("Cargo.toml", "[workspace]\n");
        fx.write(
            "crates/engine/src/knobs.rs",
            "pub struct Knob { pub name: &'static str }\n\
             pub static SLX_FIX_THREADS: Knob = Knob { name: \"SLX_FIX_THREADS\" };\n",
        );
        fx.write(
            "crates/engine/src/checker.rs",
            "fn resolve() { crate::knobs::SLX_FIX_THREADS.name; }\n",
        );
        fx.write(
            "crates/engine/src/checkpoint.rs",
            "pub const FORMAT_VERSION: u64 = 1;\n\
             pub struct RunHeader { pub shards: usize, pub symmetry: bool }\n\
             fn encode_image() { write_header(); }\n",
        );
        fx.write(
            "crates/engine/src/codec.rs",
            "pub struct Image { pub states: Vec<u8>, pub depth: u64 }\n\
             impl StateCodec for Image { fn encode(&self) { enc(); } }\n",
        );
        fx.write(
            "crates/server/src/wire.rs",
            "pub const PROTOCOL_VERSION: u8 = 1;\n\
             pub enum Frame { Submit(Req), Cancel { id: String } }\n\
             pub struct Req { pub id: String, pub depth: u64 }\n\
             impl StateCodec for Req { fn encode(&self) { enc(); } }\n",
        );
        fx.write("EXPERIMENTS.md", "| `SLX_FIX_THREADS` | fixture knob |\n");
        fx
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("rel paths have parents")).expect("mkdir");
        std::fs::write(path, content).expect("write fixture file");
    }

    fn load(&self) -> Workspace {
        Workspace::load(&self.root).expect("load fixture workspace")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn blessed_fixture_is_clean_and_bless_is_idempotent() {
    let fx = Fixture::new("clean");
    let ws = fx.load();
    assert!(
        !ws.run_all().is_empty(),
        "unblessed tree must report the missing manifest"
    );
    ws.bless().expect("bless");
    let first = std::fs::read_to_string(fx.root.join("WIRE_MANIFEST.txt")).expect("manifest");
    assert!(
        ws.run_all().is_empty(),
        "blessed tree must be clean: {:?}",
        ws.run_all()
    );

    // Round-trip: a second bless must rewrite byte-identical text.
    ws.bless().expect("re-bless");
    let second = std::fs::read_to_string(fx.root.join("WIRE_MANIFEST.txt")).expect("manifest");
    assert_eq!(first, second);
}

#[test]
fn mutated_codec_struct_fails_naming_type_and_field() {
    let fx = Fixture::new("drift");
    fx.load().bless().expect("bless");

    // Widen a persisted field without touching FORMAT_VERSION.
    fx.write(
        "crates/engine/src/codec.rs",
        "pub struct Image { pub states: Vec<u8>, pub depth: u32 }\n\
         impl StateCodec for Image { fn encode(&self) { enc(); } }\n",
    );
    let findings = fx.load().run_all();
    let msg = findings
        .iter()
        .find(|f| f.file == "crates/engine/src/codec.rs")
        .unwrap_or_else(|| panic!("expected a wire-schema finding: {findings:?}"))
        .message
        .clone();
    assert!(msg.contains("Image"), "names the type: {msg}");
    assert!(msg.contains("depth"), "names the field: {msg}");
    assert!(
        msg.contains("FORMAT_VERSION"),
        "points at the version const: {msg}"
    );

    // Bumping the version alone is not enough — the hint flips to
    // demanding an explicit --bless acknowledgment.
    fx.write(
        "crates/engine/src/checkpoint.rs",
        "pub const FORMAT_VERSION: u64 = 2;\n\
         pub struct RunHeader { pub shards: usize, pub symmetry: bool }\n\
         fn encode_image() { write_header(); }\n",
    );
    let findings = fx.load().run_all();
    assert!(
        findings.iter().any(|f| f.message.contains("--bless")),
        "bumped version still demands bless: {findings:?}"
    );

    // Bless acknowledges the audited change; the tree is clean again.
    let ws = fx.load();
    ws.bless().expect("bless after bump");
    assert!(ws.run_all().is_empty(), "{:?}", ws.run_all());
}

#[test]
fn unregistered_slx_literal_fails_the_knob_lint() {
    let fx = Fixture::new("rogue");
    fx.load().bless().expect("bless");
    fx.write(
        "crates/engine/src/rogue.rs",
        "fn threads() -> Option<String> { lookup(\"SLX_ROGUE_KNOB\") }\n",
    );
    let findings = fx.load().run_all();
    let hit = findings
        .iter()
        .find(|f| f.message.contains("SLX_ROGUE_KNOB"))
        .unwrap_or_else(|| panic!("expected a knob-registry finding: {findings:?}"));
    assert_eq!(hit.file, "crates/engine/src/rogue.rs");
    assert!(
        hit.message.contains("not in the knob registry"),
        "{}",
        hit.message
    );
}

#[test]
fn benchmark_sources_are_scanned() {
    // `perfbench/` is a package of its own, outside the workspace, but it
    // links the library crates and is held to the same lints.
    let fx = Fixture::new("perfbench");
    fx.load().bless().expect("bless");
    fx.write(
        "perfbench/src/main.rs",
        "fn threads() -> Option<String> { lookup(\"SLX_ROGUE_KNOB\") }\n",
    );
    let ws = fx.load();
    assert!(
        ws.files
            .iter()
            .any(|f| f.rel_path == "perfbench/src/main.rs"),
        "perfbench/src is not among the analyzed roots"
    );
    let findings = ws.run_all();
    let hit = findings
        .iter()
        .find(|f| f.message.contains("SLX_ROGUE_KNOB"))
        .unwrap_or_else(|| panic!("expected a knob-registry finding: {findings:?}"));
    assert_eq!(hit.file, "perfbench/src/main.rs");
}

#[test]
fn cli_exits_zero_on_clean_and_one_on_findings() {
    let fx = Fixture::new("cli");
    let bin = env!("CARGO_BIN_EXE_slx-analyze");

    let status = Command::new(bin)
        .args([
            "--root",
            fx.root.to_str().expect("utf8 temp path"),
            "--bless",
        ])
        .status()
        .expect("run slx-analyze --bless");
    assert!(
        status.success(),
        "blessed fixture run must exit 0: {status}"
    );

    fx.write(
        "crates/engine/src/rogue.rs",
        "fn threads() -> Option<String> { lookup(\"SLX_ROGUE_KNOB\") }\n",
    );
    let status = Command::new(bin)
        .args(["--root", fx.root.to_str().expect("utf8 temp path")])
        .status()
        .expect("run slx-analyze");
    assert_eq!(status.code(), Some(1), "findings must exit 1");
}

#[test]
fn the_real_checkout_is_clean() {
    // The analyzer gates this very repository: the checked-in
    // WIRE_MANIFEST.txt, the knob registry, the docs table, and every
    // lint must agree on the sources as committed.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels below the root")
        .to_path_buf();
    let ws = Workspace::load(&root).expect("load real workspace");
    let findings = ws.run_all();
    assert!(
        findings.is_empty(),
        "the checked-in tree must pass its own gate:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
