//! The source fingerprint behind every scenario-cache key. `build.rs`
//! includes this file and exports the hash as `LASSI_SOURCE_FINGERPRINT`.

use std::io;
use std::path::{Path, PathBuf};

/// Hash every crate under `crates` except `bench` and `server`, which depend
/// on the harness and so cannot shape what it computes (a new crate is
/// hashed): FNV-1a over each crate's `Cargo.toml` and every file under its
/// `src/`, by `/`-separated relative path and bytes, in sorted order. Returns
/// the hash and the paths to watch. A missing `core/src` is an error.
pub fn source_fingerprint(crates: &Path) -> io::Result<(u64, Vec<PathBuf>)> {
    if !crates.join("core/src").is_dir() {
        return Err(io::Error::new(io::ErrorKind::NotFound, "no core/src"));
    }
    let mut files = Vec::new();
    for entry in std::fs::read_dir(crates)? {
        let dir = entry?.path();
        if !dir.ends_with("bench") && !dir.ends_with("server") {
            walk(&dir, false, &mut files)?;
        }
    }
    files.sort();
    let mut stream = Vec::new();
    for file in &files {
        let path = file.strip_prefix(crates).unwrap_or(file).to_string_lossy();
        let bytes = std::fs::read(file)?;
        stream.extend(path.replace('\\', "/").bytes().chain([0]));
        stream.extend((bytes.len() as u64).to_le_bytes().into_iter().chain(bytes));
    }
    let fnv = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    let hash = stream.iter().fold(0xcbf2_9ce4_8422_2325, fnv);
    let manifests = files.iter().filter(|file| file.ends_with("Cargo.toml"));
    let watched = manifests.flat_map(|m| [m.clone(), m.with_file_name("src")]);
    Ok((hash, watched.collect()))
}

/// Collect the files under `path`: all of them `in_src`, else each crate's
/// `Cargo.toml` and `src/`, searching a directory that is no crate (`shims/`).
fn walk(path: &Path, in_src: bool, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let manifest = path.join("Cargo.toml");
    if !in_src && manifest.is_file() {
        files.push(manifest);
        walk(&path.join("src"), true, files)
    } else if path.is_dir() {
        for entry in std::fs::read_dir(path)? {
            walk(&entry?.path(), in_src, files)?;
        }
        Ok(())
    } else {
        if in_src {
            files.push(path.to_path_buf());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// A temp `crates/` tree: `core` and `shims/rand` (hashed), `bench` and
    /// `server` (skipped).
    fn tree_with(label: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("lassi-fingerprint-{}-{label}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for krate in ["core", "shims/rand", "bench", "server"] {
            fs::create_dir_all(root.join(krate).join("src/nested")).unwrap();
            fs::write(root.join(krate).join("Cargo.toml"), krate).unwrap();
            fs::write(root.join(krate).join("src/lib.rs"), "pub fn f() {}").unwrap();
            fs::write(root.join(krate).join("src/nested/mod.rs"), "// x").unwrap();
        }
        root
    }

    fn hash(root: &Path) -> u64 {
        source_fingerprint(root).unwrap().0
    }

    #[test]
    fn an_edit_under_a_hashed_crate_changes_the_fingerprint() {
        let root = tree_with("edit");
        let base = hash(&root);
        assert_eq!(base, hash(&root), "stable");
        for file in [
            "core/src/nested/mod.rs",
            "core/Cargo.toml",
            "shims/rand/src/lib.rs",
        ] {
            let original = fs::read(root.join(file)).unwrap();
            fs::write(root.join(file), [&original[..], b"\n"].concat()).unwrap();
            assert_ne!(base, hash(&root), "{file}");
            fs::write(root.join(file), original).unwrap();
        }
        fs::write(root.join("core/src/new.rs"), "").unwrap();
        assert_ne!(base, hash(&root), "a new file");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn edits_under_bench_or_server_or_outside_src_keep_the_fingerprint() {
        let root = tree_with("skip");
        let base = hash(&root);
        for file in [
            "bench/src/lib.rs",
            "server/src/nested/mod.rs",
            "core/tests/t.rs",
        ] {
            fs::create_dir_all(root.join(file).parent().unwrap()).unwrap();
            fs::write(root.join(file), "// edited").unwrap();
        }
        fs::write(root.join("server/Cargo.toml"), "edited").unwrap();
        assert_eq!(base, hash(&root));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn renaming_a_file_changes_the_fingerprint() {
        let root = tree_with("rename");
        let base = hash(&root);
        fs::rename(root.join("core/src/lib.rs"), root.join("core/src/lob.rs")).unwrap();
        assert_ne!(base, hash(&root));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_missing_core_src_is_an_error() {
        let root = tree_with("missing");
        fs::remove_dir_all(root.join("core/src")).unwrap();
        let err = source_fingerprint(&root).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn the_build_fingerprint_hashes_this_checkout() {
        // Tests run in the crate's directory, as build scripts do.
        let (hash, watched) = source_fingerprint(Path::new("..")).unwrap();
        assert_eq!(format!("{hash:016x}"), env!("LASSI_SOURCE_FINGERPRINT"));
        for krate in ["core", "lang", "llm", "metrics", "runtime", "shims/rand"] {
            assert!(
                watched.contains(&Path::new("..").join(krate).join("src")),
                "{krate}"
            );
        }
        assert!(!watched
            .iter()
            .any(|p| p.starts_with("../server") || p.starts_with("../bench")));
    }
}
