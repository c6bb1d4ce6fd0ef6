//! DESIGN.md's crate / module map matches the tree: every Rust file it
//! lists exists, and every Rust file of a crate's `src/`, `tests/` and
//! `benches/`, and every example, is listed.
//!
//! The map is the fenced block under "## 5. Crate / module map". Files are
//! written as paths under a crate directory (`src/{lib,word}.rs`,
//! `tests/workers.rs`, nested braces allowed), a group may continue over
//! several lines, and a line `├── name/` below `└── crates/` starts crate
//! `crates/name/`; above it, paths are relative to the repository root.

use std::collections::BTreeSet;
use std::path::Path;

/// The directories a listed path may start with.
const ROOTS: [&str; 4] = ["src/", "tests/", "benches/", "examples/"];

/// The fenced block of the crate / module map.
fn layout_block(design: &str) -> &str {
    let section = &design[design.find("## 5. Crate / module map").expect("no crate map")..];
    let open = section.find("```\n").expect("no fenced block") + 4;
    &section[open..open + section[open..].find("```").expect("unclosed block")]
}

/// Expand the braces of one path group: `src/{a,b/{c,d}}.rs` is
/// `src/a.rs`, `src/b/c.rs` and `src/b/d.rs`.
fn expand(group: &str, out: &mut Vec<String>) {
    let Some(open) = group.find('{') else {
        out.push(group.to_string());
        return;
    };
    let mut depth = 0;
    let mut items = vec![open + 1];
    let mut close = None;
    for (i, c) in group.char_indices().skip(open) {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => {
                close = Some(i);
                break;
            }
            '}' => depth -= 1,
            ',' if depth == 1 => items.push(i + 1),
            _ => {}
        }
    }
    let close = close.unwrap_or_else(|| panic!("unbalanced braces in `{group}`"));
    items.push(close + 1);
    for w in items.windows(2) {
        let item = &group[w[0]..w[1] - 1];
        expand(&format!("{}{item}{}", &group[..open], &group[close + 1..]), out);
    }
}

/// The block's text by directory: the repository root up to `└── crates/`,
/// then one section per crate line below it, with the tree's drawing
/// characters blanked.
fn sections(block: &str) -> Vec<(String, String)> {
    let mut out = vec![(String::new(), String::new())];
    let mut in_crates = false;
    for line in block.lines() {
        let entry = line.trim_start_matches([' ', '│']);
        let name = entry.strip_prefix("├── ").or_else(|| entry.strip_prefix("└── "));
        match name.and_then(|n| n.split_whitespace().next()) {
            Some("crates/") => in_crates = true,
            Some(name) if in_crates => out.push((format!("crates/{name}"), String::new())),
            _ => {}
        }
        let text = &mut out.last_mut().unwrap().1;
        text.extend(line.chars().map(|c| if "│├└─".contains(c) { ' ' } else { c }));
        text.push('\n');
    }
    out
}

/// The path groups of a section's text: words that start with one of
/// [`ROOTS`] and end in `.rs`, with the white space inside their braces
/// (where a group continues on the next line) dropped.
fn groups(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = text.char_indices().peekable();
    let mut prev = ' ';
    while let Some((i, c)) = chars.next() {
        let starts = " \n(".contains(prev) && ROOTS.iter().any(|r| text[i..].starts_with(r));
        prev = c;
        if !starts {
            continue;
        }
        let (mut group, mut depth) = (String::from(c), 0);
        while let Some(&(_, c)) = chars.peek() {
            depth += i32::from(c == '{') - i32::from(c == '}');
            if !(depth > 0 && c.is_whitespace()) {
                let path_char = c.is_ascii_alphanumeric() || "_-/.{},".contains(c);
                if !path_char || (c == ',' && depth == 0) {
                    break;
                }
                group.push(c);
            }
            chars.next();
        }
        prev = group.chars().last().unwrap_or(' ');
        let group = group.trim_end_matches('.');
        if group.ends_with(".rs") {
            expand(group, &mut out);
        }
    }
    out
}

/// The Rust files a map lists, as paths from the repository root.
fn listed(block: &str) -> Vec<String> {
    let mut files = Vec::new();
    for (dir, text) in sections(block) {
        files.extend(groups(&text).into_iter().map(|f| format!("{dir}{f}")));
    }
    files
}

/// Every `.rs` file under `dir`, recursively, as paths from `root`.
fn rust_files(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.insert(path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn design_crate_map_matches_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let files = listed(layout_block(&design));
    assert!(files.iter().any(|f| f == "crates/pe/src/workers.rs"), "parsed {files:?}");

    let missing: Vec<&String> = files.iter().filter(|f| !root.join(f).is_file()).collect();
    assert!(missing.is_empty(), "DESIGN.md lists files that do not exist: {missing:?}");

    let mut tree = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        for dir in ["src", "tests", "benches"] {
            rust_files(root, &krate.join(dir), &mut tree);
        }
    }
    let examples = std::fs::read_dir(root.join("examples")).unwrap();
    for path in examples.map(|e| e.unwrap().path()) {
        if path.extension().is_some_and(|e| e == "rs") {
            tree.insert(path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/"));
        }
    }
    let listed: BTreeSet<&str> = files.iter().map(String::as_str).collect();
    let unlisted: Vec<&String> = tree.iter().filter(|f| !listed.contains(f.as_str())).collect();
    assert!(unlisted.is_empty(), "DESIGN.md's crate map omits: {unlisted:?}");
}
