//! Repo-invariant lint: textual/structural rules that `cargo check`
//! cannot express, enforced over the workspace's own sources (vendor
//! stubs and generated artifacts excluded).
//!
//! Rules:
//!
//! * `ordering` — every atomic memory-ordering use
//!   (`Ordering::Relaxed` … `Ordering::SeqCst`) carries an adjacent
//!   `// order:` justification (same line, or in the contiguous
//!   comment block immediately above), or its file is allowlisted.
//! * `unsafe` — every `unsafe` keyword carries an adjacent `SAFETY:`
//!   comment (same placement rule), or its file is allowlisted.
//! * `hot-path-maps` — the simulator's hot-path modules must stay on
//!   dense arena/slab structures: no `HashMap`/`BTreeMap`.
//! * `horizon-comments` — every cross-shard lane lock (the push and
//!   drain sites) in the parallel scheduler (`crates/sim/src/parallel.rs`)
//!   carries an adjacent `// horizon:` comment justifying why the
//!   transfer cannot violate the conservative safe-horizon invariant.
//! * `event-size` — the compile-time 16-byte bound on simulator events
//!   must stay present in `exec.rs`.
//! * `bench-keys` — the scenario runner's artifacts stay in sync with
//!   `EXPERIMENTS.md`: every row name in `BENCH_experiments.json` and
//!   the family files (`BENCH_rmr.json`, `BENCH_service.json`,
//!   `BENCH_service_native.json`) is an `EXPERIMENTS.md` key; every
//!   `EXPERIMENTS.md` key has a `BENCH_experiments.json` row (md-only
//!   keys may be allowlisted: benches that write other artifacts); and
//!   each family file holds exactly the `BENCH_experiments.json` rows
//!   tagged with that `family` — so a stale or
//!   hand-edited family file cannot silently drop or add a gated row.
//!
//! The allowlist is `crates/check/lint_allow.txt`: `<rule> <key>` per
//! line, `#` comments. Keys are workspace-relative paths for the file
//! rules, scenario keys for `bench-keys`.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// The patterns this file searches for are spelled split so the lint
// never matches its own source.
const ORDERING_PAT: &str = concat!("Order", "ing::");
const ORDER_COMMENT: &str = concat!("or", "der:");
const SAFETY_COMMENT: &str = concat!("SAF", "ETY:");
const UNSAFE_KW: &str = concat!("un", "safe");
const HASH_MAP: &str = concat!("Hash", "Map");
const BTREE_MAP: &str = concat!("BTree", "Map");
const HORIZON_COMMENT: &str = concat!("hori", "zon:");

/// Locking a cross-shard lane in the parallel scheduler (its only
/// locks): each push and drain site must justify the safe-horizon
/// invariant.
const LANE_LOCK: &str = concat!(".lo", "ck()");

/// The one file the `horizon-comments` rule applies to.
const PARALLEL_FILE: &str = "crates/sim/src/parallel.rs";

/// Atomic-ordering variants (`std::cmp::Ordering`'s variants are not
/// in this list, so comparison code never trips the rule).
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The simulator modules the paper's throughput numbers depend on;
/// PR 2 moved them to dense structures and this rule keeps them there.
const HOT_PATH_FILES: [&str; 4] = [
    "crates/sim/src/queue.rs",
    "crates/sim/src/state.rs",
    "crates/sim/src/exec.rs",
    "crates/sim/src/coherence.rs",
];

/// One rule violation.
#[derive(Debug)]
pub struct Finding {
    /// Rule name (allowlist key space).
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.msg)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.msg
            )
        }
    }
}

/// Parsed `lint_allow.txt`.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: BTreeSet<(String, String)>,
}

impl Allowlist {
    /// Parse allowlist text (`<rule> <key>` lines, `#` comments).
    pub fn parse(text: &str) -> Allowlist {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (rule, key) = l.split_once(char::is_whitespace)?;
                Some((rule.to_string(), key.trim().to_string()))
            })
            .collect();
        Allowlist { entries }
    }

    fn allows(&self, rule: &str, key: &str) -> bool {
        self.entries.contains(&(rule.to_string(), key.to_string()))
    }
}

/// Run every rule over the workspace at `root`. Returns the surviving
/// findings (allowlisted ones are dropped).
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    let allow = match fs::read_to_string(root.join("crates/check/lint_allow.txt")) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    };
    let mut findings = Vec::new();
    for file in rust_sources(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&file)?;
        let lines: Vec<&str> = text.lines().collect();
        if !allow.allows("ordering", &rel) {
            ordering_rule(&rel, &lines, &mut findings);
        }
        if !allow.allows(UNSAFE_KW, &rel) {
            unsafe_rule(&rel, &lines, &mut findings);
        }
        if HOT_PATH_FILES.contains(&rel.as_str()) {
            hot_path_rule(&rel, &lines, &mut findings);
        }
        if rel == PARALLEL_FILE && !allow.allows("horizon-comments", &rel) {
            horizon_rule(&rel, &lines, &mut findings);
        }
        if rel == "crates/sim/src/exec.rs" {
            event_size_rule(&rel, &text, &mut findings);
        }
    }
    bench_keys_rule(root, &allow, &mut findings)?;
    Ok(findings)
}

/// All workspace-owned `.rs` files (vendor stubs and build output are
/// not ours to lint).
fn rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "vendor" {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether the line is comment-only (`//`, `///`, `//!`).
fn is_comment_line(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Whether line `i` carries `needle` — on the line itself, on an
/// earlier line of the same (multi-line) statement, or in the
/// contiguous comment block immediately above the statement.
fn justified(lines: &[&str], i: usize, needle: &str) -> bool {
    if lines[i].contains(needle) {
        return true;
    }
    // Walk to the statement head: a predecessor that is blank, a
    // comment, or ends a statement/block means line `j` starts one.
    let mut j = i;
    while j > 0 {
        let prev = lines[j - 1].trim_end();
        if prev.is_empty()
            || is_comment_line(prev)
            || prev.ends_with(';')
            || prev.ends_with('{')
            || prev.ends_with('}')
        {
            break;
        }
        j -= 1;
        if lines[j].contains(needle) {
            return true;
        }
    }
    while j > 0 && is_comment_line(lines[j - 1]) {
        j -= 1;
        if lines[j].contains(needle) {
            return true;
        }
    }
    false
}

fn ordering_rule(file: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        let hit = ATOMIC_ORDERINGS
            .iter()
            .any(|v| line.contains(&format!("{ORDERING_PAT}{v}")));
        if !hit {
            continue;
        }
        if !justified(lines, i, ORDER_COMMENT) {
            findings.push(Finding {
                rule: "ordering",
                file: file.to_string(),
                line: i + 1,
                msg: format!(
                    "atomic ordering without an adjacent `// {ORDER_COMMENT}` justification"
                ),
            });
        }
    }
}

fn unsafe_rule(file: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) || !has_word(line, UNSAFE_KW) {
            continue;
        }
        if !justified(lines, i, SAFETY_COMMENT) {
            findings.push(Finding {
                rule: UNSAFE_KW,
                file: file.to_string(),
                line: i + 1,
                msg: format!("`{UNSAFE_KW}` without an adjacent `// {SAFETY_COMMENT}` comment"),
            });
        }
    }
}

/// Word-boundary substring match (so `unsafe_code` in a lint attribute
/// never counts as the keyword).
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before = start == 0 || !is_word(bytes[start - 1]);
        let ok_after = end == bytes.len() || !is_word(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

fn hot_path_rule(file: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        for map in [HASH_MAP, BTREE_MAP] {
            if has_word(line, map) {
                findings.push(Finding {
                    rule: "hot-path-maps",
                    file: file.to_string(),
                    line: i + 1,
                    msg: format!("`{map}` on the simulator hot path (use a dense arena/slab)"),
                });
            }
        }
    }
}

fn horizon_rule(file: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        if !line.contains(LANE_LOCK) {
            continue;
        }
        if !justified(lines, i, HORIZON_COMMENT) {
            findings.push(Finding {
                rule: "horizon-comments",
                file: file.to_string(),
                line: i + 1,
                msg: format!(
                    "cross-shard lane access without an adjacent `// {HORIZON_COMMENT}` \
                     justification of the safe-horizon invariant"
                ),
            });
        }
    }
}

fn event_size_rule(file: &str, text: &str, findings: &mut Vec<Finding>) {
    if !text.contains("size_of::<Ev>() <= 16") {
        findings.push(Finding {
            rule: "event-size",
            file: file.to_string(),
            line: 0,
            msg: "compile-time `size_of::<Ev>() <= 16` assert is missing".to_string(),
        });
    }
}

/// Scenario keys from `EXPERIMENTS.md` tables: the first backticked
/// cell of each table row (`| \`key\` | ...`).
fn experiment_md_keys(text: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix("| `") else {
            continue;
        };
        if let Some((key, _)) = rest.split_once('`') {
            if !key.is_empty() {
                keys.insert(key.to_string());
            }
        }
    }
    keys
}

/// The scenario runner's artifacts, `BENCH_<bench>.json`: the all-rows
/// file first, then the family files, each named by the `family` tag
/// its rows carry in the all-rows file.
const BENCH_FILES: [&str; 4] = ["experiments", "rmr", "service", "service_native"];

/// `(name, family)` of each row of a runner artifact, in file order
/// (hand parse: the workspace has no JSON dependency, and the format is
/// ours). Only `BENCH_experiments.json` rows carry a `family`.
fn bench_rows(text: &str) -> Vec<(String, Option<String>)> {
    text.split("\"name\"")
        .skip(1)
        .filter_map(|row| {
            let name = string_value(row)?;
            let family = row
                .split_once("\"family\"")
                .and_then(|(_, rest)| string_value(rest));
            Some((name, family))
        })
        .collect()
}

/// The string value of a key whose `: "value"` starts `rest`.
fn string_value(rest: &str) -> Option<String> {
    let tail = rest.trim_start().strip_prefix(':')?.trim_start();
    let (value, _) = tail.strip_prefix('"')?.split_once('"')?;
    Some(value.to_string())
}

fn bench_keys_rule(root: &Path, allow: &Allowlist, findings: &mut Vec<Finding>) -> io::Result<()> {
    let md = fs::read_to_string(root.join("EXPERIMENTS.md"))?;
    let mut benches = Vec::new();
    for bench in BENCH_FILES {
        benches.push(fs::read_to_string(
            root.join(format!("BENCH_{bench}.json")),
        )?);
    }
    bench_keys(&md, &benches, allow, findings);
    Ok(())
}

/// The `bench-keys` rule over file contents: `md` is `EXPERIMENTS.md`,
/// `benches[i]` the text of `BENCH_<BENCH_FILES[i]>.json`.
fn bench_keys(md: &str, benches: &[String], allow: &Allowlist, findings: &mut Vec<Finding>) {
    let mut push = |file: &str, msg: String| {
        findings.push(Finding {
            rule: "bench-keys",
            file: file.to_string(),
            line: 0,
            msg,
        });
    };
    let md_keys = experiment_md_keys(md);
    let rows: Vec<_> = benches.iter().map(|text| bench_rows(text)).collect();
    for (bench, rows) in BENCH_FILES.iter().zip(&rows) {
        for (name, _) in rows {
            if !md_keys.contains(name) {
                push(
                    "EXPERIMENTS.md",
                    format!("BENCH_{bench}.json row `{name}` has no EXPERIMENTS.md table row"),
                );
            }
        }
    }
    let all = &rows[0];
    for key in &md_keys {
        if !all.iter().any(|(name, _)| name == key) && !allow.allows("bench-keys", key) {
            push(
                "BENCH_experiments.json",
                format!(
                    "EXPERIMENTS.md scenario `{key}` has no BENCH_experiments.json row \
                     (allowlist it if another artifact carries it)"
                ),
            );
        }
    }
    // A family this rule does not know would go unchecked.
    for (name, family) in all {
        if !family.as_deref().is_some_and(|f| BENCH_FILES.contains(&f)) {
            push(
                "BENCH_experiments.json",
                format!("row `{name}` has family {family:?}, which names no BENCH_*.json file"),
            );
        }
    }
    for (bench, rows) in BENCH_FILES.iter().zip(&rows).skip(1) {
        let want: Vec<&str> = all
            .iter()
            .filter(|(_, f)| f.as_deref() == Some(*bench))
            .map(|(name, _)| name.as_str())
            .collect();
        let have: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
        let file = format!("BENCH_{bench}.json");
        for name in want.iter().filter(|n| !have.contains(n)) {
            push(
                &file,
                format!(
                    "BENCH_experiments.json row `{name}` is tagged `{bench}` but {file} has no \
                     such row (re-run the experiments runner)"
                ),
            );
        }
        for name in have.iter().filter(|n| !want.contains(n)) {
            push(
                &file,
                format!(
                    "{file} row `{name}` is not a BENCH_experiments.json row tagged `{bench}` \
                     (stale or hand-edited; re-run the experiments runner)"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Synthetic sources are built from the split constants so the lint
    // never flags its own test fixtures.
    #[test]
    fn ordering_requires_adjacent_justification() {
        let load = format!("x.load({ORDERING_PAT}Relaxed);");
        let comment = format!("// {ORDER_COMMENT} Relaxed — diagnostic.");
        let ok = [comment.as_str(), load.as_str()];
        let bad = [load.as_str()];
        let far = [comment.as_str(), "", "", load.as_str()];
        let mut f = Vec::new();
        ordering_rule("a.rs", &ok, &mut f);
        assert!(f.is_empty(), "{f:?}");
        ordering_rule("a.rs", &bad, &mut f);
        assert_eq!(f.len(), 1);
        f.clear();
        ordering_rule("a.rs", &far, &mut f);
        assert_eq!(f.len(), 1, "a blank line breaks the comment block");
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_ordering() {
        let cmp = format!("std::cmp::{ORDERING_PAT}Less => {{}}");
        let lines = [cmp.as_str()];
        let mut f = Vec::new();
        ordering_rule("a.rs", &lines, &mut f);
        assert!(
            f.is_empty(),
            "comparison Ordering variants tripped the rule"
        );
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let safety = format!("// {SAFETY_COMMENT} we hold the lock.");
        let block = format!("{UNSAFE_KW} {{ *p }}");
        let attr = format!("#![deny({UNSAFE_KW}_op_in_{UNSAFE_KW}_fn)]");
        let mut f = Vec::new();
        unsafe_rule("a.rs", &[safety.as_str(), block.as_str()], &mut f);
        assert!(f.is_empty(), "{f:?}");
        unsafe_rule("a.rs", &[block.as_str()], &mut f);
        assert_eq!(f.len(), 1);
        f.clear();
        unsafe_rule("a.rs", &[attr.as_str()], &mut f);
        assert!(f.is_empty(), "lint attributes are not the keyword");
    }

    #[test]
    fn hot_path_rule_flags_maps_outside_comments() {
        let map = concat!("Hash", "Map");
        let lines = [
            format!("use std::collections::{map};"),
            format!("// a comment may mention {map}"),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut f = Vec::new();
        hot_path_rule("crates/sim/src/state.rs", &refs, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn horizon_rule_requires_adjacent_justification() {
        let push = format!("lanes[dst][src]{LANE_LOCK}.expect(\"poisoned\").push(msg);");
        let drain = format!("let msgs = std::mem::take(&mut *lane{LANE_LOCK}.unwrap());");
        let comment = format!("// {HORIZON_COMMENT} drained only after the closing barrier.");
        let mut f = Vec::new();
        horizon_rule(PARALLEL_FILE, &[comment.as_str(), push.as_str()], &mut f);
        assert!(f.is_empty(), "{f:?}");
        horizon_rule(PARALLEL_FILE, &[push.as_str(), drain.as_str()], &mut f);
        assert_eq!(f.len(), 2, "both unjustified lane accesses flagged");
        assert_eq!((f[0].line, f[1].line), (1, 2));
        f.clear();
        // A multi-line statement reaches back to the block above its head.
        let tail = format!("    {LANE_LOCK}");
        let lines = [comment.as_str(), "lanes[dst][src]", tail.as_str()];
        horizon_rule(PARALLEL_FILE, &lines, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn experiment_key_parsers() {
        let md = "| `fig_1` | Fig. 1 | x | y | ✓ |\nplain text\n| `tbl_2` | ... |\n";
        assert_eq!(
            experiment_md_keys(md).into_iter().collect::<Vec<_>>(),
            vec!["fig_1".to_string(), "tbl_2".to_string()]
        );
        let json = r#"{"rows": [{"name": "fig_1", "family": "rmr"}, {"name" : "tbl_2"}]}"#;
        assert_eq!(
            bench_rows(json),
            vec![
                ("fig_1".to_string(), Some("rmr".to_string())),
                ("tbl_2".to_string(), None),
            ]
        );
    }

    /// `(name, family)` rows of an all-rows file.
    type Rows<'a> = &'a [(&'a str, &'a str)];
    /// Row names of the rmr, service and service_native files.
    type FamilyFiles<'a> = [&'a [&'a str]; 3];

    /// `bench-keys` findings as `file: msg`, over `EXPERIMENTS.md` keys
    /// `fig_a`, `rmr_b`, `svc_c`, `native_d` and the md-only
    /// `switch_cost`. `all` is the all-rows file as `(name, family)`
    /// (`""`: untagged); `fams` are the rmr, service and service_native
    /// files.
    fn bench_keys_findings(all: Rows, fams: FamilyFiles, allow: &str) -> Vec<String> {
        let md = "| `fig_a` |\n| `rmr_b` |\n| `svc_c` |\n| `native_d` |\n| `switch_cost` |\n";
        let row = |name: &str, family: &str| match family {
            "" => format!(r#"    {{"name": "{name}", "claims": []}}"#),
            f => format!(r#"    {{"name": "{name}", "family": "{f}", "claims": []}}"#),
        };
        let file = |rows: Vec<String>| format!("{{\"rows\": [\n{}\n]}}\n", rows.join(",\n"));
        let mut benches = vec![file(all.iter().map(|(n, f)| row(n, f)).collect())];
        benches.extend(fams.map(|names| file(names.iter().map(|n| row(n, "")).collect())));
        let mut f = Vec::new();
        bench_keys(md, &benches, &Allowlist::parse(allow), &mut f);
        assert!(f.iter().all(|x| x.rule == "bench-keys"));
        f.iter().map(|x| format!("{}: {}", x.file, x.msg)).collect()
    }

    #[test]
    fn bench_keys_rule_table() {
        let tags = [
            ("fig_a", "experiments"),
            ("rmr_b", "rmr"),
            ("svc_c", "service"),
        ];
        let all = [tags[0], tags[1], tags[2], ("native_d", "service_native")];
        let fams: FamilyFiles = [&["rmr_b"], &["svc_c"], &["native_d"]];
        let allow = "bench-keys switch_cost";
        // (case, all-rows file, family files, allowlist, finding prefixes)
        let cases: [(&str, Rows, FamilyFiles, &str, &[&str]); 7] = [
            // Families scope the rule: `fig_a` is in no family file and
            // `native_d` is not required in BENCH_service.json.
            ("in sync", &all, fams, allow, &[]),
            (
                "missing family-file row",
                &all,
                [&[], fams[1], fams[2]],
                allow,
                &["BENCH_rmr.json: BENCH_experiments.json row `rmr_b` is tagged `rmr`"],
            ),
            (
                "extra family-file row",
                &all,
                [fams[0], &["svc_c", "native_d"], fams[2]],
                allow,
                &["BENCH_service.json: BENCH_service.json row `native_d` is not"],
            ),
            (
                "family row absent from BENCH_experiments.json",
                &tags,
                fams,
                allow,
                &[
                    "BENCH_experiments.json: EXPERIMENTS.md scenario `native_d` has no",
                    "BENCH_service_native.json: BENCH_service_native.json row `native_d` is not",
                ],
            ),
            (
                "md-only key without the allowlist",
                &all,
                fams,
                "",
                &["BENCH_experiments.json: EXPERIMENTS.md scenario `switch_cost` has no"],
            ),
            (
                "row that is no EXPERIMENTS.md key",
                &all,
                [&["rmr_b", "rmr_z"], fams[1], fams[2]],
                allow,
                &[
                    "EXPERIMENTS.md: BENCH_rmr.json row `rmr_z` has no",
                    "BENCH_rmr.json: BENCH_rmr.json row `rmr_z` is not",
                ],
            ),
            (
                "untagged and unknown families",
                &[("fig_a", ""), tags[1], ("svc_c", "bogus"), all[3]],
                [fams[0], &[], fams[2]],
                allow,
                &[
                    "BENCH_experiments.json: row `fig_a` has family None",
                    "BENCH_experiments.json: row `svc_c` has family Some(\"bogus\")",
                ],
            ),
        ];
        for (case, all, fams, allow, want) in cases {
            let got = bench_keys_findings(all, fams, allow);
            assert_eq!(got.len(), want.len(), "{case}: {got:?}");
            for (g, w) in got.iter().zip(want) {
                assert!(g.starts_with(w), "{case}: `{g}` does not start with `{w}`");
            }
        }
    }

    #[test]
    fn allowlist_parses_and_filters() {
        let a = Allowlist::parse("# comment\nordering crates/x.rs\nbench-keys switch_cost\n");
        assert!(a.allows("ordering", "crates/x.rs"));
        assert!(a.allows("bench-keys", "switch_cost"));
        assert!(!a.allows(UNSAFE_KW, "crates/x.rs"));
    }
}
