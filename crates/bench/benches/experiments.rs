//! The scenario runner: executes every `EXPERIMENTS.md` scenario in
//! table order, checks its claims, and writes `BENCH_experiments.json`
//! plus one `BENCH_<family>.json` per scenario family with an artifact
//! of its own (`BENCH_rmr.json`, `BENCH_service.json`,
//! `BENCH_service_native.json`) at the repository root.
//!
//! Rows are emitted in `scenario::all()` order — exactly the
//! `EXPERIMENTS.md` table order — with the scenario name as the stable
//! row key, so diffs of the JSON across commits line up row-for-row.
//! Each row runs once; a family file holds the same rows as the
//! `BENCH_experiments.json` rows tagged with that family, which the
//! `crates/check` lint (`bench-keys` rule) enforces.
//!
//! ```sh
//! cargo bench --bench experiments             # full-scale sweeps
//! cargo bench --bench experiments -- --quick  # scaled-down variants (CI)
//! cargo bench --bench experiments -- --only fig_3_15_baseline
//! ```
//!
//! `--only NAME` runs that one row, prints its report and writes no
//! JSON. Exits nonzero if any claim fails or `NAME` is not a row, so a
//! CI run of this target is a second claim gate on top of
//! `tests/scenario_claims.rs`.

use repro_bench::scenario::{self, ClaimResult, Family, Outcome, Scale, Scenario};

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One row's JSON object (no trailing comma); `BENCH_experiments.json`
/// rows also carry their `family` tag.
fn row_json(sc: &Scenario, outcome: &Outcome, results: &[ClaimResult], tagged: bool) -> String {
    let pass = results.iter().all(|r| r.pass);
    let family = if tagged {
        format!("\"family\": \"{}\", ", sc.family.bench())
    } else {
        String::new()
    };
    let mut s = format!(
        "    {{\"name\": \"{}\", {family}\"figure\": \"{}\", \"status\": \"{}\", \
         \"headline\": \"{}\",\n     \"claims\": [\n",
        esc(sc.name),
        esc(sc.figure),
        if pass { "pass" } else { "FAIL" },
        esc(&outcome.headline),
    );
    for (j, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "       {{\"claim\": \"{}\", \"pass\": {}, \"detail\": \"{}\"}}{}\n",
            esc(&r.claim),
            r.pass,
            esc(&r.detail),
            if j + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("     ]}");
    s
}

/// Write one artifact: the `bench` key, the scale flag and `rows`.
fn write_artifact(family: Family, quick: bool, rows: &[String]) {
    let json = format!(
        "{{\n  \"bench\": \"{}\",\n  \"quick\": {quick},\n  \"rows\": [\n{}\n  ]\n}}\n",
        family.bench(),
        rows.join(",\n"),
    );
    let file = family.artifact();
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };

    if let Some(i) = args.iter().position(|a| a == "--only") {
        let name = args.get(i + 1).map_or("", String::as_str);
        let Some(sc) = scenario::all().into_iter().find(|s| s.name == name) else {
            eprintln!("no scenario named `{name}`");
            std::process::exit(2);
        };
        let (_, results) = sc.report(scale);
        if results.iter().any(|r| !r.pass) {
            std::process::exit(1);
        }
        return;
    }

    let scenarios = scenario::all();
    let total = scenarios.len();
    let mut failed_rows = 0usize;
    let mut tagged = Vec::new();
    let mut untagged = Vec::new();
    for sc in &scenarios {
        let (outcome, results) = sc.report(scale);
        if results.iter().any(|r| !r.pass) {
            failed_rows += 1;
        }
        tagged.push(row_json(sc, &outcome, &results, true));
        untagged.push((sc.family, row_json(sc, &outcome, &results, false)));
    }
    for family in Family::ALL {
        if family == Family::Paper {
            write_artifact(family, quick, &tagged);
        } else {
            let rows: Vec<String> = untagged
                .iter()
                .filter(|(f, _)| *f == family)
                .map(|(_, row)| row.clone())
                .collect();
            write_artifact(family, quick, &rows);
        }
    }

    println!("\n{}", "=".repeat(72));
    println!(
        "{}/{} rows pass all claims ({} scale); wrote {}",
        total - failed_rows,
        total,
        if quick { "quick" } else { "full" },
        Family::ALL.map(Family::artifact).join(", "),
    );
    if failed_rows > 0 {
        std::process::exit(1);
    }
}
