//! Smoke test: every workload end to end with ~1 s phases, traced.
//!
//! Checks that every metric name prints for every workload, that no
//! request failed, and that each trace file parses with correctly
//! nested spans.

use bagpred_loadbench::json::{self, Json};
use bagpred_loadbench::metrics::{end_to_end_all, PER_LAYER};
use bagpred_loadbench::trace::name;
use bagpred_loadbench::workload::Kind;
use std::collections::HashMap;
use std::process::Command;

/// The span a span of each name may sit under (`None`: a root).
fn allowed_parents(span: &str) -> &'static [Option<&'static str>] {
    match span {
        n if n == name::TCP || n == name::ADMIT || n == name::OBSERVE || n == name::FIRST_TOUCH => {
            &[None]
        }
        n if n == name::CALL => &[Some(name::TCP)],
        n if n == name::CACHE || n == name::PREDICT => &[Some(name::CALL)],
        // A codec sits under the round trip of its own dialect and is a
        // root probe for the other one.
        n if n == name::DECODE || n == name::ENCODE || n == name::PARSE || n == name::FORMAT => {
            &[Some(name::TCP), None]
        }
        n if n == name::PROFILE || n == name::FEATURES => &[Some(name::FIRST_TOUCH)],
        _ => &[],
    }
}

fn check_trace(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let mut spans: HashMap<u64, (u64, String, u64, u64)> = HashMap::new();
    let mut roots = 0;
    for line in text.lines() {
        let doc = json::parse(line).expect("every trace line is JSON");
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).expect("numeric field") as u64;
        let (id, op) = (num("span"), num("op"));
        let span = doc
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string();
        let (start, dur) = (num("start_ns"), num("dur_ns"));
        let parent = match doc.get("parent") {
            Some(Json::Null) => None,
            Some(p) => Some(p.as_f64().expect("parent id") as u64),
            None => panic!("span without a parent field"),
        };
        let parent_name = parent.map(|p| {
            let (parent_op, parent_name, pstart, pdur) = spans
                .get(&p)
                .expect("a parent is recorded before its children");
            assert_eq!(*parent_op, op, "{span} crosses requests");
            if parent_name == name::FIRST_TOUCH {
                // Probe children run inside their root's interval.
                assert!(
                    start >= *pstart && start + dur <= pstart + pdur,
                    "{span} outside its root"
                );
            }
            parent_name.clone()
        });
        roots += usize::from(parent.is_none());
        assert!(
            allowed_parents(&span).contains(&parent_name.as_deref()),
            "{span} under {parent_name:?}"
        );
        assert!(
            spans.insert(id, (op, span, start, dur)).is_none(),
            "span id reused"
        );
    }
    assert!(
        roots > 0 && spans.len() > roots,
        "{}: too few spans",
        path.display()
    );
    for required in [
        name::TCP,
        name::CALL,
        name::CACHE,
        name::PREDICT,
        name::PROFILE,
    ] {
        assert!(
            spans.values().any(|(_, n, _, _)| n == required),
            "{}: no {required} span",
            path.display()
        );
    }
}

#[test]
fn every_workload_reports_every_metric_with_no_failures() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("loadbench-smoke");
    std::fs::create_dir_all(&dir).expect("trace dir");
    let out = Command::new(env!("CARGO_BIN_EXE_loadbench"))
        .args(["--smoke", "--seed", "3", "--trace-dir"])
        .arg(&dir)
        .output()
        .expect("loadbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "loadbench --smoke failed\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for kind in Kind::ALL {
        let w = kind.name();
        for (metric, unit) in end_to_end_all().chain(PER_LAYER) {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("{w} {metric} ")))
                .unwrap_or_else(|| panic!("{w} did not print {metric}\n{stdout}"));
            assert!(line.ends_with(&format!(" {unit}")), "{line}");
            let value: f64 = line.split(' ').nth(2).unwrap().parse().expect("a number");
            assert!(
                value.is_finite() && value >= 0.0 || metric == "unattributed_us",
                "{line}"
            );
        }
        let result = stdout
            .lines()
            .find(|l| l.starts_with(&format!("# {w} result ")))
            .unwrap_or_else(|| panic!("{w} printed no result\n{stdout}"));
        assert!(
            result.contains(" failed=0 ") && result.contains("correct=true"),
            "{result}"
        );
        check_trace(&dir.join(format!("{w}-3.trace.jsonl")));
    }
}
