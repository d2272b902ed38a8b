//! The benchmark's in-process replicas must do what the repository's
//! own entry points do: the campaign replicas produce the same tallies
//! as the real `crisp-fault` and `crisp-diff` binaries, and the
//! composed table drivers render what their `crisp_bench` functions
//! render.
//!
//! The binaries are built from the repository workspace into this
//! package's test scratch directory on first use.

use std::path::{Path, PathBuf};
use std::process::Command;

use crisp_e2e_bench::diff::DiffCampaign;
use crisp_e2e_bench::fault::FaultCampaign;
use crisp_e2e_bench::tables::PaperTables;
use crisp_e2e_bench::Pass;

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

/// Run a `crisp-cli` binary built from the repository workspace;
/// returns its stdout (the exit status is the caller's business:
/// quarantines make `crisp-fault` exit 1).
fn cli(bin: &str, args: &[&str]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let out = Command::new(env!("CARGO"))
        .current_dir(root)
        .args([
            "run",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "crisp-cli",
        ])
        .args(["--bin", bin, "--target-dir"])
        .arg(scratch().join("cli"))
        .arg("--")
        .args(args)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.code().is_some(),
        "{bin} was killed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The number after `"key":` in a flat JSON object.
fn json_u64(obj: &str, key: &str) -> u64 {
    let at = obj
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("{key} in {obj}"))
        + key.len()
        + 3;
    obj[at..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{key} value in {obj}"))
}

#[test]
fn fault_replica_matches_crisp_fault_report() {
    // Seed 0 with 4 programs x 128 faults includes case 490, one of
    // the cases that trips the known pipeline panic, so the quarantine
    // path is compared too.
    let (seed, programs, faults) = (0u64, 4u64, 128u64);
    let report_path = scratch().join("fault-report.json");
    cli(
        "crisp-fault",
        &[
            "--seed",
            &seed.to_string(),
            "--programs",
            &programs.to_string(),
            "--faults",
            &faults.to_string(),
            "--jobs",
            "2",
            "--report",
            report_path.to_str().expect("utf-8 path"),
        ],
    );
    let report = std::fs::read_to_string(&report_path).expect("crisp-fault wrote its report");
    let replica = FaultCampaign::new(seed, programs, faults)
        .run()
        .expect("replica campaign runs");
    let cp = &replica.checkpoint;
    assert!(replica.failure.is_none());
    for key in ["verified", "skipped", "quarantined"] {
        assert_eq!(cp.get(key), json_u64(&report, key), "{key}");
    }
    assert!(cp.get("quarantined") >= 1, "case 490 is quarantined");
    let fields = &report[report.find("\"fields\":[").expect("field rows")..];
    for row in fields.split("{\"field\":\"").skip(1) {
        let field = row.split('"').next().expect("field name");
        for outcome in ["masked", "sdc", "control-divergence", "hang"] {
            assert_eq!(
                cp.get(&format!("{field}.{outcome}")),
                json_u64(row, outcome),
                "{field}.{outcome}"
            );
        }
    }
}

#[test]
fn diff_replica_matches_crisp_diff_commit_count() {
    let (seed, asm, c) = (7u64, 40u64, 4u64);
    let out = cli(
        "crisp-diff",
        &[
            "--seed",
            &seed.to_string(),
            "--programs",
            &asm.to_string(),
            "--c-programs",
            &c.to_string(),
            "--jobs",
            "2",
        ],
    );
    let commits: u64 = out
        .split("all agree (")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("crisp-diff agreed: {out}"));
    let (cp, failure, quarantined, latencies) = DiffCampaign::new(seed, asm, c)
        .run()
        .expect("replica campaign runs");
    assert!(failure.is_none() && quarantined.is_empty());
    assert_eq!(latencies.len() as u64, asm + 2 * c);
    assert_eq!(cp.get("diff.commits"), commits);
}

#[test]
fn composed_table_drivers_render_what_crisp_bench_renders() {
    let mut pass = Pass::default();
    for (name, expected) in [
        ("tables.table1", format!("{:?}", crisp_bench::table1())),
        (
            "tables.btb_compare",
            format!("{:?}", crisp_bench::btb_compare()),
        ),
        (
            "tables.ablation_predictor",
            format!("{:?}", crisp_bench::ablation_predictor()),
        ),
        (
            "tables.ablation_finite_dynamic",
            format!(
                "{:?}",
                crisp_bench::ablation_finite_dynamic(&[8, 32, 128, 512])
            ),
        ),
    ] {
        assert_eq!(
            PaperTables::driver(name, &mut pass, true),
            expected,
            "{name}"
        );
    }
}
