//! `dophy-run --text` end to end: the health report describes the run the
//! summary below it describes, faults included, and a run that generated
//! no packet has no delivery ratio.

use dophy::protocol::DophyConfig;
use dophy_bench::RunSpec;
use dophy_sim::{FaultConfig, Placement, SimConfig, SimDuration};
use std::process::Command;

/// The number that follows `key` on the first line containing it.
fn number_after(text: &str, key: &str) -> f64 {
    let (_, rest) = text
        .lines()
        .find_map(|l| l.split_once(key))
        .unwrap_or_else(|| panic!("no '{key}' in output:\n{text}"));
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("bad number after '{key}': {e}\n{text}"))
}

/// `dophy-run <spec> --text`'s stdout; panics if the run fails.
fn run_text(spec: &RunSpec, tag: u32) -> String {
    let path =
        std::env::temp_dir().join(format!("dophy-run-text-{}-{tag}.json", std::process::id(),));
    std::fs::write(&path, serde_json::to_string(spec).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dophy-run"))
        .arg(&path)
        .arg("--text")
        .output()
        .expect("dophy-run starts");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "dophy-run failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn text_report_describes_the_faulted_run_it_summarises() {
    let spec = RunSpec {
        faults: Some(FaultConfig::corruption(0.05)),
        ..RunSpec::new(
            SimConfig {
                placement: Placement::Grid {
                    side: 4,
                    spacing: 15.0,
                },
                ..SimConfig::canonical(42)
            },
            DophyConfig::default(),
            SimDuration::from_secs(300),
        )
    };
    let stdout = run_text(&spec, line!());

    let header_packets = number_after(&stdout, "  delivered ");
    let header_decode_pct = number_after(&stdout, "decode ");
    let summary_packets = number_after(&stdout, "delivered packets        : ");
    let summary_decode = number_after(&stdout, "decode success           : ");
    assert!(
        number_after(&stdout, "packets quarantined      : ") > 0.0,
        "the faults quarantined nothing — nothing was tested:\n{stdout}"
    );
    assert_eq!(
        header_packets, summary_packets,
        "health header and summary disagree on delivered packets:\n{stdout}"
    );
    // The header prints the ratio as a percentage to 2 places, the summary
    // as a fraction to 4: both round the same value at the same digit.
    assert!(
        (header_decode_pct - 100.0 * summary_decode).abs() < 0.0051,
        "health header decode {header_decode_pct}% vs summary {summary_decode}:\n{stdout}"
    );
}

#[test]
fn text_report_of_a_run_without_packets_has_no_delivery_ratio() {
    // The default spec cut to 30 s ends inside its 60 s warm-up, before
    // any source generates a packet.
    let out = Command::new(env!("CARGO_BIN_EXE_dophy-run"))
        .arg("--print-default")
        .output()
        .expect("dophy-run starts");
    assert!(out.status.success());
    let spec: RunSpec = serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let spec = RunSpec {
        duration: SimDuration::from_secs(30),
        ..spec
    };
    assert!(spec.dophy.warmup > spec.duration);
    let stdout = run_text(&spec, line!());
    assert!(
        stdout.contains("  delivered 0 packets (ratio -),"),
        "a run without packets printed a delivery ratio:\n{stdout}"
    );
}
