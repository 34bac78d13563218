//! Byte-exact snapshots of every report emitter.
//!
//! The file-I/O audit routed all report writing through buffered writers
//! (`csv::write_csv` is the crate's only file writer; plots and tables
//! render to in-memory strings). These snapshots pin the emitted bytes so a
//! buffering or formatting change can never silently alter report output.

use pwu_report::{write_csv, LinePlot, ScatterPlot, Table};

#[test]
fn csv_bytes_are_unchanged() {
    let dir = std::env::temp_dir().join(format!("pwu-report-smoke-{}", std::process::id()));
    let path = dir.join("series.csv");
    write_csv(
        &path,
        &["n_train", "PWU", "Uniform"],
        vec![
            vec![
                "8".to_string(),
                "1.234560e-3".to_string(),
                "2.5e-3".to_string(),
            ],
            vec!["10".to_string(), "9.9e-4".to_string(), "2.1e-3".to_string()],
            vec![
                "12".to_string(),
                "needs,quoting".to_string(),
                "\"q\"".to_string(),
            ],
        ],
    )
    .expect("write succeeds");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(
        String::from_utf8(bytes).expect("utf-8"),
        "n_train,PWU,Uniform\n\
         8,1.234560e-3,2.5e-3\n\
         10,9.9e-4,2.1e-3\n\
         12,\"needs,quoting\",\"\"\"q\"\"\"\n"
    );
}

#[test]
fn table_render_is_unchanged() {
    let mut t = Table::new(["kernel", "speedup"]);
    t.row(["gesummv", "19.6x"]).row(["mm", "3.8x"]);
    assert_eq!(
        t.render(),
        "kernel   speedup\n\
         ----------------\n\
         gesummv  19.6x  \n\
         mm       3.8x   \n"
    );
    assert_eq!(
        t.render_markdown(),
        "| kernel | speedup |\n\
         |---|---|\n\
         | gesummv | 19.6x |\n\
         | mm | 3.8x |\n"
    );
}

#[test]
fn plot_renders_are_unchanged() {
    let mut p = LinePlot::new("rmse vs n", "n_train", "rmse");
    p.series("PWU", &[(0.0, 1.0), (1.0, 0.5), (2.0, 0.25)]);
    let render = p.render();
    // The full grid is whitespace-heavy; pin the structural lines exactly
    // and fingerprint the whole render by length so any drift is caught.
    let lines: Vec<&str> = render.lines().collect();
    assert_eq!(lines[0], "rmse vs n");
    assert!(lines[1].starts_with("    1.000 |*"));
    assert!(lines[20].starts_with("    0.250 |"));
    assert_eq!(lines[22], "          72  →  n_train = 0.000 .. 2.000");
    assert_eq!(lines[23], "          y: rmse");
    assert_eq!(lines[24], "          legend: * PWU");
    assert_eq!(render.len(), 1860, "line-plot render drifted");

    let mut sc = ScatterPlot::new("fig9");
    sc.background(&[(0.0, 0.0), (1.0, 1.0)]);
    sc.highlighted(&[(1.0, 1.0)]);
    let render = sc.render();
    let lines: Vec<&str> = render.lines().collect();
    assert_eq!(lines[0], "fig9");
    assert_eq!(
        lines[20],
        "  x: predicted time 0.000e0..1.000e0   y: uncertainty 0.000e0..1.000e0"
    );
    assert_eq!(lines[21], "  .=pool  x=selected");
    assert_eq!(render.len(), 1389, "scatter render drifted");
}
