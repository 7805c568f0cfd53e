//! One-command reproduction of the paper's evaluation and the extension
//! experiments (see [`bk_bench::report`]).
//!
//! `report [FLAGS]` runs the paper set and writes `results/REPORT.md` and
//! `results/report.json`; `report [FLAGS] NAME...` prints the named
//! sections to stdout instead. Section names are positional; the flags are
//! the common experiment flags (`--mib N`, `--app SUBSTR`, ...).

use bk_bench::args::ExpArgs;
use bk_bench::report::{select, split_names, Report};
use std::path::Path;

fn main() {
    let (names, flags) = split_names(std::env::args().skip(1));
    let fail = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let sections = select(&names).unwrap_or_else(|e| fail(format!("report: {e}")));
    let args = ExpArgs::parse_named("report", flags.into_iter()).unwrap_or_else(|e| fail(e));
    let report = Report::new(args);
    if !names.is_empty() {
        for (i, s) in sections.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", s.render(&report));
        }
        return;
    }
    let out_dir = Path::new("results");
    std::fs::create_dir_all(out_dir).expect("create results dir");
    let md = report.markdown(&sections);
    let path = out_dir.join("REPORT.md");
    std::fs::write(&path, &md).expect("write report");
    println!("wrote {} ({} bytes)", path.display(), md.len());
    let jpath = out_dir.join("report.json");
    std::fs::write(&jpath, report.json()).expect("write json");
    println!("wrote {}", jpath.display());
}
