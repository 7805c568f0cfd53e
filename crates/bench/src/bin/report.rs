//! One-command reproduction of the paper's evaluation, the extension
//! experiments and the committed `BENCH_*.json` snapshots (see
//! [`bk_bench::report`]).
//!
//! `report [FLAGS]` runs the paper set and writes `results/REPORT.md` and
//! `results/report.json`; `report [FLAGS] NAME...` prints the named
//! sections to stdout instead. Section names are positional; the flags are
//! the common experiment flags (`--mib N`, `--app SUBSTR`, ...). A section
//! with an artifact (`pipeline`, `chaos`, `streaming`) writes it to the
//! current directory; when any section fails a gate check, the binary
//! lists the failures and exits 1 after writing.

use bk_bench::report::{parse_flags, select, split_names, Report};
use std::path::Path;

fn main() {
    let (names, flags) = split_names(std::env::args().skip(1));
    let fail = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let sections = select(&names).unwrap_or_else(|e| fail(format!("report: {e}")));
    let args = parse_flags(&sections, flags).unwrap_or_else(|e| fail(e));
    let report = Report::new(args);
    let mut rendered = Vec::new();
    for (i, s) in sections.iter().enumerate() {
        let out = s.render(&report);
        if !names.is_empty() {
            if i > 0 {
                println!();
            }
            print!("{}", out.markdown);
        }
        if let Some((file, contents)) = &out.artifact {
            std::fs::write(file, contents).unwrap_or_else(|e| panic!("write {file}: {e}"));
            println!("wrote {file}");
        }
        rendered.push(out);
    }
    if names.is_empty() {
        let out_dir = Path::new("results");
        std::fs::create_dir_all(out_dir).expect("create results dir");
        let md = report.markdown(&rendered);
        let path = out_dir.join("REPORT.md");
        std::fs::write(&path, &md).expect("write report");
        println!("wrote {} ({} bytes)", path.display(), md.len());
        let jpath = out_dir.join("report.json");
        std::fs::write(&jpath, report.json()).expect("write json");
        println!("wrote {}", jpath.display());
    }
    let failures: Vec<&String> = rendered.iter().flat_map(|r| &r.failures).collect();
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
