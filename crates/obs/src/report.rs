//! The quiet-aware progress reporter shared by the experiment bins.
//!
//! Every bin used to carry its own ad-hoc `println!`/`eprintln!` lines;
//! this funnels them through one handle with one format, so `--quiet`
//! silences progress chatter uniformly while machine-readable output
//! (the persisted `results/*.json`) is unaffected.

/// Destination-aware progress printer for CLI bins.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reporter {
    quiet: bool,
}

impl Reporter {
    /// A reporter that prints (or, with `quiet`, swallows) progress lines.
    pub fn new(quiet: bool) -> Self {
        Reporter { quiet }
    }

    /// Print one progress/status line to stdout (suppressed by `--quiet`).
    pub fn say(&self, line: impl std::fmt::Display) {
        if !self.quiet {
            println!("{line}");
        }
    }

    /// Print one diagnostic line to stderr (suppressed by `--quiet`).
    pub fn note(&self, line: impl std::fmt::Display) {
        if !self.quiet {
            eprintln!("{line}");
        }
    }

    /// Print a warning to stderr. **Not** suppressed by `--quiet` — quiet
    /// mode silences progress, not problems.
    pub fn warn(&self, line: impl std::fmt::Display) {
        eprintln!("warning: {line}");
    }
}
