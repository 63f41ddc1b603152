//! # rapl — Linux sysfs powercap backend
//!
//! The paper controls node power through Intel RAPL (via msr-safe on
//! Theta). On stock Linux the supported, unprivileged-readable interface is
//! the **powercap** framework: `/sys/class/powercap/intel-rapl:*` exposes
//! an energy counter and the long-term (constraint 0) and short-term
//! (constraint 1) power limits per package domain.
//!
//! This crate gives the reproduction a real-hardware path: the same
//! capping/measuring operations the simulator models can be performed on a
//! Linux host. All filesystem access goes through the [`PowercapFs`] trait
//! so everything is testable against [`MockFs`]; [`SysFs`] is the real
//! backing (writes require root).
//!
//! ```
//! use rapl::{MockFs, PowercapFs, RaplReader};
//!
//! let mut fs = MockFs::new();
//! fs.add_package(0, 50_000_000_000, 100_000_000); // 100 J counter
//! let mut reader = RaplReader::discover(fs).unwrap();
//! assert_eq!(reader.domains().len(), 1);
//! let e = reader.energy_uj(0).unwrap();
//! assert_eq!(e, 100_000_000);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Which RAPL constraint window a power limit applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Constraint 0: the long-term (averaging) window.
    Long,
    /// Constraint 1: the short-term window.
    Short,
}

impl Window {
    fn constraint_index(self) -> usize {
        match self {
            Window::Long => 0,
            Window::Short => 1,
        }
    }
}

/// Filesystem access used by the reader (mockable).
pub trait PowercapFs {
    /// Read a file to a string.
    fn read(&self, path: &Path) -> io::Result<String>;
    /// Write a string to a file.
    fn write(&mut self, path: &Path, value: &str) -> io::Result<()>;
    /// Enumerate package-level domain directories (`intel-rapl:N`).
    fn list_domains(&self) -> io::Result<Vec<PathBuf>>;
}

/// The real sysfs.
#[derive(Debug, Default, Clone)]
pub struct SysFs;

const POWERCAP_ROOT: &str = "/sys/class/powercap";

impl PowercapFs for SysFs {
    fn read(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn write(&mut self, path: &Path, value: &str) -> io::Result<()> {
        std::fs::write(path, value)
    }

    fn list_domains(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(POWERCAP_ROOT)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().to_string();
            // Package domains only: "intel-rapl:0", not "intel-rapl:0:0".
            if name.starts_with("intel-rapl:") && name.matches(':').count() == 1 {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// In-memory filesystem for tests and development on machines without RAPL.
#[derive(Debug, Default, Clone)]
pub struct MockFs {
    files: BTreeMap<PathBuf, String>,
    domains: Vec<PathBuf>,
}

impl MockFs {
    /// Empty mock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a package domain with a max energy range and current counter
    /// (both in µJ). Long/short limits start at 100 W / 120 W.
    pub fn add_package(&mut self, id: usize, max_range_uj: u64, energy_uj: u64) {
        let base = PathBuf::from(format!("/sys/class/powercap/intel-rapl:{id}"));
        let f = |name: &str| base.join(name);
        self.files.insert(f("name"), format!("package-{id}\n"));
        self.files.insert(f("energy_uj"), format!("{energy_uj}\n"));
        self.files.insert(f("max_energy_range_uj"), format!("{max_range_uj}\n"));
        self.files.insert(f("constraint_0_name"), "long_term\n".into());
        self.files.insert(f("constraint_0_power_limit_uw"), "100000000\n".into());
        self.files.insert(f("constraint_0_time_window_us"), "1000000\n".into());
        self.files.insert(f("constraint_1_name"), "short_term\n".into());
        self.files.insert(f("constraint_1_power_limit_uw"), "120000000\n".into());
        self.files.insert(f("constraint_1_time_window_us"), "9766\n".into());
        self.domains.push(base);
    }

    /// Overwrite the energy counter (simulating consumption).
    pub fn set_energy_uj(&mut self, id: usize, energy_uj: u64) {
        let path = PathBuf::from(format!("/sys/class/powercap/intel-rapl:{id}/energy_uj"));
        self.files.insert(path, format!("{energy_uj}\n"));
    }
}

impl PowercapFs for MockFs {
    fn read(&self, path: &Path) -> io::Result<String> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path:?}")))
    }

    fn write(&mut self, path: &Path, value: &str) -> io::Result<()> {
        if !self.files.contains_key(path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, format!("{path:?}")));
        }
        self.files.insert(path.to_path_buf(), value.to_string());
        Ok(())
    }

    fn list_domains(&self) -> io::Result<Vec<PathBuf>> {
        Ok(self.domains.clone())
    }
}

/// One discovered package domain.
#[derive(Debug, Clone)]
pub struct DomainInfo {
    /// Sysfs directory.
    pub path: PathBuf,
    /// Domain name (e.g. `package-0`).
    pub name: String,
    /// Energy counter wraparound range, µJ.
    pub max_energy_range_uj: u64,
}

/// RAPL reader/writer over a powercap filesystem.
pub struct RaplReader<F: PowercapFs> {
    fs: F,
    domains: Vec<DomainInfo>,
    /// Last energy reading per domain, for wraparound-correct deltas.
    last_energy: Vec<Option<u64>>,
}

impl<F: PowercapFs> RaplReader<F> {
    /// Discover package domains.
    pub fn discover(fs: F) -> io::Result<Self> {
        let mut domains = Vec::new();
        for path in fs.list_domains()? {
            let name = fs.read(&path.join("name"))?.trim().to_string();
            let max_energy_range_uj = parse_u64(&fs.read(&path.join("max_energy_range_uj"))?)?;
            domains.push(DomainInfo { path, name, max_energy_range_uj });
        }
        let n = domains.len();
        Ok(RaplReader { fs, domains, last_energy: vec![None; n] })
    }

    /// Discovered domains.
    pub fn domains(&self) -> &[DomainInfo] {
        &self.domains
    }

    /// Mutable access to the backing filesystem (mock manipulation in
    /// tests and demos).
    pub fn fs_mut(&mut self) -> &mut F {
        &mut self.fs
    }

    /// Raw energy counter, µJ.
    pub fn energy_uj(&mut self, domain: usize) -> io::Result<u64> {
        let path = self.domains[domain].path.join("energy_uj");
        parse_u64(&self.fs.read(&path)?)
    }

    /// Energy consumed since the previous call for this domain, joules,
    /// handling counter wraparound. First call returns 0.
    pub fn energy_delta_j(&mut self, domain: usize) -> io::Result<f64> {
        let now = self.energy_uj(domain)?;
        let delta_uj = match self.last_energy[domain] {
            None => 0,
            Some(prev) if now >= prev => now - prev,
            Some(prev) => {
                // Wrapped: counter range is max_energy_range_uj.
                self.domains[domain].max_energy_range_uj - prev + now
            }
        };
        self.last_energy[domain] = Some(now);
        Ok(delta_uj as f64 * 1e-6)
    }

    /// Mean power over an interval: energy delta divided by elapsed
    /// seconds (caller supplies its own clock for testability).
    pub fn power_w(&mut self, domain: usize, elapsed_s: f64) -> io::Result<f64> {
        let e = self.energy_delta_j(domain)?;
        if elapsed_s <= 0.0 {
            return Ok(0.0);
        }
        Ok(e / elapsed_s)
    }

    /// Read a power limit, watts.
    pub fn power_limit_w(&self, domain: usize, window: Window) -> io::Result<f64> {
        let c = window.constraint_index();
        let path = self.domains[domain].path.join(format!("constraint_{c}_power_limit_uw"));
        Ok(parse_u64(&self.fs.read(&path)?)? as f64 * 1e-6)
    }

    /// Set a power limit, watts (requires write access — root on real
    /// sysfs).
    pub fn set_power_limit_w(
        &mut self,
        domain: usize,
        window: Window,
        watts: f64,
    ) -> io::Result<()> {
        if !(watts.is_finite() && watts > 0.0) {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "power must be positive"));
        }
        let c = window.constraint_index();
        let path = self.domains[domain].path.join(format!("constraint_{c}_power_limit_uw"));
        let uw = (watts * 1e6).round() as u64;
        self.fs.write(&path, &uw.to_string())
    }
}

fn parse_u64(s: &str) -> io::Result<u64> {
    s.trim().parse::<u64>().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader_with_one_package() -> RaplReader<MockFs> {
        let mut fs = MockFs::new();
        fs.add_package(0, 262_143_328_850, 1_000_000); // Skylake-ish range
        RaplReader::discover(fs).unwrap()
    }

    #[test]
    fn discovery_reads_names_and_ranges() {
        let r = reader_with_one_package();
        assert_eq!(r.domains().len(), 1);
        assert_eq!(r.domains()[0].name, "package-0");
        assert_eq!(r.domains()[0].max_energy_range_uj, 262_143_328_850);
    }

    #[test]
    fn energy_delta_and_power() {
        let mut fs = MockFs::new();
        fs.add_package(0, 1_000_000_000, 0);
        let mut r = RaplReader::discover(fs.clone()).unwrap();
        assert_eq!(r.energy_delta_j(0).unwrap(), 0.0, "first read anchors");
        // Simulate 50 J consumed.
        r.fs.set_energy_uj(0, 50_000_000);
        let p = r.power_w(0, 0.5).unwrap();
        assert!((p - 100.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn wraparound_is_handled() {
        let mut fs = MockFs::new();
        fs.add_package(0, 1_000_000, 900_000); // tiny range for the test
        let mut r = RaplReader::discover(fs).unwrap();
        let _ = r.energy_delta_j(0).unwrap();
        // Counter wraps past 1_000_000 to 100_000: consumed 200_000 µJ.
        r.fs.set_energy_uj(0, 100_000);
        let d = r.energy_delta_j(0).unwrap();
        assert!((d - 0.2).abs() < 1e-9, "{d}");
    }

    #[test]
    fn limits_read_and_write() {
        let mut r = reader_with_one_package();
        assert_eq!(r.power_limit_w(0, Window::Long).unwrap(), 100.0);
        assert_eq!(r.power_limit_w(0, Window::Short).unwrap(), 120.0);
        r.set_power_limit_w(0, Window::Long, 110.0).unwrap();
        assert_eq!(r.power_limit_w(0, Window::Long).unwrap(), 110.0);
    }

    #[test]
    fn invalid_limit_rejected() {
        let mut r = reader_with_one_package();
        assert!(r.set_power_limit_w(0, Window::Long, -5.0).is_err());
        assert!(r.set_power_limit_w(0, Window::Long, f64::NAN).is_err());
    }

    #[test]
    fn zero_elapsed_gives_zero_power() {
        let mut r = reader_with_one_package();
        assert_eq!(r.power_w(0, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let fs = MockFs::new();
        let r = RaplReader::discover(fs).unwrap();
        assert!(r.domains().is_empty());
    }
}
