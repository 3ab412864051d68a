//! Roofline aggregation: achieved throughput vs. machine ceilings per op.
//!
//! [`roofline`] folds the recorded op events (kernel phase only — compile
//! and trace phases perform no tensor math) into one row per
//! `(backend, op)` pair, reporting achieved GFLOP/s, GB/s and arithmetic
//! intensity. Combined with a [`MachineProfile`] the report also shows
//! each op's attainable roof `min(peak_flops, intensity · peak_bw)` and
//! the percentage of it achieved — the classic roofline diagnosis of
//! whether an op is compute- or bandwidth-bound and how far from the
//! ceiling it runs.

use std::collections::BTreeMap;
use std::fmt;

use crate::machine::MachineProfile;

/// One `(backend, op, path)` aggregate in the roofline report.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineRow {
    /// Op mnemonic (e.g. `matmul`, `conv2d`, `fused`).
    pub name: String,
    /// Dispatching backend (`eager`, `lazy`, `naive`).
    pub backend: String,
    /// Kernel dispatch path the op ran on (`simd8` / `scalar`), so a
    /// mixed-path run shows each path's achieved throughput separately.
    pub path: String,
    /// Number of kernel invocations.
    pub count: u64,
    /// Total execution time across invocations, microseconds.
    pub total_us: u64,
    /// Total analytic FLOPs.
    pub flops: u64,
    /// Total analytic bytes moved.
    pub bytes: u64,
}

impl RooflineRow {
    /// Achieved GFLOP/s over this row's execution time.
    pub fn gflops(&self) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            self.flops as f64 / 1e3 / self.total_us as f64
        }
    }

    /// Achieved GB/s over this row's execution time.
    pub fn gbps(&self) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            self.bytes as f64 / 1e3 / self.total_us as f64
        }
    }

    /// Arithmetic intensity, FLOPs per byte.
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }
}

/// Roofline rows, optionally paired with machine ceilings.
#[derive(Debug, Clone, Default)]
pub struct RooflineReport {
    rows: Vec<RooflineRow>,
    machine: Option<MachineProfile>,
}

impl RooflineReport {
    /// Rows sorted by descending total time.
    pub fn rows(&self) -> &[RooflineRow] {
        &self.rows
    }

    /// Looks up the row for one op on one backend (any dispatch path; a
    /// run that mixed paths returns the first, most-expensive row).
    pub fn row(&self, backend: &str, name: &str) -> Option<&RooflineRow> {
        self.rows
            .iter()
            .find(|r| r.backend == backend && r.name == name)
    }

    /// True when no kernel op events were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Attaches machine ceilings, enabling the `%roof` column.
    pub fn with_machine(mut self, machine: MachineProfile) -> RooflineReport {
        self.machine = Some(machine);
        self
    }
}

impl fmt::Display for RooflineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows.is_empty() {
            return writeln!(f, "roofline: no op events recorded");
        }
        if let Some(m) = &self.machine {
            writeln!(
                f,
                "roofline (peaks: {:.2} gflop/s, {:.2} gb/s, ridge {:.2} flop/byte):",
                m.peak_gflops,
                m.peak_gbps,
                m.ridge_intensity()
            )?;
        } else {
            writeln!(f, "roofline:")?;
        }
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len() + r.backend.len() + r.path.len() + 2)
            .max()
            .unwrap_or(2)
            .max(10);
        write!(
            f,
            "{:<name_w$}  {:>7}  {:>10}  {:>9}  {:>8}  {:>9}",
            "op", "count", "total", "gflop/s", "gb/s", "flop/byte"
        )?;
        if self.machine.is_some() {
            write!(f, "  {:>6}  {:>5}", "%roof", "bound")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            let label = if row.path.is_empty() {
                format!("{}/{}", row.backend, row.name)
            } else {
                format!("{}/{}@{}", row.backend, row.name, row.path)
            };
            write!(
                f,
                "{:<name_w$}  {:>7}  {:>9.2}ms  {:>9.2}  {:>8.2}  {:>9.2}",
                label,
                row.count,
                row.total_us as f64 / 1e3,
                row.gflops(),
                row.gbps(),
                row.intensity()
            )?;
            if let Some(m) = &self.machine {
                let roof = m.roof_gflops(row.intensity());
                let pct = if roof > 0.0 {
                    row.gflops() / roof * 100.0
                } else {
                    0.0
                };
                let bound = if row.intensity() >= m.ridge_intensity() {
                    "comp"
                } else {
                    "mem"
                };
                write!(f, "  {pct:>5.1}%  {bound:>5}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Builds the roofline report from all op events recorded so far.
pub fn roofline() -> RooflineReport {
    let mut agg: BTreeMap<(String, String, String), RooflineRow> = BTreeMap::new();
    for op in crate::op_events() {
        if op.phase != "kernel" {
            continue;
        }
        let key = (
            op.backend.to_string(),
            op.name.to_string(),
            op.path.to_string(),
        );
        let row = agg.entry(key).or_insert_with(|| RooflineRow {
            name: op.name.to_string(),
            backend: op.backend.to_string(),
            path: op.path.to_string(),
            count: 0,
            total_us: 0,
            flops: 0,
            bytes: 0,
        });
        row.count += 1;
        row.total_us += op.run_us();
        row.flops += op.flops;
        row.bytes += op.bytes;
    }
    let mut rows: Vec<RooflineRow> = agg.into_values().collect();
    rows.sort_by(|a, b| {
        b.total_us
            .cmp(&a.total_us)
            .then_with(|| a.name.cmp(&b.name))
    });
    RooflineReport {
        rows,
        machine: None,
    }
}
