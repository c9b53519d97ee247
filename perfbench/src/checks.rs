//! Output checks. Each returns a [`Check`]: how many outputs were
//! verified and which were wrong. A wrong output counts toward
//! `failed_frac`; nothing here panics or aborts the run.

use wsrs_telemetry::{CellRecord, GateOutcome, Json, RunManifest};

/// The result of verifying a batch of outputs.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Check {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.reasons.push(why);
    }
}

/// A cell record with its identity and execution-path fields cleared,
/// leaving only simulated statistics: a cell must reproduce these
/// exactly, whichever engine path, config hashing or batching produced
/// it.
#[must_use]
pub fn simulated_fields(c: &CellRecord) -> String {
    let mut c = c.clone();
    c.config_hash.clear();
    c.config_content_hash.clear();
    c.batched = false;
    c.skip = false;
    c.to_json().to_string_compact()
}

/// `expected` cut down to the workloads `fresh` ran, so a partial grid
/// can go through the gate comparison.
#[must_use]
pub fn restrict(expected: &RunManifest, fresh: &RunManifest) -> RunManifest {
    let ran = |w: &str| fresh.cells.iter().any(|c| c.workload == w);
    let mut m = expected.clone();
    m.cells.retain(|c| ran(&c.workload));
    m.traces.retain(|t| ran(&t.workload));
    m
}

/// Checks an exact grid: every fresh cell must match its expected cell in
/// every simulated statistic, and the gate comparison must not fail it.
/// A gate failure naming a cell fails that cell; one naming a workload
/// fails its row; any other gate failure fails every cell.
#[must_use]
pub fn check_grid(fresh: &RunManifest, expected: &RunManifest, gate: &GateOutcome) -> Check {
    let global = gate.failures.iter().any(|f| {
        !fresh.cells.iter().any(|c| {
            f.starts_with(&format!("{}/", c.workload)) || f.starts_with(&format!("{}:", c.workload))
        })
    });
    let mut out = Check::default();
    for cell in &fresh.cells {
        let (w, c) = (&cell.workload, &cell.config);
        let named = gate
            .failures
            .iter()
            .find(|f| f.starts_with(&format!("{w}/{c}:")) || f.starts_with(&format!("{w}:")));
        let why = match expected.cell(w, c) {
            None => Some("not in the expected manifest".to_string()),
            Some(e) if simulated_fields(e) != simulated_fields(cell) => Some(format!(
                "simulated statistics differ (ipc {} expected {})",
                cell.ipc, e.ipc
            )),
            Some(_) => named
                .cloned()
                .or_else(|| global.then(|| format!("gate: {}", gate.failures.join("; ")))),
        };
        match why {
            Some(why) => out.fail(format!("{w}/{c}: {why}")),
            None => out.pass(),
        }
    }
    out
}

/// Relative IPC error of each sampled cell of `fresh` against `exact`.
#[must_use]
pub fn sample_errors(fresh: &RunManifest, exact: &RunManifest) -> Vec<f64> {
    fresh
        .cells
        .iter()
        .filter_map(|c| {
            let s = c.sampled?;
            let e = exact.cell(&c.workload, &c.config)?;
            Some((s.ipc_estimate - e.ipc).abs() / e.ipc)
        })
        .collect()
}

/// Checks a sampled grid: each cold-pass estimate must lie within
/// `max(3 × error bound, 2% × exact IPC)` of the exact IPC, the grid's
/// mean absolute error must stay within 2% (one more check), and the warm
/// pass must reproduce the cold pass byte for byte.
#[must_use]
pub fn check_sampled(cold: &RunManifest, warm: &RunManifest, exact: &RunManifest) -> Check {
    let mut out = Check::default();
    for cell in &cold.cells {
        let (w, c) = (&cell.workload, &cell.config);
        let twin = warm.cell(w, c);
        let why = match (cell.sampled, exact.cell(w, c)) {
            (None, _) => Some("ran exact, expected sampled".to_string()),
            (_, None) => Some("not in the exact manifest".to_string()),
            (Some(s), Some(e)) => {
                let err = (s.ipc_estimate - e.ipc).abs();
                let budget = (3.0 * s.error_bound).max(0.02 * e.ipc);
                if err > budget {
                    Some(format!(
                        "estimate {:.4} off exact {:.4} by more than {budget:.4}",
                        s.ipc_estimate, e.ipc
                    ))
                } else if twin.map(|t| t.to_json().to_string_compact())
                    != Some(cell.to_json().to_string_compact())
                {
                    Some("warm pass differs from the cold pass".to_string())
                } else {
                    None
                }
            }
        };
        match why {
            Some(why) => out.fail(format!("{w}/{c}: {why}")),
            None => out.pass(),
        }
    }
    let errs = sample_errors(cold, exact);
    let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    if errs.is_empty() || mean > 0.02 {
        out.fail(format!(
            "mean absolute IPC error {:.2}% exceeds 2%",
            100.0 * mean
        ));
    } else {
        out.pass();
    }
    out
}

/// Checks one job's result stream: the deterministic header, then exactly
/// one complete cell line for `(workload, config)`, then the end. When
/// `fresh_line` is given (a replay), the cell line must equal it byte for
/// byte. Returns the cell line.
///
/// # Errors
///
/// Describes the first defect found.
pub fn check_stream(
    body: &str,
    header: &str,
    workload: &str,
    config: &str,
    fresh_line: Option<&str>,
) -> Result<String, String> {
    let Some(rest) = body.strip_prefix(header).and_then(|r| r.strip_prefix('\n')) else {
        return Err("stream does not start with the job header".into());
    };
    let Some(line) = rest.strip_suffix('\n') else {
        return Err("stream ends inside a line".into());
    };
    if line.is_empty() || line.contains('\n') {
        return Err(format!(
            "expected one cell line, got {}",
            rest.lines().count()
        ));
    }
    let v = Json::parse(line).map_err(|e| format!("cell line is not JSON: {e:?}"))?;
    let got = (
        v.get("workload").and_then(Json::as_str),
        v.get("config").and_then(Json::as_str),
    );
    if got != (Some(workload), Some(config)) {
        return Err(format!("cell line is for {got:?}, not {workload}/{config}"));
    }
    if let Some(fresh) = fresh_line {
        if fresh != line {
            return Err("replayed line differs from the fresh line".into());
        }
    }
    Ok(line.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"schema\":1}";

    #[test]
    fn stream_checks_reject_truncation_and_drift() {
        let line = "{\"workload\":\"gzip\",\"config\":\"RR 256\",\"ipc\":1.5}";
        let body = format!("{HEADER}\n{line}\n");
        assert_eq!(
            check_stream(&body, HEADER, "gzip", "RR 256", None).as_deref(),
            Ok(line)
        );
        assert!(check_stream(&body, HEADER, "gzip", "RR 256", Some(line)).is_ok());
        // Truncated: header only, or cut inside the cell line.
        assert!(check_stream(&format!("{HEADER}\n"), HEADER, "gzip", "RR 256", None).is_err());
        assert!(check_stream(&body[..body.len() - 5], HEADER, "gzip", "RR 256", None).is_err());
        // A replay whose bytes differ from the fresh line.
        let drifted = line.replace("1.5", "1.6");
        assert!(check_stream(&body, HEADER, "gzip", "RR 256", Some(&drifted)).is_err());
        // The wrong cell.
        assert!(check_stream(&body, HEADER, "mcf", "RR 256", None).is_err());
    }
}
