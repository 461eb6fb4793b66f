//! Metric names, the printed report, and the result line.
//!
//! The two tables are the contract with `BENCHMARK.json`: an untraced
//! run reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], on every workload (the benchmark contract allows one
//! list for all workloads; see README.md). A reading for a name outside
//! the table or a second reading for a name panics, and a table entry
//! left unset fails the run, so the tables, the JSON file and the code
//! cannot drift apart silently.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// (name, unit). `throughput_per_s` counts plans, requests or flows;
/// `op_*_ms` times one plan, one request or one simulation.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// (name, unit); the prefix is the crate the time or count belongs to,
/// and with it the journey whose workloads drive it: `fibermap` to `core`
/// planning, `simnet` and `flowsim` simulation, `wire` to `control`
/// serving. A traced run measures its own journey's layers on the
/// workload's input; the other journeys' come from the reference probes
/// and are marked so.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fibermap.generate_metro_ms", "ms"),
    ("fibermap.place_dcs_ms", "ms"),
    ("fibermap.region_from_json_ms", "ms"),
    ("fibermap.region_json_bytes", "B"),
    ("netgraph.dijkstra_us", "us"),
    ("netgraph.hose_max_edge_load_us", "us"),
    ("netgraph.dinic_max_flow_us", "us"),
    ("netgraph.k_shortest_paths_us", "us"),
    ("netgraph.failure_scenarios", "count"),
    ("netgraph.failure_enum_ns_per_scenario", "ns"),
    ("planner.provision_ms", "ms"),
    ("planner.provision_par_ms", "ms"),
    ("planner.provision_par_speedup", "ratio"),
    ("planner.engine_sweep_ms", "ms"),
    ("planner.place_amplifiers_ms", "ms"),
    ("planner.place_cutthroughs_ms", "ms"),
    ("planner.residual_pairs_ms", "ms"),
    ("planner.validate_iris_ms", "ms"),
    ("planner.plan_eps_ms", "ms"),
    ("planner.hybrid_aggregate_ms", "ms"),
    ("planner.family_build_ms", "ms"),
    ("planner.provision_robust_ms", "ms"),
    ("planner.scenarios", "count"),
    ("planner.hose_maxflow_calls", "count"),
    ("planner.hose_memo_hit_ratio", "ratio"),
    ("planner.paircache_hit_ratio", "ratio"),
    ("planner.stage_sum_ratio", "ratio"),
    ("optics.evaluate_path_ns", "ns"),
    ("optics.paths_evaluated", "count"),
    ("cost.price_us", "us"),
    ("core.design_study_ms", "ms"),
    ("simnet.from_provisioning_ms", "ms"),
    ("simnet.trace_gen_s", "s"),
    ("simnet.trace_flows", "count"),
    ("simnet.trace_ns_per_flow", "ns"),
    ("simnet.replay_s", "s"),
    ("simnet.replay_ns_per_flow", "ns"),
    ("simnet.max_min_rates_us", "us"),
    ("simnet.events", "count"),
    ("simnet.waterfill_rounds", "count"),
    ("flowsim.decompose_s", "s"),
    ("flowsim.cluster_s", "s"),
    ("flowsim.link_sim_s", "s"),
    ("flowsim.member_estimate_s", "s"),
    ("flowsim.combine_s", "s"),
    ("flowsim.links_occupied", "count"),
    ("flowsim.links_simulated", "count"),
    ("flowsim.ns_per_flow", "ns"),
    ("flowsim.scale_ratio", "ratio"),
    ("flowsim.stage_sum_ratio", "ratio"),
    ("wire.append_frame_ns", "ns"),
    ("wire.parse_frame_ns", "ns"),
    ("service.encode_request_ns", "ns"),
    ("service.decode_response_ns", "ns"),
    ("service.client_write_syscall_ns", "ns"),
    ("service.client_read_syscall_ns", "ns"),
    ("service.server_wait_us", "us"),
    ("service.request_bytes_per_req", "B"),
    ("service.reply_bytes_per_req", "B"),
    ("service.decode_request_ns", "ns"),
    ("service.encode_response_ns", "ns"),
    ("service.encode_response_json_ns", "ns"),
    ("service.apply_batch_us", "us"),
    ("service.wal_append_us", "us"),
    ("service.wal_fsync_us", "us"),
    ("service.wal_bytes_per_batch", "B"),
    ("service.wal_compact_ms", "ms"),
    ("service.read_log_ms", "ms"),
    ("service.recover_ms", "ms"),
    ("service.state_crc_us", "us"),
    ("service.serve_boot_ms", "ms"),
    ("service.writes_per_batch", "ratio"),
    ("service.fsyncs", "count"),
    ("service.fsyncs_saved", "count"),
    ("service.coalesced_ratio", "ratio"),
    ("service.overloaded", "count"),
    ("service.retries", "count"),
    ("service.batch_queue_wait_us", "us"),
    ("service.batch_apply_us", "us"),
    ("service.batch_wal_append_us", "us"),
    ("service.batch_wal_fsync_us", "us"),
    ("service.batch_publish_us", "us"),
    ("service.write_unexplained_us", "us"),
    ("service.read_p50_us", "us"),
    ("service.read_p99_us", "us"),
    ("service.write_p50_us", "us"),
    ("service.write_p99_us", "us"),
    ("control.reconfigure_wall_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.gen_lag_p99_us", "us"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub spread: f64,
    pub note: String,
    /// From a reference probe, not from the workload.
    pub reference: bool,
}

/// The readings of one run against one of the two tables.
#[derive(Debug)]
pub struct Report {
    table: &'static [(&'static str, &'static str)],
    readings: BTreeMap<&'static str, Reading>,
    /// Whether readings recorded now come from a reference probe.
    pub reference: bool,
}

impl Report {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            readings: BTreeMap::new(),
            reference: false,
        }
    }

    /// Record the reading of `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table or already has a reading:
    /// every metric has exactly one source in a run.
    pub fn set_summary(&mut self, name: &str, s: Summary, note: &str) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        let reading = Reading {
            value: s.value,
            unit,
            samples: s.samples,
            spread: s.spread,
            note: note.to_owned(),
            reference: self.reference,
        };
        assert!(
            self.readings.insert(name, reading).is_none(),
            "metric {name} has two sources"
        );
    }

    /// A single reading (no blocks behind it).
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_summary(
            name,
            Summary {
                value,
                spread: 0.0,
                samples: 1,
            },
            "",
        );
    }

    /// Single readings by name.
    pub fn extend(&mut self, readings: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in readings {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.readings.get(name).map(|r| r.value)
    }

    /// Table entries without a usable reading (unset or not finite).
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !self.readings.get(n).is_some_and(|r| r.value.is_finite()))
            .collect()
    }

    /// One `metric` line per reading, in table order.
    pub fn lines(&self) -> Vec<String> {
        self.table
            .iter()
            .filter_map(|(n, _)| self.readings.get(n).map(|r| (n, r)))
            .map(|(n, r)| {
                let mut line = format!(
                    "metric {n} {} {} n={} spread={:.4}",
                    r.value, r.unit, r.samples, r.spread
                );
                if !r.note.is_empty() {
                    line.push(' ');
                    line.push_str(&r.note);
                }
                if r.reference {
                    line.push_str(" reference-probe");
                }
                line
            })
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, with every value printed with all its digits.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .table
            .iter()
            .filter_map(|(n, _)| self.readings.get(n).map(|r| (n, r)))
            .map(|(n, r)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.value, r.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(table: &'static [(&'static str, &'static str)]) -> Report {
        let mut r = Report::new(table);
        for (i, (name, _)) in table.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r
    }

    /// Parse a `metric` line back into (name, value, unit).
    fn parse_line(line: &str) -> (String, f64, String) {
        let mut it = line.split_whitespace();
        assert_eq!(it.next(), Some("metric"));
        let name = it.next().unwrap().to_owned();
        let value = it.next().unwrap().parse().unwrap();
        let unit = it.next().unwrap().to_owned();
        assert!(it.next().unwrap().starts_with("n="));
        assert!(it.next().unwrap().starts_with("spread="));
        (name, value, unit)
    }

    #[test]
    fn printed_report_parses_and_names_every_metric() {
        for table in [END_TO_END, PER_LAYER] {
            let report = filled(table);
            assert!(report.missing().is_empty());
            let parsed: Vec<_> = report.lines().iter().map(|l| parse_line(l)).collect();
            assert_eq!(parsed.len(), table.len());
            for ((name, unit), (pn, pv, pu)) in table.iter().zip(&parsed) {
                assert_eq!((name, unit), (&pn.as_str(), &pu.as_str()));
                assert_eq!(report.get(name), Some(*pv));
            }
            let line = report.result_line(true, 10, 0);
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"
            ));
            for (name, _) in table {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
            }
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// The (name, unit) entries of one array of `BENCHMARK.json`.
    fn listed(text: &str, key: &str) -> Vec<(String, String)> {
        let from = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[from..from + text[from..].find(']').expect("array closes")];
        let field = |entry: &str, name: &str| {
            let at = entry.find(&format!("\"{name}\"")).expect("field present");
            entry[at..]
                .split('"')
                .nth(3)
                .expect("string value")
                .to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        // Present in the repository, absent when only the package is copied.
        let Some(text) = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find_map(|d| std::fs::read_to_string(d.join("BENCHMARK.json")).ok())
        else {
            return;
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut want: Vec<_> = table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            let mut got = listed(&text, key);
            want.sort();
            got.sort();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn unset_and_non_finite_readings_are_missing() {
        let mut r = Report::new(END_TO_END);
        r.set("setup_s", 0.5);
        r.set("op_p50_ms", f64::NAN);
        let missing = r.missing();
        assert!(missing.contains(&"op_p50_ms") && missing.contains(&"peak_rss_mb"));
        assert!(!missing.contains(&"setup_s"));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_names_are_rejected() {
        Report::new(END_TO_END).set("latency", 1.0);
    }

    #[test]
    #[should_panic(expected = "two sources")]
    fn a_second_reading_for_a_name_is_rejected() {
        let mut r = Report::new(END_TO_END);
        r.set("setup_s", 1.0);
        r.set("setup_s", 2.0);
    }

    #[test]
    fn reference_probe_readings_are_marked() {
        let mut r = Report::new(PER_LAYER);
        r.set("wire.parse_frame_ns", 40.0);
        r.reference = true;
        r.set("planner.provision_ms", 0.5);
        let lines = r.lines();
        assert!(lines[0].starts_with("metric planner.provision_ms 0.5 ms"));
        assert!(lines[0].ends_with(" reference-probe"));
        assert!(lines[1].ends_with("spread=0.0000"));
    }
}
