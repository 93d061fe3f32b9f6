//! Every metric the benchmark reports, by name, with its unit and which
//! direction is better. `BENCHMARK.json` at the repo root lists the same
//! names; a unit test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before it counts as a regression. Set from the run-to-run spread
    /// measured over ten seeds (see README.md): three times the widest
    /// spread of any workload, capped at the 25 % a bound may be. The two host
    /// time metrics sit at that cap and are noisier than a third of it.
    pub bound: f64,
}

/// What a user of the simulator sees, measured with tracing off.
///
/// `host_kops`, `setup_s`, `peak_rss_mb` and `allocs_per_kop` are host
/// quantities (the simulator's own cost); `sim_mops` is a simulated
/// quantity (the modelled rack's throughput), exact for a seed.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "host_kops",
        unit: "kops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "allocs_per_kop",
        unit: "allocs/kop",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_mops",
        unit: "Mops/s",
        better: Better::Higher,
        bound: 0.1,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Single-layer metrics, measured in the traced run only. Names are
/// `<crate without mind_>.<metric>`. Three kinds: host probes (`_ns`,
/// `_us`, `_ms`, `_s`, `_pct`, `_speedup`: a layer's public function timed
/// in isolation over the workload's own stream), simulated counts (exact
/// for a seed), and the two totals the attribution is checked against.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 63] = [
    // Host probes.
    layer("workloads.fill_ops_ns", "ns", Lower),
    layer("workloads.run_ns_per_op", "ns", Lower),
    layer("workloads.shard_build_s", "s", Lower),
    layer("workloads.shard_advance_s", "s", Lower),
    layer("workloads.shard_merge_s", "s", Lower),
    layer("workloads.shard_lanes2_speedup", "x", Higher),
    layer("workloads.unattributed_pct", "%", Lower),
    layer("core.cluster_new_us", "us", Lower),
    layer("core.tenant_admit_us", "us", Lower),
    layer("core.tenant_exit_us", "us", Lower),
    layer("core.execute_batch_ns", "ns", Lower),
    layer("core.access_ns", "ns", Lower),
    layer("core.protect_check_ns", "ns", Lower),
    layer("core.translate_ns", "ns", Lower),
    layer("core.directory_ensure_ns", "ns", Lower),
    layer("core.split_epoch_us", "us", Lower),
    layer("switch.tcam_lookup_ns", "ns", Lower),
    layer("switch.tcam_insert_remove_ns", "ns", Lower),
    layer("blade.cache_hit_ns", "ns", Lower),
    layer("blade.cache_miss_insert_ns", "ns", Lower),
    layer("blade.cache_invalidate_region_ns", "ns", Lower),
    layer("net.fabric_send_ns", "ns", Lower),
    layer("net.fabric_multicast_ns", "ns", Lower),
    layer("sim.event_queue_ns", "ns", Lower),
    layer("sim.histogram_record_ns", "ns", Lower),
    layer("sim.rng_zipf_ns", "ns", Lower),
    layer("service.admit_us", "us", Lower),
    layer("service.submit_dispatch_ns", "ns", Lower),
    layer("service.run_ns_per_req", "ns", Lower),
    layer("harness.suite_json_ms", "ms", Lower),
    layer("harness.engine_overhead_pct", "%", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    // Simulated counts.
    layer("workloads.sim_p99_ns", "ns", Lower),
    layer("core.remote_per_op", "1/op", Lower),
    layer("core.upgrades_per_op", "1/op", Lower),
    layer("core.invalidations_per_op", "1/op", Lower),
    layer("core.false_invalidations_per_op", "1/op", Lower),
    layer("core.bypasses_per_op", "1/op", Higher),
    layer("core.directory_splits", "count", Lower),
    layer("core.directory_merges", "count", Lower),
    layer("core.forced_merges", "count", Lower),
    layer("core.window_stall_ns_per_op", "ns/op", Lower),
    layer("core.nic_stall_ns_per_op", "ns/op", Lower),
    layer("core.overlapped_share", "share", Higher),
    layer("switch.tcam_miss_per_op", "1/op", Lower),
    layer("switch.recirculations_per_op", "1/op", Lower),
    layer("switch.rules", "count", Lower),
    layer("blade.hit_ratio", "share", Higher),
    layer("blade.evictions_per_op", "1/op", Lower),
    layer("blade.flushed_per_op", "1/op", Lower),
    layer("blade.tlb_shootdowns_per_op", "1/op", Lower),
    layer("blade.inv_queue_ns_per_op", "ns/op", Lower),
    layer("net.network_ns_per_op", "ns/op", Lower),
    layer("net.retransmissions", "count", Lower),
    layer("net.multicast_pruned_per_op", "1/op", Higher),
    layer("service.reject_share", "share", Lower),
    layer("service.tenants_admitted", "count", Higher),
    layer("service.peak_live_tenants", "count", Higher),
    layer("service.be_p99_ns", "ns", Lower),
    layer("service.gold_p99_ns.load050", "ns", Lower),
    layer("service.gold_p99_ns.load100", "ns", Lower),
    layer("obs.trace_events_per_op", "1/op", Lower),
    layer("obs.trace_events_dropped", "count", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .unwrap()
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = workloads::NAMES.to_vec();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
    }

    #[test]
    fn manifest_lists_exactly_the_workloads_in_code() {
        let doc = manifest();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let why = field(w, "why");
                assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
                field(w, "name")
            })
            .collect();
        assert_eq!(listed, workloads::NAMES);
    }

    #[test]
    fn manifest_lists_exactly_the_end_to_end_metrics_in_code() {
        let doc = manifest();
        let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn interactions_name_only_what_the_benchmark_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/interactions.json");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.trim_end().ends_with("\"claim\": null\n}"),
            "the summary ends with the claim"
        );
        let doc = Json::parse(&text).unwrap();
        let names = |row: &Json, key: &str| -> Vec<String> {
            row.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("missing {key}"))
                .iter()
                .map(|n| n.as_str().unwrap().to_string())
                .collect()
        };
        let rows = doc.get("interactions").and_then(Json::as_arr).unwrap();
        assert!(!rows.is_empty());
        for row in rows {
            for n in names(row, "layer_metrics") {
                assert!(PER_LAYER.iter().any(|m| m.name == n), "{n}");
            }
            for n in names(row, "should_move") {
                assert!(end_to_end(&n).is_some(), "{n}");
            }
            for n in names(row, "on")
                .into_iter()
                .chain(names(row, "should_not_move_on"))
            {
                assert!(workloads::NAMES.contains(&n.as_str()), "{n}");
            }
        }
    }

    #[test]
    fn manifest_lists_exactly_the_per_layer_metrics_in_code() {
        let doc = manifest();
        let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
        }
    }
}
