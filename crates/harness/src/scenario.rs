//! Scenarios: one experiment point as data, plus its execution result.

use mind_service::ServiceReport;
use mind_workloads::runner::{self, RunConfig, RunReport};

use crate::spec::{ServiceSpec, SystemSpec, WorkloadSpec};

/// A replay scenario's data: what to build and how to run it.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// System under test.
    pub system: SystemSpec,
    /// Workload to replay.
    pub workload: WorkloadSpec,
    /// Runner parameters — including `batch_ops`, the turn size
    /// (`RunConfig::with_batch_ops`); scenario tables sweep it like any
    /// other run parameter.
    pub run: RunConfig,
}

/// What a scenario does when an engine worker executes it.
pub enum ScenarioKind {
    /// The common case: replay a workload against a system with the trace
    /// runner. Everything is data — the worker builds system and workload
    /// from their specs, so execution is identical regardless of which
    /// thread runs it or when.
    Replay(Box<ReplaySpec>),
    /// A multi-tenant serving run (`mind_service`): the worker builds the
    /// whole service (rack included) from the spec and runs its
    /// deterministic event loop.
    Service(Box<ServiceSpec>),
    /// An arbitrary deterministic experiment (e.g. Figure 7's orchestrated
    /// MSI transitions, Figure 8's rule counting) — must be a pure function
    /// of its captured configuration for the engine's determinism guarantee
    /// to hold.
    Custom(Box<dyn Fn() -> ScenarioOutput + Send>),
}

/// One experiment point: a name carrying the sweep parameters, and what to
/// run. A `Vec<Scenario>` is a scenario table — the declarative unit the
/// [`crate::engine::Engine`] executes.
pub struct Scenario {
    /// Unique name within its suite, e.g. `fig5_intra/TF/MIND/t4`.
    pub name: String,
    /// What to execute.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// A trace-replay scenario.
    pub fn replay(
        name: impl Into<String>,
        system: SystemSpec,
        workload: WorkloadSpec,
        run: RunConfig,
    ) -> Self {
        Scenario {
            name: name.into(),
            kind: ScenarioKind::Replay(Box::new(ReplaySpec {
                system,
                workload,
                run,
            })),
        }
    }

    /// A multi-tenant serving scenario.
    pub fn service(name: impl Into<String>, spec: ServiceSpec) -> Self {
        Scenario {
            name: name.into(),
            kind: ScenarioKind::Service(Box::new(spec)),
        }
    }

    /// A custom deterministic scenario.
    pub fn custom(name: impl Into<String>, f: impl Fn() -> ScenarioOutput + Send + 'static) -> Self {
        Scenario {
            name: name.into(),
            kind: ScenarioKind::Custom(Box::new(f)),
        }
    }

    /// Executes this scenario (on whatever thread the engine chose).
    pub fn execute(&self) -> ScenarioResult {
        let output = match &self.kind {
            ScenarioKind::Replay(spec) => {
                // The run's pinned trace mode (if any) overrides the
                // system's, so one `RunConfig` knob drives both the
                // windowed telemetry and the system's event trace.
                let mut sys = spec.system.with_trace(spec.run.trace).build();
                let mut wl = spec.workload.build();
                ScenarioOutput::from_report(runner::run(sys.as_mut(), wl.as_mut(), spec.run))
            }
            ScenarioKind::Service(spec) => ScenarioOutput::from_service(spec.run()),
            ScenarioKind::Custom(f) => f(),
        };
        ScenarioResult {
            name: self.name.clone(),
            output,
        }
    }
}

/// What executing a scenario produced. Replay scenarios carry the full
/// [`RunReport`]; custom scenarios fill `values` (and optionally `series`)
/// with whatever they measured.
#[derive(Debug, Default)]
pub struct ScenarioOutput {
    /// Full replay report, when the scenario ran the trace runner.
    pub report: Option<RunReport>,
    /// Full service report, when the scenario ran a multi-tenant service.
    pub service: Option<ServiceReport>,
    /// Named scalar results, in insertion order (serialized as-is).
    pub values: Vec<(String, f64)>,
    /// Named `(x, y)` series, e.g. directory entries over time.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
}

impl ScenarioOutput {
    /// Output wrapping a replay report.
    pub fn from_report(report: RunReport) -> Self {
        ScenarioOutput {
            report: Some(report),
            ..Default::default()
        }
    }

    /// Output wrapping a service report.
    pub fn from_service(report: ServiceReport) -> Self {
        ScenarioOutput {
            service: Some(report),
            ..Default::default()
        }
    }

    /// Adds a named scalar (builder-style).
    pub fn value(mut self, key: impl Into<String>, v: f64) -> Self {
        self.values.push((key.into(), v));
        self
    }

    /// Adds a named series (builder-style).
    pub fn with_series(mut self, key: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        self.series.push((key.into(), points));
        self
    }
}

/// A scenario's result, tagged with its name. The engine returns results in
/// scenario-table order regardless of execution interleaving.
#[derive(Debug)]
pub struct ScenarioResult {
    /// The scenario's name.
    pub name: String,
    /// What it produced.
    pub output: ScenarioOutput,
}

impl ScenarioResult {
    /// The replay report.
    ///
    /// # Panics
    ///
    /// Panics if this was a custom scenario without one.
    pub fn report(&self) -> &RunReport {
        self.output
            .report
            .as_ref()
            .unwrap_or_else(|| panic!("scenario {} has no replay report", self.name))
    }

    /// The service report.
    ///
    /// # Panics
    ///
    /// Panics if this was not a service scenario.
    pub fn service(&self) -> &ServiceReport {
        self.output
            .service
            .as_ref()
            .unwrap_or_else(|| panic!("scenario {} has no service report", self.name))
    }

    /// A named scalar produced by a custom scenario.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent.
    pub fn value(&self, key: &str) -> f64 {
        self.output
            .values
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("scenario {} has no value {key}", self.name))
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_core::system::ConsistencyModel;
    use mind_workloads::micro::MicroConfig;

    fn tiny_replay() -> Scenario {
        let wl = WorkloadSpec::Micro(MicroConfig {
            n_threads: 2,
            shared_pages: 64,
            private_pages: 8,
            ..Default::default()
        });
        let regions = wl.regions();
        Scenario::replay(
            "tiny",
            SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Tso),
            wl,
            RunConfig {
                ops_per_thread: 200,
                ..Default::default()
            },
        )
    }

    #[test]
    fn replay_scenario_produces_report() {
        let result = tiny_replay().execute();
        assert_eq!(result.name, "tiny");
        let report = result.report();
        assert_eq!(report.total_ops, 400);
        assert!(report.name.starts_with("micro("), "parameterized name");
    }

    #[test]
    fn service_scenario_produces_service_report() {
        let spec = ServiceSpec::new(mind_service::ServiceConfig {
            duration: mind_sim::SimTime::from_millis(10),
            ..Default::default()
        });
        let result = Scenario::service("svc", spec).execute();
        assert_eq!(result.name, "svc");
        let report = result.service();
        assert!(report.tenants_admitted > 0);
        assert!(result.output.report.is_none(), "not a replay");
    }

    #[test]
    fn custom_scenario_produces_values() {
        let s = Scenario::custom("c", || {
            ScenarioOutput::default()
                .value("x", 2.5)
                .with_series("ts", vec![(0.0, 1.0), (1.0, 2.0)])
        });
        let r = s.execute();
        assert_eq!(r.value("x"), 2.5);
        assert_eq!(r.output.series[0].1.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no value")]
    fn missing_value_panics() {
        let r = Scenario::custom("c", ScenarioOutput::default).execute();
        r.value("absent");
    }
}
