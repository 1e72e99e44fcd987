//! The benchmark's workloads, each rendered as the sweep-plan text that
//! `sweep --plan` would read. The workload seed only picks the scenario
//! seeds (`axes.seeds.base`); everything else about a workload is fixed.

/// First scenario seed of the default window (the paper preset's base).
const BASE_SEED: u64 = 2023;
/// Number of distinct scenario windows. Workload seed `s` runs the
/// scenario seeds `BASE_SEED + s % SEED_WINDOWS ..`, so any two workload
/// seeds share all but at most `SEED_WINDOWS - 1` scenario seeds per cell:
/// a few Ψ-deadlocked potential-field episodes (each ~40 normal episodes
/// of work) would otherwise decide a run's time by which seed drew them.
const SEED_WINDOWS: u64 = 16;

/// Daemon pool capacity per host on the fleet workload.
const FLEET_CAPACITY: usize = 1;
/// Specs per lease on the fleet workload ("small leases").
pub const FLEET_CHUNK: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ψ-bound: 4 obstacles, filtered, potential-field + neural:0.
    ShieldDense,
    /// Setup-bound: many cells at 0/2 obstacles, few seeds each.
    SetupGrid,
    /// Dynamic φ: oncoming movers, bursty link, unfiltered, threads +
    /// async offload.
    DynamicUnfiltered,
    /// The setup-grid inputs over two loopback `seo-sweepd` daemons.
    FleetGrid,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ShieldDense,
        Workload::SetupGrid,
        Workload::DynamicUnfiltered,
        Workload::FleetGrid,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShieldDense => "shield-dense",
            Workload::SetupGrid => "setup-grid",
            Workload::DynamicUnfiltered => "dynamic-unfiltered",
            Workload::FleetGrid => "fleet-grid",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    /// Whether the workload runs over daemons (needs `--hosts`).
    pub fn is_fleet(self) -> bool {
        self == Workload::FleetGrid
    }

    /// The workload's grid axes (values JSON-encoded). `first` trims every
    /// axis to its first value and one seed: the one-episode sweep of the
    /// first cell that `setup_s` times.
    fn axes(self, seed: u64, first: bool) -> String {
        let (axes, runs): (&[(&str, &[&str])], usize) = match self {
            Workload::ShieldDense => (
                &[
                    ("obstacles", &["4"]),
                    ("tau_ms", &["20"]),
                    ("gating_levels", &["0.5"]),
                    ("control_modes", &["\"filtered\""]),
                    ("optimizers", &["\"offloading\""]),
                    ("controllers", &["\"potential-field\"", "\"neural:0\""]),
                    ("channels", &["\"clean\""]),
                    ("traffic", &["\"static\""]),
                ],
                100,
            ),
            Workload::SetupGrid | Workload::FleetGrid => (
                &[
                    ("obstacles", &["0", "2"]),
                    ("tau_ms", &["20", "25"]),
                    ("gating_levels", &["0.25", "0.5", "0.75"]),
                    ("control_modes", &["\"filtered\""]),
                    (
                        "optimizers",
                        &["\"offloading\"", "\"model-gating\"", "\"sensor-gating\""],
                    ),
                    ("controllers", &["\"neural:0\""]),
                    ("channels", &["\"clean\""]),
                    ("traffic", &["\"static\""]),
                ],
                2,
            ),
            Workload::DynamicUnfiltered => (
                &[
                    ("obstacles", &["2"]),
                    ("tau_ms", &["20"]),
                    ("gating_levels", &["0.5"]),
                    ("control_modes", &["\"unfiltered\""]),
                    ("optimizers", &["\"offloading\""]),
                    ("controllers", &["\"potential-field\""]),
                    ("channels", &["\"bursty\""]),
                    ("traffic", &["\"oncoming:3:6\""]),
                ],
                400,
            ),
        };
        let mut fields: Vec<String> = axes
            .iter()
            .map(|(axis, values)| {
                let values = if first { &values[..1] } else { values };
                format!("\"{axis}\": [{}]", values.join(", "))
            })
            .collect();
        fields.push(format!(
            "\"seeds\": {{\"base\": {}, \"runs\": {}}}",
            BASE_SEED + seed % SEED_WINDOWS,
            if first { 1 } else { runs }
        ));
        format!("{{{}}}", fields.join(", "))
    }

    /// The execution section. `serial` forces the reference serial engine
    /// (how the expected output is produced); `hosts` lists the daemon
    /// addresses of the fleet workload. A one-episode (`first`) plan runs on
    /// one thread: a plan may not have more workers than specs.
    fn exec(self, first: bool, serial: bool, hosts: &[String]) -> Result<String, String> {
        let (mode, offload) = match self {
            _ if serial => ("\"serial\"".to_owned(), "\"blocking\""),
            Workload::ShieldDense | Workload::SetupGrid => {
                ("\"serial\"".to_owned(), "\"blocking\"")
            }
            Workload::DynamicUnfiltered => {
                let threads = if first { 1 } else { 2 };
                (
                    format!("{{\"threads\": {threads}}}"),
                    "{\"async\": {\"in_flight\": 8}}",
                )
            }
            Workload::FleetGrid => {
                if hosts.is_empty() {
                    return Err("fleet-grid needs --hosts ADDR,ADDR".to_owned());
                }
                let pool: Vec<String> = hosts
                    .iter()
                    .map(|a| format!("{{\"addr\": \"{a}\", \"capacity\": {FLEET_CAPACITY}}}"))
                    .collect();
                (
                    format!(
                        "{{\"hosts\": {{\"v\": 1, \"hosts\": [{}], \"chunk\": {FLEET_CHUNK}}}}}",
                        pool.join(", ")
                    ),
                    "\"blocking\"",
                )
            }
        };
        Ok(format!(
            "{{\"mode\": {mode}, \"kernel\": \"scalar\", \"timeout_secs\": 30, \
             \"offload\": {offload}, \"verify\": false}}"
        ))
    }

    /// The full plan text: summary report mode, no results book.
    pub fn plan_text(
        self,
        seed: u64,
        first: bool,
        serial: bool,
        hosts: &[String],
    ) -> Result<String, String> {
        Ok(format!(
            "{{\"v\": 1, \"axes\": {}, \"exec\": {}, \
             \"report\": {{\"mode\": \"summary\", \"quantiles\": [0.5, 0.99]}}}}",
            self.axes(seed, first),
            self.exec(first, serial, hosts)?
        ))
    }
}
