//! The four sign-off workloads: which design, which campaign or proof,
//! and what a correct run must report.

use std::path::{Path, PathBuf};

use mmaes_circuits::{build_kronecker, build_masked_sbox, SboxOptions};
use mmaes_exact::{ExactConfig, ExactReport, ExactVerifier, ProbeVerdict};
use mmaes_leakage::{
    enumerate_probe_sets, Durability, EvaluationConfig, FixedVsRandom, LeakageReport, ProbeModel,
    ProbeSet, ProbeTable, SecretDomain,
};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::{Netlist, StableCones, WireId};
use mmaes_telemetry::Observer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["sbox-eq6", "order2-recon", "sbox-eq9-trans", "g7-eq9-proof"];

/// One workload: the design, how it is evaluated, and the counts a
/// correct run must reproduce.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    design: DesignKind,
    /// Probing order, scope and cap the user enumerates with (the same
    /// arguments the campaign or verifier enumerates with internally).
    order: usize,
    scope: Option<&'static str>,
    max_sets: usize,
    /// `None` for the exhaustive proof.
    campaign: Option<CampaignSpec>,
    pub expect: Expect,
}

#[derive(Debug, Clone, Copy)]
enum DesignKind {
    /// The full masked S-box (Kronecker stage included).
    Sbox(fn() -> KroneckerRandomness),
    /// The standalone Kronecker delta core.
    Kronecker(fn() -> KroneckerRandomness),
}

#[derive(Debug, Clone, Copy)]
struct CampaignSpec {
    model: ProbeModel,
    traces: u64,
    warmup_cycles: usize,
    checkpoints: u64,
    snapshot: bool,
}

/// Seed-independent counts every run must reproduce exactly, and the
/// verdict it must reach.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub verdict: Verdict,
    pub probe_sets: u64,
    pub cell_evals: u64,
    pub keys: u64,
    /// Resident table bytes when every table is dense; `None` when some
    /// are hashed, whose size follows the keys a seed happens to draw.
    pub table_bytes: Option<u64>,
    pub dense_tables: u64,
    pub hashed_tables: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The campaign fails; some flagged set's label contains the text
    /// (any set, when it is empty).
    FailIn(&'static str),
    /// The campaign passes.
    Pass,
    /// The proof: this many sets proven secure, none leaky or too wide.
    ProvenSecure(usize),
}

pub fn workload(name: &str) -> Option<Workload> {
    let sbox_campaign = |model, traces, checkpoints, snapshot| CampaignSpec {
        model,
        traces,
        warmup_cycles: 8,
        checkpoints,
        snapshot,
    };
    let workload = match name {
        // E2: full S-box, Eq. 6, first-order glitch model, fixed 0.
        "sbox-eq6" => Workload {
            name: "sbox-eq6",
            design: DesignKind::Sbox(KroneckerRandomness::de_meyer_eq6),
            order: 1,
            scope: None,
            max_sets: EvaluationConfig::default().max_probe_sets,
            campaign: Some(sbox_campaign(ProbeModel::Glitch, 128_000, 8, false)),
            expect: Expect {
                verdict: Verdict::FailIn("kronecker/G7"),
                probe_sets: 707,
                cell_evals: 16_470_000,
                keys: 90_496_000,
                table_bytes: Some(35_884_144),
                dense_tables: 707,
                hashed_tables: 0,
            },
        },
        // E8: second-order Kronecker core, 13-bit reconstruction, glitch
        // model, E8's 3,000-set cap.
        "order2-recon" => Workload {
            name: "order2-recon",
            design: DesignKind::Kronecker(KroneckerRandomness::de_meyer_13_reconstruction),
            order: 2,
            scope: None,
            max_sets: 3_000,
            campaign: Some(CampaignSpec {
                model: ProbeModel::Glitch,
                traces: 100_000,
                warmup_cycles: 6,
                checkpoints: 8,
                snapshot: false,
            }),
            expect: Expect {
                verdict: Verdict::Pass,
                probe_sets: 3_000,
                cell_evals: 1_695_855,
                keys: 300_096_000,
                table_bytes: Some(3_471_520),
                dense_tables: 3_000,
                hashed_tables: 0,
            },
        },
        // Full S-box, Eq. 9, glitch+transition, snapshot at every
        // checkpoint: the only workload with hashed (wide-key) tables.
        "sbox-eq9-trans" => Workload {
            name: "sbox-eq9-trans",
            design: DesignKind::Sbox(KroneckerRandomness::proposed_eq9),
            order: 1,
            scope: None,
            max_sets: EvaluationConfig::default().max_probe_sets,
            campaign: Some(sbox_campaign(ProbeModel::GlitchTransition, 12_800, 4, true)),
            expect: Expect {
                verdict: Verdict::FailIn(""),
                probe_sets: 705,
                cell_evals: 1_645_200,
                keys: 9_024_000,
                table_bytes: None,
                dense_tables: 670,
                hashed_tables: 35,
            },
        },
        // Exhaustive proof of the Eq. 9 Kronecker core's G7 slice.
        "g7-eq9-proof" => Workload {
            name: "g7-eq9-proof",
            design: DesignKind::Kronecker(KroneckerRandomness::proposed_eq9),
            order: 1,
            scope: Some(PROOF_SCOPE),
            max_sets: ExactConfig::default().max_probe_sets,
            campaign: None,
            expect: Expect {
                verdict: Verdict::ProvenSecure(12),
                probe_sets: 12,
                cell_evals: 264_241_152,
                keys: 44_040_192,
                table_bytes: Some(0),
                dense_tables: 0,
                hashed_tables: 0,
            },
        },
        _ => return None,
    };
    Some(workload)
}

const PROOF_SCOPE: &str = "kronecker/G7";

/// A built design: its netlist plus the non-zero mask bus the S-box
/// environment must drive.
pub struct Design {
    pub netlist: Netlist,
    pub nonzero_bus: Option<Vec<WireId>>,
}

impl Workload {
    pub fn is_campaign(&self) -> bool {
        self.campaign.is_some()
    }

    /// Traces one verdict simulates (0 for the proof).
    pub fn traces(&self) -> u64 {
        self.campaign.map_or(0, |spec| spec.traces)
    }

    /// Simulated cycles per 64-trace batch (0 for the proof).
    pub fn cycles_per_batch(&self) -> u64 {
        self.campaign
            .map_or(0, |spec| spec.warmup_cycles as u64 + 1)
    }

    pub fn has_snapshot(&self) -> bool {
        self.campaign.is_some_and(|spec| spec.snapshot)
    }

    /// Design generation (the generator's builder validates as it
    /// builds).
    pub fn build(&self) -> Design {
        match self.design {
            DesignKind::Sbox(schedule) => {
                let circuit = build_masked_sbox(SboxOptions {
                    schedule: schedule(),
                    ..SboxOptions::default()
                })
                .expect("the S-box generator emits valid netlists");
                Design {
                    netlist: circuit.netlist,
                    nonzero_bus: Some(circuit.r_bus),
                }
            }
            DesignKind::Kronecker(schedule) => Design {
                netlist: build_kronecker(&schedule())
                    .expect("the Kronecker generator emits valid netlists")
                    .netlist,
                nonzero_bus: None,
            },
        }
    }

    /// The probing sets the user (and the run) evaluates.
    pub fn enumerate(&self, netlist: &Netlist) -> Vec<ProbeSet> {
        let cones = StableCones::new(netlist);
        enumerate_probe_sets(netlist, &cones, self.order, self.scope, self.max_sets)
    }

    /// The campaign configuration for `seed` (single thread, default
    /// dense store and G-test, as the paper's experiments run).
    fn config(&self, spec: CampaignSpec, seed: u64, snapshot: Option<&Path>) -> EvaluationConfig {
        EvaluationConfig {
            model: spec.model,
            order: self.order,
            traces: spec.traces,
            fixed_secret: 0,
            secret_domain: SecretDomain::Uniform,
            warmup_cycles: spec.warmup_cycles,
            seed,
            max_probe_sets: self.max_sets,
            checkpoints: spec.checkpoints,
            threads: 1,
            durability: Durability {
                snapshot_path: snapshot.map(Path::to_path_buf),
                ..Durability::default()
            },
            ..EvaluationConfig::default()
        }
    }

    fn exact_config(&self) -> ExactConfig {
        ExactConfig {
            observe_cycle: 5,
            max_support_bits: 24,
            probe_scope_filter: self.scope.map(str::to_owned),
            ..ExactConfig::default()
        }
    }

    /// One verdict: the campaign or the proof, with `observer` attached.
    pub fn run(
        &self,
        design: &Design,
        seed: u64,
        snapshot: Option<&Path>,
        observer: &Observer,
    ) -> Result<RunOutput, String> {
        match self.campaign {
            Some(spec) => {
                let mut campaign =
                    FixedVsRandom::new(&design.netlist, self.config(spec, seed, snapshot))
                        .with_observer(observer.clone());
                if let Some(bus) = &design.nonzero_bus {
                    campaign = campaign.require_nonzero_bus(bus.clone());
                }
                let (report, tables) = campaign
                    .try_run_with_tables()
                    .map_err(|error| format!("campaign error: {error}"))?;
                Ok(RunOutput::Campaign(report, tables))
            }
            None => Ok(RunOutput::Proof(
                ExactVerifier::with_config(&design.netlist, self.exact_config())
                    .with_observer(observer.clone())
                    .verify_all(),
            )),
        }
    }

    /// Probing sets the default dense store direct-indexes (the rest
    /// fall back to hashed tables).
    pub fn dense_tables(&self, sets: &[ProbeSet]) -> u64 {
        let Some(spec) = self.campaign else {
            return 0;
        };
        let cap = EvaluationConfig::default().max_table_keys;
        sets.iter()
            .filter(|set| set.dense_index_width(spec.model, cap).is_some())
            .count() as u64
    }

    /// Checks a verdict's counts against the seed-independent ones.
    pub fn check_counts(&self, counts: &Counts) -> Result<(), String> {
        let expect = &self.expect;
        let mut wrong = Vec::new();
        let mut compare = |what: &str, got: u64, want: u64| {
            if got != want {
                wrong.push(format!("{what} {got} (expected {want})"));
            }
        };
        compare("probe sets", counts.probe_sets, expect.probe_sets);
        compare("cell evals", counts.cell_evals, expect.cell_evals);
        compare("keys", counts.keys, expect.keys);
        if let Some(bytes) = expect.table_bytes {
            compare("table bytes", counts.table_bytes, bytes);
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!("wrong counts: {}", wrong.join(", ")))
        }
    }

    /// Where the snapshot workload writes its campaign state: inside
    /// the checkout, removed when the run ends.
    pub fn snapshot_path(&self, dir: &Path) -> Option<PathBuf> {
        self.has_snapshot()
            .then(|| dir.join(format!("{}-{}.snapshot", self.name, std::process::id())))
    }
}

/// What one verdict returned.
pub enum RunOutput {
    Campaign(LeakageReport, Vec<ProbeTable>),
    Proof(ExactReport),
}

/// The counts of one verdict. Within a run (one seed) every repetition
/// must reproduce them bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub probe_sets: u64,
    pub cell_evals: u64,
    /// Observations tabulated (campaigns) or assignments enumerated
    /// (proof).
    pub keys: u64,
    pub table_bytes: u64,
    /// Columns the statistic sweeps (key-sorted cells plus overflow).
    pub columns: u64,
    /// Bit pattern of the worst `-log10(p)` (0 for the proof).
    pub max_mlog10p_bits: u64,
}

impl Counts {
    pub fn max_mlog10p(&self) -> f64 {
        f64::from_bits(self.max_mlog10p_bits)
    }
}

impl RunOutput {
    pub fn counts(&self) -> Counts {
        match self {
            RunOutput::Campaign(report, tables) => Counts {
                probe_sets: report.probe_set_count() as u64,
                cell_evals: report.cell_evals,
                keys: tables.iter().map(|table| table.samples).sum(),
                table_bytes: report.table_bytes,
                columns: tables
                    .iter()
                    .map(|table| table.g_columns().len() as u64)
                    .sum(),
                max_mlog10p_bits: report
                    .worst()
                    .map_or(0.0, |result| result.minus_log10_p)
                    .to_bits(),
            },
            RunOutput::Proof(report) => {
                let enumerated = report
                    .verdicts
                    .iter()
                    .map(|(_, verdict)| match verdict {
                        ProbeVerdict::Secure { enumerated, .. } => *enumerated,
                        _ => 0,
                    })
                    .sum();
                Counts {
                    probe_sets: report.verdicts.len() as u64,
                    cell_evals: report.cell_evals,
                    keys: enumerated,
                    table_bytes: 0,
                    columns: 0,
                    max_mlog10p_bits: 0,
                }
            }
        }
    }

    /// Checks the verdict against the workload's expectation.
    pub fn check_verdict(&self, expect: Verdict) -> Result<(), String> {
        match (self, expect) {
            (RunOutput::Campaign(report, _), Verdict::FailIn(scope)) => {
                let flagged_in_scope = report
                    .leaking()
                    .iter()
                    .any(|result| result.label.contains(scope));
                if report.passed() || !flagged_in_scope {
                    let place = if scope.is_empty() {
                        String::new()
                    } else {
                        format!(" with a flagged set in `{scope}`")
                    };
                    return Err(format!("expected FAIL{place}, got: {}", report.verdict()));
                }
                Ok(())
            }
            (RunOutput::Campaign(report, _), Verdict::Pass) => {
                if !report.passed() {
                    return Err(format!("expected PASS, got: {}", report.verdict()));
                }
                Ok(())
            }
            (RunOutput::Proof(report), Verdict::ProvenSecure(sets)) => {
                let (secure, leaky, too_wide) = (
                    report.secure_count(),
                    report.leaks().len(),
                    report.too_wide().len(),
                );
                if (secure, leaky, too_wide) != (sets, 0, 0) {
                    return Err(format!(
                        "expected {sets} secure / 0 leaky / 0 too wide, \
                         got {secure} / {leaky} / {too_wide}"
                    ));
                }
                Ok(())
            }
            _ => Err("run output does not match the workload kind".to_owned()),
        }
    }
}
