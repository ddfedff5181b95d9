//! `repro dse` — automatic ISA-extension mining over the scalar kernels.
//!
//! The paper's EIS was designed by hand from the scalar set primitives;
//! this experiment re-derives it mechanically. The miner
//! (`dbx-analysis::dse`) walks the scalar kernels' dataflow graphs and
//! enumerates convex, port-bounded subgraphs as fused-instruction
//! candidates; the synthesis model (`dbx-synth::dse`) prices each one in
//! gate equivalents, feasible fMAX and power; and a Pareto search over
//! candidate subsets exposes the throughput/area/frequency trade-off the
//! authors navigated by intuition. Success criterion (checked in CI
//! against `DSE_baseline.json`): the miner must rediscover the
//! load/load/compare shape of `SOP`, the store/bump shape of `ST_S`,
//! propose at least one *novel* fusion the hand design missed, and keep
//! the frontier from regressing.
//!
//! Everything is static and deterministic — no simulation, no threads,
//! no floats outside quantized output — so the snapshot JSON is
//! byte-identical across runs and hosts.

use dbx_analysis::dse::{
    merge, mine, pareto_indices, Candidate, CandidateClass, DseConfig, Mined, WeightModel,
};
use dbx_bench::perf::q6;
use dbx_core::kernels::{scalar, SetLayout};
use dbx_core::runner::{run_set_op_with, set_layout, RunOptions};
use dbx_core::{ProcModel, SetOpKind};
use dbx_cpu::program::{DMEM0_BASE, DMEM1_BASE};
use dbx_cpu::ProfileMode;
use dbx_observe::json::Json;
use dbx_synth::dse::{price_candidate, price_set, CandidatePrice};
use dbx_synth::Tech;

use crate::report::TextTable;

/// Snapshot schema tag (bump on breaking changes).
pub const SCHEMA: &str = "dbx-dse-v1";

/// Candidates carried into pricing and subset search, by savings rank.
const TOP_K: usize = 12;

/// Largest frontier subset cardinality (keeps 2^K subsets tractable and
/// the report readable).
const MAX_SET: usize = 4;

/// One priced candidate.
#[derive(Debug, Clone)]
pub struct Priced {
    /// The mined shape.
    pub candidate: Candidate,
    /// Its synthesis price on the target core.
    pub price: CandidatePrice,
}

/// One point of the speedup/area/fMAX frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Indices into the priced candidate list.
    pub members: Vec<usize>,
    /// Estimated kernel-suite speedup from the fused cycles.
    pub speedup: f64,
    /// Added area in gate equivalents.
    pub area_ge: f64,
    /// Feasible core frequency, MHz.
    pub fmax_mhz: f64,
    /// Added power, mW.
    pub power_mw: f64,
}

/// The full DSE result.
pub struct Dse {
    /// Host configuration the candidates are priced against.
    pub model: ProcModel,
    /// Mined kernel labels, in mining order.
    pub kernels: Vec<&'static str>,
    /// Merged mining result (all candidates, before the top-K cut).
    pub mined: Mined,
    /// Top-K candidates with synthesis prices.
    pub priced: Vec<Priced>,
    /// Non-dominated subsets, sorted by descending speedup.
    pub frontier: Vec<FrontierPoint>,
}

fn corpus_layout() -> SetLayout {
    // 256-element sets in the two local stores: the placement the EIS
    // configurations use; addresses only matter to the bounds rules.
    SetLayout {
        a_base: DMEM0_BASE,
        a_len: 256,
        b_base: DMEM1_BASE,
        b_len: 256,
        c_base: DMEM0_BASE + 0x4000,
    }
}

/// Runs the mining pipeline over the scalar kernel suite.
pub fn run() -> Dse {
    // Price against the scalar 2-LSU host, but enumerate with the
    // capability envelope the paper's DBA_2LSU+EIS design point assumes
    // (FLIX formats, 4-in/3-out fused ops): the point of the search is
    // to re-derive what that extension should contain.
    let model = ProcModel::Dba2Lsu;
    let dse_cfg = DseConfig::from_cpu(&ProcModel::Dba2LsuEis { partial: false }.cpu_config());
    let layout = corpus_layout();

    let mut kernels = Vec::new();
    let mut parts = Vec::new();
    for (kind, label) in [
        (SetOpKind::Intersect, "intersect/scalar"),
        (SetOpKind::Union, "union/scalar"),
        (SetOpKind::Difference, "difference/scalar"),
    ] {
        let p = scalar::set_op_program(kind, &layout).expect("scalar kernel builds");
        kernels.push(label);
        parts.push(mine(&p, None, &dse_cfg, &WeightModel::Static));
    }
    let (sort, _) = scalar::merge_sort_program(DMEM0_BASE, DMEM0_BASE + 0x4000, 256)
        .expect("scalar sort builds");
    kernels.push("merge-sort/scalar");
    parts.push(mine(&sort, None, &dse_cfg, &WeightModel::Static));

    let mined = merge(parts);
    let tech = Tech::tsmc65lp();
    let priced: Vec<Priced> = mined
        .candidates
        .iter()
        .take(TOP_K)
        .map(|c| Priced {
            candidate: c.clone(),
            price: price_candidate(model, &tech, c),
        })
        .collect();

    let frontier = frontier_of(model, &tech, &priced, mined.base_cycles);
    Dse {
        model,
        kernels,
        mined,
        priced,
        frontier,
    }
}

/// The profile-weighted mining result: what the miner proposes when the
/// block weights come from a *measured* (sampled) run instead of the
/// static loop-nest heuristic.
pub struct ProfiledDse {
    /// Sampling period of the profiled run, in cycles.
    pub period: u64,
    /// Cycles the profiled scalar intersect run took.
    pub run_cycles: u64,
    /// Distinct profiled addresses feeding the weight map.
    pub profile_points: usize,
    /// Mining result under [`WeightModel::Profile`].
    pub mined: Mined,
}

/// Mines the scalar intersect kernel with weights measured by the
/// *sampled* profiler — the end-to-end path the telemetry plane feeds:
/// a production-shaped sampled run yields a
/// sparse [`dbx_cpu::ProfileSnapshot`], whose weight map drives
/// [`WeightModel::Profile`] mining of the exact program the runner
/// executed (rebuilt via [`set_layout`], not the synthetic corpus
/// layout).
pub fn profile_weighted(period: u64) -> ProfiledDse {
    let a: Vec<u32> = (0..256u32).map(|i| 2 * i).collect();
    let b: Vec<u32> = (0..256u32).map(|i| 3 * i).collect();
    let opts = RunOptions {
        profile: ProfileMode::Sampled { period },
        ..Default::default()
    };
    let run = run_set_op_with(ProcModel::Dba2Lsu, SetOpKind::Intersect, &a, &b, &opts)
        .expect("profiled scalar intersect runs");
    let snapshot = run.profile.expect("sampled run carries a profile");
    let weights = snapshot.weight_map();
    let profile_points = weights.len();

    // Rebuild the program the runner just executed: same model, same
    // placement rules, so the mined addresses line up with the profile.
    let layout =
        set_layout(ProcModel::Dba2Lsu, a.len() as u32, b.len() as u32).expect("scalar layout fits");
    let prog = scalar::set_op_program(SetOpKind::Intersect, &layout).expect("scalar kernel builds");
    let dse_cfg = DseConfig::from_cpu(&ProcModel::Dba2LsuEis { partial: false }.cpu_config());
    let mined = mine(&prog, None, &dse_cfg, &WeightModel::Profile(weights));
    ProfiledDse {
        period,
        run_cycles: run.cycles,
        profile_points,
        mined,
    }
}

impl ProfiledDse {
    /// Human report of the profile-weighted mining run.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Profile-weighted mining (sampled every {} cycles; run {} cycles, {} profiled addresses):\n",
            self.period,
            self.run_cycles,
            self.profile_points,
        );
        out.push_str(&format!(
            "{} candidate shapes, {} profile-weighted base cycles; top savings:\n",
            self.mined.candidates.len(),
            self.mined.base_cycles,
        ));
        for c in self.mined.candidates.iter().take(5) {
            out.push_str(&format!(
                "  {:>11}  saves {:>6}  {}\n",
                c.class.tag(),
                c.cycles_saved,
                c.signature
            ));
        }
        out
    }
}

fn frontier_of(
    model: ProcModel,
    tech: &Tech,
    priced: &[Priced],
    base_cycles: u64,
) -> Vec<FrontierPoint> {
    let k = priced.len().min(TOP_K);
    let mut points = Vec::new();
    for mask in 1u32..(1u32 << k) {
        if mask.count_ones() as usize > MAX_SET {
            continue;
        }
        let members: Vec<usize> = (0..k).filter(|i| mask & (1 << i) != 0).collect();
        let saved: u64 = members
            .iter()
            .map(|&i| priced[i].candidate.cycles_saved)
            .sum();
        // Overlapping occurrences make summed savings optimistic; the
        // frontier compares subsets under the same assumption, which is
        // what a designer shortlisting semantics needs.
        let cycles = base_cycles.saturating_sub(saved).max(1);
        let speedup = base_cycles as f64 / cycles as f64;
        let refs: Vec<&Candidate> = members.iter().map(|&i| &priced[i].candidate).collect();
        let set = price_set(model, tech, &refs);
        points.push(FrontierPoint {
            members,
            speedup,
            area_ge: set.area_ge,
            fmax_mhz: set.fmax_mhz,
            power_mw: set.power_mw,
        });
    }
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|p| vec![p.speedup, p.area_ge, p.fmax_mhz])
        .collect();
    let keep = pareto_indices(&rows, &[true, false, true]);
    let mut frontier: Vec<FrontierPoint> = keep.into_iter().map(|i| points[i].clone()).collect();
    frontier.sort_by(|a, b| {
        b.speedup
            .partial_cmp(&a.speedup)
            .unwrap()
            .then(a.area_ge.partial_cmp(&b.area_ge).unwrap())
            .then(a.members.cmp(&b.members))
    });
    frontier
}

impl Dse {
    /// The best candidate of a class, if any was mined (by savings).
    pub fn best_of(&self, class: CandidateClass) -> Option<&Priced> {
        self.priced.iter().find(|p| p.candidate.class == class)
    }

    /// Deterministic snapshot for CI baselines.
    pub fn snapshot(&self) -> Json {
        let candidates: Vec<Json> = self
            .priced
            .iter()
            .map(|p| {
                let c = &p.candidate;
                Json::obj([
                    ("signature", Json::Str(c.signature.clone())),
                    ("class", Json::Str(c.class.tag().to_string())),
                    ("nodes", Json::Num(c.node_count as f64)),
                    ("inputs", Json::Num(c.inputs as f64)),
                    ("outputs", Json::Num(c.outputs as f64)),
                    ("mem_ops", Json::Num(c.mem_ops as f64)),
                    ("depth", Json::Num(c.depth as f64)),
                    ("occurrences", Json::Num(c.occurrences.len() as f64)),
                    ("cycles_saved", Json::Num(c.cycles_saved as f64)),
                    ("area_ge", Json::Num(q6(p.price.area_ge))),
                    ("fmax_mhz", Json::Num(q6(p.price.fmax_mhz))),
                    ("power_mw", Json::Num(q6(p.price.power_mw))),
                ])
            })
            .collect();
        let frontier: Vec<Json> = self
            .frontier
            .iter()
            .map(|f| {
                Json::obj([
                    (
                        "members",
                        Json::Arr(f.members.iter().map(|&i| Json::Num(i as f64)).collect()),
                    ),
                    ("speedup", Json::Num(q6(f.speedup))),
                    ("area_ge", Json::Num(q6(f.area_ge))),
                    ("fmax_mhz", Json::Num(q6(f.fmax_mhz))),
                    ("power_mw", Json::Num(q6(f.power_mw))),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            ("model", Json::Str(self.model.name().to_string())),
            ("tech", Json::Str(Tech::tsmc65lp().name.to_string())),
            (
                "kernels",
                Json::Arr(
                    self.kernels
                        .iter()
                        .map(|k| Json::Str(k.to_string()))
                        .collect(),
                ),
            ),
            ("base_cycles", Json::Num(self.mined.base_cycles as f64)),
            ("mined_total", Json::Num(self.mined.candidates.len() as f64)),
            ("candidates", Json::Arr(candidates)),
            ("frontier", Json::Arr(frontier)),
        ])
    }

    /// Human-readable report: top candidates and the Pareto frontier.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "ISA-extension mining over {} scalar kernels (host {}, {}):\n\
             {} candidate shapes mined, {} weighted base cycles; top {} priced:\n\n",
            self.kernels.len(),
            self.model.name(),
            Tech::tsmc65lp().name,
            self.mined.candidates.len(),
            self.mined.base_cycles,
            self.priced.len(),
        ));
        let mut t = TextTable::new([
            "#",
            "class",
            "nodes",
            "saved",
            "area GE",
            "fMAX MHz",
            "occ",
            "signature",
        ]);
        for (i, p) in self.priced.iter().enumerate() {
            let c = &p.candidate;
            let sig = if c.signature.len() > 46 {
                format!("{}…", &c.signature[..45])
            } else {
                c.signature.clone()
            };
            t.row([
                i.to_string(),
                c.class.tag().to_string(),
                c.node_count.to_string(),
                c.cycles_saved.to_string(),
                format!("{:.0}", p.price.area_ge),
                format!("{:.0}", p.price.fmax_mhz),
                c.occurrences.len().to_string(),
                sig,
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nPareto frontier (speedup vs area vs fMAX, subsets of the top candidates):\n",
        );
        let mut f = TextTable::new(["members", "speedup", "area GE", "fMAX MHz", "power mW"]);
        for p in &self.frontier {
            f.row([
                format!(
                    "{{{}}}",
                    p.members
                        .iter()
                        .map(|m| m.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                format!("{:.4}", p.speedup),
                format!("{:.0}", p.area_ge),
                format!("{:.0}", p.fmax_mhz),
                format!("{:.2}", p.power_mw),
            ]);
        }
        out.push_str(&f.render());
        for class in [
            CandidateClass::SopLike,
            CandidateClass::StSLike,
            CandidateClass::Novel,
            CandidateClass::Bundle,
        ] {
            match self.best_of(class) {
                Some(p) => out.push_str(&format!(
                    "\nbest {:>11}: {}  (saves {} cycles, {:.0} GE, {:.0} MHz)",
                    class.tag(),
                    p.candidate.signature,
                    p.candidate.cycles_saved,
                    p.price.area_ge,
                    p.price.fmax_mhz
                )),
                None => out.push_str(&format!("\nbest {:>11}: (none mined)", class.tag())),
            }
        }
        out.push('\n');
        out
    }

    /// Compares against a committed baseline snapshot. Returns
    /// human-readable failures; empty means the gate passes. Gate rules:
    /// every sop-like/st-s-like/flix-bundle signature in the baseline
    /// must still be mined, and the frontier's best speedup must not
    /// regress by more than 3%.
    pub fn check(&self, baseline: &str) -> Result<Vec<String>, String> {
        let base = Json::parse(baseline).map_err(|e| format!("baseline parse error: {e}"))?;
        if base.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!(
                "baseline schema mismatch (want {SCHEMA}, got {:?})",
                base.get("schema").and_then(Json::as_str)
            ));
        }
        let mut failures = Vec::new();
        let current_sigs: Vec<&str> = self
            .mined
            .candidates
            .iter()
            .map(|c| c.signature.as_str())
            .collect();
        let empty = Vec::new();
        let base_cands = base
            .get("candidates")
            .and_then(Json::as_arr)
            .unwrap_or(&empty);
        for bc in base_cands {
            let class = bc.get("class").and_then(Json::as_str).unwrap_or("");
            if !matches!(class, "sop-like" | "st-s-like" | "flix-bundle") {
                continue;
            }
            let sig = bc.get("signature").and_then(Json::as_str).unwrap_or("");
            if !current_sigs.contains(&sig) {
                failures.push(format!("{class} candidate disappeared: {sig}"));
            }
        }
        let base_best = base
            .get("frontier")
            .and_then(Json::as_arr)
            .and_then(|f| f.first())
            .and_then(|p| p.get("speedup"))
            .and_then(Json::as_f64)
            .unwrap_or(1.0);
        let best = self.frontier.first().map(|p| p.speedup).unwrap_or(1.0);
        if best < base_best * 0.97 {
            failures.push(format!(
                "frontier regressed: best speedup {best:.4} vs baseline {base_best:.4}"
            ));
        }
        Ok(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miner_rediscovers_the_hand_designed_shapes() {
        let d = run();
        let sop = d.best_of(CandidateClass::SopLike).expect("sop-like shape");
        assert!(
            sop.candidate
                .mnemonics
                .iter()
                .filter(|m| **m == "l32i")
                .count()
                >= 2,
            "sop-like candidate should fuse the two stream-head loads: {}",
            sop.candidate.signature
        );
        let st = d.best_of(CandidateClass::StSLike).expect("st-s-like shape");
        assert!(st.candidate.mnemonics.contains(&"s32i"));
        let novel = d.best_of(CandidateClass::Novel).expect("novel shape");
        assert!(novel.candidate.cycles_saved > 0);
        assert!(novel.price.area_ge > 0.0);
        let bundle = d.best_of(CandidateClass::Bundle).expect("bundle template");
        assert!(bundle.candidate.signature.starts_with("flix{"));
    }

    #[test]
    fn snapshot_is_deterministic_and_self_checking() {
        let a = run();
        let b = run();
        let ja = a.snapshot().to_string();
        let jb = b.snapshot().to_string();
        assert_eq!(ja, jb);
        // A snapshot must pass its own gate.
        assert_eq!(a.check(&jb).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn check_flags_a_disappeared_candidate_and_a_frontier_regression() {
        let d = run();
        let json = d.snapshot().to_string();
        let tampered = json.replace("l32i(in0);l32i(in1)", "l32i(inX);l32i(inY)");
        if tampered != json {
            let failures = d.check(&tampered).unwrap();
            assert!(
                failures.iter().any(|f| f.contains("disappeared")),
                "{failures:?}"
            );
        }
        let inflated = json.replacen("\"speedup\":", "\"speedup\":9", 1);
        let failures = d.check(&inflated).unwrap();
        assert!(
            failures.iter().any(|f| f.contains("regressed")),
            "{failures:?}"
        );
    }

    #[test]
    fn sampled_profile_drives_weighted_mining_end_to_end() {
        let d = profile_weighted(64);
        assert!(d.run_cycles > 0);
        assert!(
            d.profile_points > 0,
            "the sampled run must observe at least one address"
        );
        assert!(
            !d.mined.candidates.is_empty(),
            "profile-weighted mining must still propose shapes"
        );
        // The profiled weights emphasize the merge loop, so the miner
        // still finds the paper's load/load/compare (SOP) shape.
        assert!(
            d.mined
                .candidates
                .iter()
                .any(|c| c.class == CandidateClass::SopLike && c.cycles_saved > 0),
            "sop-like shape missing from profile-weighted mining"
        );
        // Deterministic: same period, same result.
        let e = profile_weighted(64);
        assert_eq!(d.run_cycles, e.run_cycles);
        assert_eq!(d.mined.base_cycles, e.mined.base_cycles);
        assert!(d.render().contains("profiled addresses"));
    }

    #[test]
    fn frontier_is_nonempty_and_sorted_by_speedup() {
        let d = run();
        assert!(!d.frontier.is_empty());
        for w in d.frontier.windows(2) {
            assert!(w[0].speedup >= w[1].speedup);
        }
        // Every frontier point must genuinely speed the suite up.
        assert!(d.frontier[0].speedup > 1.0);
    }
}
