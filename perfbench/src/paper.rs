//! `paper_suite`: the library calls behind the paper-reproduction bins at
//! their shipped parameters — the fig13/fig16 grids, `ablate_arrivals`,
//! `ablate_profiler`, one observed session exported to Chrome JSON, and
//! `table2_accuracy`'s `quant_divergence` seeds.

use std::collections::BTreeMap;

use hetero_soc::sync::SyncMechanism;
use hetero_soc::SimTime;
use hetero_tensor::ops::argmax;
use hetero_workloads::queueing::{bursty_trace, simulate_queue, QueueStats, Request};
use heterollm::engines::{Engine, HeteroTensorEngine};
use heterollm::functional::{quant_divergence, FunctionalModel, QuantDivergence, QuantMode};
use heterollm::{EngineError, EngineKind, InferenceSession, ModelConfig, PhaseReport};

use crate::check::Checks;
use crate::stats::{Claim, Digest};
use crate::trace::{count, span};

const FIG13_ENGINES: [EngineKind; 7] = [
    EngineKind::MnnOpenCl,
    EngineKind::LlamaCpp,
    EngineKind::Mlc,
    EngineKind::PplOpenCl,
    EngineKind::MllmNpu,
    EngineKind::HeteroLayer,
    EngineKind::HeteroTensor,
];
const FIG13_SEQS: [usize; 3] = [64, 256, 1024];
const FIG16_ENGINES: [EngineKind; 6] = [
    EngineKind::MnnOpenCl,
    EngineKind::LlamaCpp,
    EngineKind::Mlc,
    EngineKind::PplOpenCl,
    EngineKind::HeteroLayer,
    EngineKind::HeteroTensor,
];
const ARRIVAL_ENGINES: [EngineKind; 3] = [
    EngineKind::LlamaCpp,
    EngineKind::PplOpenCl,
    EngineKind::HeteroTensor,
];
const PROFILER_SEQS: [usize; 3] = [64, 256, 1024];
const TABLE2_SEEDS: u64 = 10;
const TABLE2_GEN_TOKENS: usize = 24;

/// Inputs of one `paper_suite` run, made from the workload seed. Seed 0
/// reproduces the bins' shipped inputs exactly: `ablate_arrivals`'s trace
/// seed 7 and `table2_accuracy`'s model seeds 0..10.
pub struct PaperSuite {
    trace: Vec<Request>,
    table2: Vec<(u64, Vec<u32>)>,
}

/// Simulated outputs of one pass.
pub struct PaperOut {
    fig13: Vec<Option<f64>>,
    fig16: Vec<Option<f64>>,
    arrivals: Vec<(QueueStats, u64)>,
    profiler: Vec<(Option<f64>, Option<f64>)>,
    observed: Option<(u64, u64, Result<(), String>, String)>,
    table2: Vec<(Option<QuantDivergence>, Option<QuantDivergence>)>,
}

impl PaperSuite {
    /// Generate the inputs.
    pub fn new(seed: u64) -> Self {
        let tiny = ModelConfig::tiny();
        let table2 = (0..TABLE2_SEEDS)
            .map(|j| {
                let s = seed.wrapping_mul(TABLE2_SEEDS).wrapping_add(j);
                let prompt = (0..16u64)
                    .map(|i| ((i * 37).wrapping_add(s.wrapping_mul(11)) % tiny.vocab as u64) as u32)
                    .collect();
                (s, prompt)
            })
            .collect();
        Self {
            trace: bursty_trace(
                seed.wrapping_add(7),
                80,
                SimTime::from_secs_f64(4.0),
                (64, 512),
                (16, 96),
            ),
            table2,
        }
    }

    /// One timed pass.
    pub fn run(&self) -> PaperOut {
        let models = ModelConfig::evaluation_models();
        let mut fig13 = Vec::new();
        for model in &models {
            for kind in FIG13_ENGINES {
                for seq in FIG13_SEQS {
                    let mut e = build(kind, model);
                    fig13.push(prefill(e.as_mut(), seq).ok().map(|r| r.tokens_per_sec()));
                }
            }
        }
        let mut fig16 = Vec::new();
        for kind in FIG16_ENGINES {
            for model in &models {
                let mut e = build(kind, model);
                fig16.push(decode(e.as_mut(), 256, 16).ok().map(|r| r.tokens_per_sec()));
            }
        }

        let llama3b = ModelConfig::llama_3b();
        let arrivals = ARRIVAL_ENGINES
            .iter()
            .map(|&kind| {
                let mut errors = 0u64;
                let mut memo = BTreeMap::new();
                let (_, stats) = span("workloads.simulate_queue", || {
                    simulate_queue(&self.trace, |p, d| {
                        *memo.entry((p / 32, d / 16)).or_insert_with(|| {
                            let mut e = build(kind, &llama3b);
                            match (prefill(e.as_mut(), p), decode(e.as_mut(), p, d)) {
                                (Ok(a), Ok(b)) => a.elapsed + b.elapsed,
                                _ => {
                                    errors += 1;
                                    SimTime::ZERO
                                }
                            }
                        })
                    })
                });
                (stats, errors)
            })
            .collect();

        let mut profiler = Vec::new();
        for model in [
            ModelConfig::llama_8b(),
            ModelConfig::llama_3b(),
            ModelConfig::internlm_1_8b(),
        ] {
            for seq in PROFILER_SEQS {
                count("core.sessions", 2.0);
                let mut real = span("core.build", || {
                    HeteroTensorEngine::new(&model, SyncMechanism::Fast)
                });
                let mut pred = span("profiler.with_predicted_profiler", || {
                    HeteroTensorEngine::with_predicted_profiler(&model, SyncMechanism::Fast)
                });
                let rate = |r: Result<PhaseReport, EngineError>| r.ok().map(|r| r.tokens_per_sec());
                profiler.push((rate(prefill(&mut real, seq)), rate(prefill(&mut pred, seq))));
            }
        }

        count("core.sessions", 1.0);
        let mut session = span("core.build", || {
            InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::llama_8b())
        });
        let observed = span("core.run_observed", || session.try_run_observed(1024, 128))
            .ok()
            .map(|(report, tl)| {
                count("core.sim_tokens", (1024 + 128) as f64);
                count("core.timeline_spans", tl.spans().len() as f64);
                let json = span("core.to_chrome_json", || {
                    heterollm::obs::chrome::to_chrome_json(&tl)
                });
                count("core.chrome_bytes", json.len() as f64);
                (
                    report.prefill.elapsed.as_nanos(),
                    report.decode.elapsed.as_nanos(),
                    tl.check_well_formed(),
                    json,
                )
            });

        let tiny = ModelConfig::tiny();
        let table2 = self
            .table2
            .iter()
            .map(|(seed, prompt)| {
                let div = |b| {
                    span("tensor.quant_divergence", || {
                        quant_divergence(
                            &tiny,
                            *seed,
                            prompt,
                            TABLE2_GEN_TOKENS,
                            QuantMode::W4A16,
                            b,
                        )
                    })
                    .ok()
                };
                (div(QuantMode::Int8), div(QuantMode::W4A16))
            })
            .collect();

        PaperOut {
            fig13,
            fig16,
            arrivals,
            profiler,
            observed,
            table2,
        }
    }

    /// Check a pass's outputs; returns their digest and the claim error.
    pub fn verify(&self, out: &PaperOut, checks: &mut Checks) -> (Digest, f64) {
        let mut d = Digest::default();
        for r in out.fig13.iter().chain(&out.fig16) {
            if checks.check("core.session_ok", r.is_some()) {
                d.f64(r.unwrap_or_default());
            }
        }
        for (stats, errors) in &out.arrivals {
            checks.check("core.session_ok", *errors == 0);
            d.u64(stats.p50_wait.as_nanos());
            d.u64(stats.p95_wait.as_nanos());
            d.f64(stats.utilization);
        }
        // `ablate_arrivals`' own assertions: Hetero-tensor keeps the same
        // bursty queue less busy than llama.cpp, with no worse tail wait.
        let (cpu, ht) = (&out.arrivals[0].0, &out.arrivals[2].0);
        checks.check(
            "arrivals.utilization_order",
            ht.utilization < cpu.utilization && ht.p95_wait <= cpu.p95_wait,
        );

        let mut worst = 0.0f64;
        let mut all = true;
        for (real, pred) in &out.profiler {
            match (real, pred) {
                (Some(r), Some(p)) => {
                    worst = worst.max((p / r - 1.0).abs());
                    d.f64(*r);
                    d.f64(*p);
                }
                _ => all = false,
            }
        }
        checks.check("core.session_ok", all);
        checks.check("profiler.worst_delta_lt_25pct", all && worst < 0.25);

        match &out.observed {
            Some((prefill_ns, decode_ns, well_formed, json)) => {
                checks.check("core.session_ok", true);
                checks.check("obs.timeline_well_formed", well_formed.is_ok());
                d.u64(*prefill_ns);
                d.u64(*decode_ns);
                d.str(json);
            }
            None => {
                checks.check("core.session_ok", false);
            }
        }

        for (div, control) in &out.table2 {
            let ok = checks.check("tensor.divergence_ok", div.is_some() && control.is_some());
            if let (true, Some(div), Some(control)) = (ok, div, control) {
                checks.check(
                    "table2.control_exact",
                    control.logit_mse == 0.0 && control.token_agreement == 1.0,
                );
                d.f64(div.logit_mse);
                d.f64(div.token_agreement);
            }
        }
        (d, crate::stats::claim_err_pct(&claims(out)))
    }

    /// Call the functions `quant_divergence` runs inside it, alone and
    /// with the same arguments, so the traced run can split its time;
    /// checks that the split calls reproduce its results.
    pub fn probe(&self, out: &PaperOut, checks: &mut Checks) {
        let tiny = ModelConfig::tiny();
        for ((seed, prompt), (div, control)) in self.table2.iter().zip(&out.table2) {
            for (b, expect) in [(QuantMode::Int8, div), (QuantMode::W4A16, control)] {
                let got = split_divergence(&tiny, *seed, prompt, b);
                let same = match (checks.ok("tensor.split_ok", got), expect) {
                    (Some(got), Some(e)) => {
                        got.0.to_bits() == e.logit_mse.to_bits()
                            && got.1.to_bits() == e.token_agreement.to_bits()
                    }
                    _ => false,
                };
                checks.check("tensor.split_matches", same);
            }
        }
    }
}

/// The fig13 and fig16 paper claims over this pass's grids.
fn claims(out: &PaperOut) -> Vec<Claim> {
    let names: Vec<String> = ModelConfig::evaluation_models()
        .into_iter()
        .map(|m| m.name)
        .collect();
    let mi = |m: &str| names.iter().position(|n| n == m).expect("evaluation model");
    let p13 = |m: &str, e: EngineKind, s: usize| {
        let ei = FIG13_ENGINES
            .iter()
            .position(|k| *k == e)
            .expect("fig13 engine");
        let si = FIG13_SEQS.iter().position(|x| *x == s).expect("fig13 seq");
        out.fig13[(mi(m) * FIG13_ENGINES.len() + ei) * FIG13_SEQS.len() + si].unwrap_or(f64::NAN)
    };
    let p16 = |m: &str, e: EngineKind| {
        let ei = FIG16_ENGINES
            .iter()
            .position(|k| *k == e)
            .expect("fig16 engine");
        out.fig16[ei * names.len() + mi(m)].unwrap_or(f64::NAN)
    };
    use EngineKind::{
        HeteroLayer as HL, HeteroTensor as HT, LlamaCpp, Mlc, MllmNpu, MnnOpenCl, PplOpenCl,
    };
    let l8 = "Llama-8B";
    let avg_gain = {
        let mut acc = 0.0;
        for m in &names {
            for s in FIG13_SEQS {
                acc += p13(m, HT, s) / p13(m, HL, s);
            }
        }
        acc / (names.len() * FIG13_SEQS.len()) as f64
    };
    let c = |paper: f64, measured: f64| Claim { paper, measured };
    vec![
        // Figure 13 (§5.2.1).
        c(2.99, p13(l8, HL, 256) / p13(l8, PplOpenCl, 256)),
        c(5.64, p13(l8, HL, 256) / p13(l8, Mlc, 256)),
        c(5.85, p13(l8, HL, 256) / p13(l8, MnnOpenCl, 256)),
        c(24.9, p13(l8, HL, 256) / p13(l8, LlamaCpp, 256)),
        c(9.99, p13(l8, HT, 1024) / p13(l8, Mlc, 1024)),
        c(4.36, p13(l8, HT, 1024) / p13(l8, MnnOpenCl, 1024)),
        c(247.9, p13(l8, HT, 1024)),
        c(1092.0, p13("InternLM-1.8B", HT, 256)),
        c(
            1.94,
            p13("InternLM-1.8B", HT, 256) / p13("InternLM-1.8B", MllmNpu, 256),
        ),
        c(1.30, avg_gain),
        // Figure 16 (§5.3).
        c(14.01, p16(l8, HT)),
        c(29.9, p16("Llama-3B", HT)),
        c(51.12, p16("InternLM-1.8B", HT)),
        c(1.234, p16(l8, HT) / p16(l8, PplOpenCl)),
        c(1.50, p16(l8, HT) / p16(l8, MnnOpenCl)),
        c(2.53, p16(l8, HT) / p16(l8, LlamaCpp)),
        c(1.0, p16(l8, HL) / p16(l8, PplOpenCl)),
    ]
}

fn build(kind: EngineKind, model: &ModelConfig) -> Box<dyn Engine> {
    count("core.sessions", 1.0);
    span("core.build", || kind.build(model, SyncMechanism::Fast))
}

fn prefill(e: &mut dyn Engine, seq: usize) -> Result<PhaseReport, EngineError> {
    count("core.sim_tokens", seq as f64);
    span("core.try_prefill", || e.try_prefill(seq))
}

fn decode(e: &mut dyn Engine, prompt: usize, n: usize) -> Result<PhaseReport, EngineError> {
    count("core.sim_tokens", n as f64);
    span("core.try_decode", || e.try_decode(prompt, n))
}

/// `quant_divergence(cfg, seed, prompt, 24, W4A16, b)` rebuilt from its
/// public parts: four models, two prefills, two greedy generations.
/// Returns `(logit_mse, token_agreement)`.
fn split_divergence(
    cfg: &ModelConfig,
    seed: u64,
    prompt: &[u32],
    b: QuantMode,
) -> hetero_tensor::Result<(f64, f64)> {
    let model = |mode| {
        span("tensor.with_mode", || {
            FunctionalModel::with_mode(cfg.clone(), seed, mode)
        })
    };
    let mut ma = model(QuantMode::W4A16)?;
    let mut mb = model(b)?;
    let la = span("tensor.prefill", || ma.prefill(prompt))?;
    let lb = span("tensor.prefill", || mb.prefill(prompt))?;
    let mse = la
        .data()
        .iter()
        .zip(lb.data())
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f32>() as f64
        / la.numel() as f64;
    let generate = |mut m: FunctionalModel| -> hetero_tensor::Result<Vec<u32>> {
        let mut logits = span("tensor.prefill", || m.prefill(prompt))?;
        let mut out = Vec::with_capacity(TABLE2_GEN_TOKENS);
        loop {
            let next = argmax(logits.row(0)?).expect("non-empty logits");
            out.push(next);
            if out.len() == TABLE2_GEN_TOKENS {
                break;
            }
            logits = span("tensor.decode_step", || m.decode_step(next))?;
        }
        count("tensor.matmul_flops", matmul_flops(&m));
        Ok(out)
    };
    let ta = generate(model(QuantMode::W4A16)?)?;
    let tb = generate(model(b)?)?;
    count("tensor.matmul_flops", matmul_flops(&ma) + matmul_flops(&mb));
    let agree = ta.iter().zip(&tb).filter(|(x, y)| x == y).count();
    Ok((mse, agree as f64 / TABLE2_GEN_TOKENS as f64))
}

fn matmul_flops(m: &FunctionalModel) -> f64 {
    m.executed_matmuls()
        .iter()
        .map(|s| 2.0 * s.m as f64 * s.k as f64 * s.n as f64)
        .sum()
}
