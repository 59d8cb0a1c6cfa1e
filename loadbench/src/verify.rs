//! The correctness gate: every distinct request a run served is
//! recomputed offline from the same registry and compared bit for bit.
//!
//! It runs only after timing ends, so `fresh-sizes` reaches the server
//! with a cold profile memo. Offline predictions go through
//! `Predictor::predict` / `NBagPredictor::predict` on features collected
//! from scratch (`Measurement::collect`, `NBagMeasurement::collect_unlabeled`),
//! not through the server's cache or its batched flat-tree walk, so a
//! divergence in either shows up here.

use crate::gen::{Answer, ModelId, PhaseRun};
use crate::workload::{Dialect, Op, OpKind, BUDGETS_S, SCHEDULE_GPUS};
use bagpred_core::nbag::{NBag, NBagMeasurement};
use bagpred_core::{Bag, Measurement, Platforms};
use bagpred_serve::bootstrap::{NBAG_MODEL, PAIR_MODEL};
use bagpred_serve::protocol::format_outcome;
use bagpred_serve::{admission, FeatureCache, ModelRegistry, Reply, ServableModel};
use bagpred_workloads::Workload;
use std::collections::HashMap;
use std::sync::Arc;

/// What a correct server answers for one request.
#[derive(Debug, Clone)]
struct Expected {
    /// The binary reply: model and `f64` bits (predictions only).
    bits: Option<(ModelId, u64)>,
    /// The text reply line (every request; the binary schedule reply).
    line: String,
}

/// Tallies of one gate run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Replies compared.
    pub checked: usize,
    /// Replies that differ from the offline recomputation.
    pub wrong: usize,
    /// Requests that were never answered.
    pub missing: usize,
    /// Requests answered with an error.
    pub errors: usize,
    /// Predictions whose `Outcome` did not join (`nbag-feedback`).
    pub unjoined: usize,
    /// The first problem, for the report.
    pub first_problem: Option<String>,
}

impl Verdict {
    /// Requests that failed in any way.
    pub fn failed(&self) -> usize {
        self.wrong + self.missing + self.errors + self.unjoined
    }

    fn note(&mut self, problem: impl FnOnce() -> String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(problem());
        }
    }
}

/// Recomputes served requests offline, once per distinct request.
pub struct Oracle<'a> {
    platforms: &'a Platforms,
    pair: Arc<ServableModel>,
    nbag: Arc<ServableModel>,
    cache: FeatureCache,
    /// Keyed by [`Op::key`]: workload-table indices are stable for a run.
    memo: HashMap<Op, Expected>,
}

impl<'a> Oracle<'a> {
    /// An oracle over the registry the server answers from.
    ///
    /// # Panics
    ///
    /// Panics when the registry lacks the default models.
    pub fn new(registry: &ModelRegistry, platforms: &'a Platforms) -> Self {
        Oracle {
            platforms,
            pair: registry.get(PAIR_MODEL).expect("pair model registered"),
            nbag: registry.get(NBAG_MODEL).expect("n-bag model registered"),
            cache: FeatureCache::new(),
            memo: HashMap::new(),
        }
    }

    fn expected(&mut self, op: &Op, table: &[Workload]) -> &Expected {
        let apps = op.workloads(table);
        let (platforms, pair, nbag, cache) = (self.platforms, &self.pair, &self.nbag, &self.cache);
        self.memo.entry(op.key()).or_insert_with(|| match op.kind {
            OpKind::Predict => {
                let (model, name, predicted_s) = match (&**pair, &**nbag, apps.len()) {
                    (ServableModel::Pair(p), _, 2) => {
                        let record = Measurement::collect(Bag::pair(apps[0], apps[1]), platforms);
                        (ModelId::Pair, PAIR_MODEL, p.predict(&record))
                    }
                    (_, ServableModel::NBag(p), _) => {
                        let record = NBagMeasurement::collect_unlabeled(NBag::new(apps), platforms);
                        (ModelId::NBag, NBAG_MODEL, p.predict(&record))
                    }
                    _ => unreachable!("default models have the default kinds"),
                };
                let reply = Reply::Prediction {
                    model: name.to_string(),
                    predicted_s,
                };
                Expected {
                    bits: Some((model, predicted_s.to_bits())),
                    line: format_outcome(&Ok(reply)),
                }
            }
            // With k=2 and at most four apps the engine always resolves
            // the pair model for a schedule (an n-bag model is only
            // picked when more than 2k apps must share GPUs).
            OpKind::Schedule => Expected {
                bits: None,
                line: format_outcome(
                    &admission::admit(
                        pair,
                        cache,
                        platforms,
                        SCHEDULE_GPUS,
                        BUDGETS_S[op.budget as usize],
                        &apps,
                    )
                    .map(Reply::Schedule),
                ),
            },
        })
    }

    /// Checks one phase's replies, adding to `verdict`: every distinct
    /// request's reply against the offline recomputation (and every
    /// other reply to it against that one). With `feedback`, every binary
    /// prediction's `Outcome` must have joined.
    pub fn check(
        &mut self,
        verdict: &mut Verdict,
        table: &[Workload],
        dialect: Dialect,
        run: &PhaseRun,
        feedback: bool,
    ) {
        verdict.checked += (run.ok + run.errors) as usize;
        verdict.missing += run.missing() as usize;
        verdict.errors += run.errors as usize;
        verdict.wrong += run.inconsistent as usize;
        if run.missing() > 0 {
            verdict.note(|| format!("{} requests never answered", run.missing()));
        }
        if let Some(error) = &run.first_error {
            verdict.note(|| format!("error reply {error}"));
        }
        if run.inconsistent > 0 {
            verdict.note(|| {
                format!(
                    "{} replies differ from an earlier reply to the same request",
                    run.inconsistent
                )
            });
        }
        for (op, (answer, count)) in &run.answers {
            let expected = self.expected(op, table);
            let ok = match (answer, dialect, &expected.bits) {
                (Answer::Prediction { model, bits }, Dialect::Binary, Some(want)) => {
                    (*model, *bits) == *want
                }
                (Answer::Line(text), _, _) => **text == *expected.line,
                _ => false,
            };
            if !ok {
                verdict.wrong += *count as usize;
                let want = expected.line.clone();
                verdict.note(|| {
                    format!(
                        "`{}` answered {answer:?}, offline says `{want}`",
                        crate::gen::request_line(op, table)
                    )
                });
            }
        }
        if feedback {
            let unjoined = run.predictions - run.outcomes_matched;
            verdict.unjoined += unjoined as usize;
            if unjoined > 0 {
                verdict.note(|| format!("{unjoined} outcomes did not join their prediction"));
            }
        }
    }
}
