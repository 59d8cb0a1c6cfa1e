//! The paper's 91-run training corpus (§V-B).

use crate::bag::Bag;
use crate::measure::{Measurement, Platforms};
use bagpred_trace::SplitMix64;
use bagpred_workloads::{Benchmark, Workload, BATCH_SIZES, STANDARD_BATCH};
use serde::{Deserialize, Serialize};

/// A collection of bags to measure — the predictor's experimental design.
///
/// [`Corpus::paper`] reproduces the paper's recipe: benchmarks are limited,
/// so data points are multiplied by (a) running each benchmark at five batch
/// sizes (20, 40, 80, 160, 320 images) and (b) permuting benchmark
/// combinations into heterogeneous bags, for 91 runs in total.
///
/// # Example
///
/// ```
/// use bagpred_core::Corpus;
///
/// let corpus = Corpus::paper();
/// assert_eq!(corpus.bags().len(), 91);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Corpus {
    bags: Vec<Bag>,
}

impl Corpus {
    /// The paper's 91-bag corpus:
    ///
    /// * 45 homogeneous bags — every benchmark at every batch size;
    /// * 36 heterogeneous bags — every unordered benchmark pair at the
    ///   standard batch of 20 images;
    /// * 10 heterogeneous bags with mixed batch sizes, drawn
    ///   deterministically.
    pub fn paper() -> Self {
        let mut bags = Vec::with_capacity(91);

        for bench in Benchmark::ALL {
            for batch in BATCH_SIZES {
                bags.push(Bag::homogeneous(Workload::new(bench, batch)));
            }
        }

        for (i, a) in Benchmark::ALL.iter().enumerate() {
            for b in &Benchmark::ALL[i + 1..] {
                bags.push(Bag::pair(
                    Workload::new(*a, STANDARD_BATCH),
                    Workload::new(*b, STANDARD_BATCH),
                ));
            }
        }

        // Ten mixed-batch heterogeneous bags, deterministic.
        let mut rng = SplitMix64::new(0x091_c04b5);
        while bags.len() < 91 {
            let a = Benchmark::ALL[rng.next_below(9) as usize];
            let b = Benchmark::ALL[rng.next_below(9) as usize];
            if a == b {
                continue;
            }
            let ba = BATCH_SIZES[rng.next_below(5) as usize];
            let bb = BATCH_SIZES[rng.next_below(5) as usize];
            if ba == STANDARD_BATCH && bb == STANDARD_BATCH {
                continue; // already covered by the 36 standard pairs
            }
            let bag = Bag::pair(Workload::new(a, ba), Workload::new(b, bb));
            if !bags.contains(&bag) {
                bags.push(bag);
            }
        }

        Self { bags }
    }

    /// A corpus over explicit bags (for custom experiments).
    ///
    /// # Panics
    ///
    /// Panics if `bags` is empty.
    pub fn custom(bags: Vec<Bag>) -> Self {
        assert!(!bags.is_empty(), "a corpus needs at least one bag");
        Self { bags }
    }

    /// The bags, in corpus order.
    pub fn bags(&self) -> &[Bag] {
        &self.bags
    }

    /// Measures every bag on the paper's platforms.
    pub fn measure(&self) -> Vec<Measurement> {
        self.measure_on(&Platforms::paper())
    }

    /// Measures every bag on custom platforms, fanning the per-bag
    /// collection out over [`crate::parallel::configured_threads`] scoped
    /// workers. Collection is a pure function of the bag, and results come
    /// back in corpus order, so the output is bit-identical to the serial
    /// path (set `BAGPRED_THREADS=1` to force it). The workers first
    /// profile each named benchmark in one pass, largest pass first, then
    /// measure the bags from the warm profile memo.
    pub fn measure_on(&self, platforms: &Platforms) -> Vec<Measurement> {
        self.measure_on_threads(platforms, crate::parallel::configured_threads())
    }

    /// [`measure_on`](Self::measure_on) with an explicit worker count.
    pub fn measure_on_threads(&self, platforms: &Platforms, threads: usize) -> Vec<Measurement> {
        crate::parallel::warm_profiles(self.bags.iter().flat_map(Bag::members), threads);
        crate::parallel::parallel_map(&self.bags, threads, |&bag| {
            Measurement::collect(bag, platforms)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_corpus_has_91_unique_bags() {
        let corpus = Corpus::paper();
        assert_eq!(corpus.bags().len(), 91);
        let mut bags = corpus.bags().to_vec();
        bags.sort_by_key(|b| b.label());
        bags.dedup();
        assert_eq!(bags.len(), 91, "bags must be unique");
    }

    #[test]
    fn paper_corpus_composition() {
        let corpus = Corpus::paper();
        let homogeneous = corpus.bags().iter().filter(|b| b.is_homogeneous()).count();
        assert_eq!(homogeneous, 45);
        let standard_hetero = corpus
            .bags()
            .iter()
            .filter(|b| {
                !b.is_homogeneous() && b.members().iter().all(|w| w.batch_size() == STANDARD_BATCH)
            })
            .count();
        assert_eq!(standard_hetero, 36);
    }

    #[test]
    fn every_benchmark_is_covered() {
        let corpus = Corpus::paper();
        for bench in Benchmark::ALL {
            let involved = corpus.bags().iter().filter(|b| b.involves(bench)).count();
            assert!(involved >= 13, "{bench} appears in only {involved} bags");
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(Corpus::paper(), Corpus::paper());
    }

    #[test]
    fn parallel_measurement_is_bit_identical_to_serial() {
        let corpus = Corpus::paper();
        let platforms = Platforms::paper();
        let serial = corpus.measure_on_threads(&platforms, 1);
        for threads in [2, 4] {
            assert_eq!(corpus.measure_on_threads(&platforms, threads), serial);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bag")]
    fn empty_custom_corpus_rejected() {
        Corpus::custom(vec![]);
    }
}
