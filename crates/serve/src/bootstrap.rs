//! One-call setup: train the paper's models and register them.
//!
//! Serving needs trained models; training needs the measurement corpus.
//! This module runs the offline pipeline once — the 91-bag paper corpus
//! for the pair model, the deterministic n-bag corpus for the extension
//! — and registers the results under well-known names:
//!
//! * `pair-tree` — the paper's best configuration (full feature scheme,
//!   depth-8 CART tree, §V-C / Fig. 9);
//! * `nbag-tree` — the order-statistic n-bag predictor.
//!
//! Both are snapshot-capable, so a `save_dir`/`load_dir` cycle skips
//! retraining on the next boot.

use crate::error::ServeError;
use crate::fault::panic_message;
use crate::metrics::boot_stats;
use crate::snapshot::{ModelRegistry, ServableModel};
use bagpred_core::nbag::{nbag_corpus, NBagMeasurement, NBagPredictor};
use bagpred_core::{Corpus, FeatureSet, ModelKind, Platforms, Predictor};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Extra heterogeneous bags in the n-bag training corpus (deterministic;
/// matches the experiments crate's default).
const NBAG_EXTRA: usize = 20;

/// Name the pair model is registered under.
pub const PAIR_MODEL: &str = "pair-tree";
/// Name the n-bag model is registered under.
pub const NBAG_MODEL: &str = "nbag-tree";

/// Trains the paper's pair predictor on the 91-bag corpus.
pub fn train_pair(platforms: &Platforms) -> Predictor {
    let records = Corpus::paper().measure_on(platforms);
    let mut predictor = Predictor::new(FeatureSet::full()).with_model(ModelKind::DecisionTree);
    predictor.train(&records);
    predictor
}

/// Trains the n-bag predictor on the deterministic n-bag corpus.
pub fn train_nbag(platforms: &Platforms) -> NBagPredictor {
    let records: Vec<NBagMeasurement> =
        bagpred_core::nbag::measure_nbags(&nbag_corpus(NBAG_EXTRA), platforms);
    let mut predictor = NBagPredictor::new();
    predictor.train(&records);
    predictor
}

/// Trains both models and returns a registry holding them as
/// [`PAIR_MODEL`] and [`NBAG_MODEL`].
///
/// The two models are independent, so a cold boot trains them on two
/// scoped threads (each one's corpus measurement additionally fans out
/// over `BAGPRED_THREADS` workers — see [`bagpred_core::parallel`]).
/// Training is deterministic, so the registry contents are identical to
/// a serial boot.
pub fn default_registry(platforms: &Platforms) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    let (pair, nbag) = std::thread::scope(|scope| {
        let pair = scope.spawn(|| train_pair(platforms));
        let nbag = scope.spawn(|| train_nbag(platforms));
        // Joins name the thread *and* carry the original panic message,
        // so a training failure reads as one self-contained report.
        (
            pair.join().unwrap_or_else(|payload| {
                panic!(
                    "pair training panicked: {}",
                    panic_message(payload.as_ref())
                )
            }),
            nbag.join().unwrap_or_else(|payload| {
                panic!(
                    "n-bag training panicked: {}",
                    panic_message(payload.as_ref())
                )
            }),
        )
    });
    registry.insert(PAIR_MODEL, ServableModel::Pair(pair));
    registry.insert(NBAG_MODEL, ServableModel::NBag(nbag));
    registry
}

/// Whether freshly trained models were written back as snapshots.
#[derive(Debug)]
pub enum SnapshotWriteback {
    /// No snapshot directory was given; nothing written.
    Skipped,
    /// This many snapshots were written to the directory.
    Saved(usize),
    /// Writing failed — non-fatal, the in-memory registry still serves.
    Failed(ServeError),
}

/// How [`load_or_train`] obtained its registry.
#[derive(Debug)]
pub enum BootSource {
    /// All models decoded from this many snapshots in the directory.
    Loaded(usize),
    /// Trained from scratch (empty or missing snapshot directory, or
    /// every snapshot quarantined as corrupt).
    Trained(SnapshotWriteback),
    /// Some snapshots decoded, but a default model's snapshot was
    /// corrupt (quarantined) or absent — the hole was filled by
    /// retraining just the missing models.
    Repaired {
        /// Models that decoded from snapshots.
        loaded: usize,
        /// Default models retrained to fill the holes.
        retrained: usize,
        /// Whether the retrained models' snapshots were written back.
        writeback: SnapshotWriteback,
    },
}

/// Everything [`load_or_train`] hands back: the registry, how it was
/// obtained, and which corrupt snapshot files were quarantined along
/// the way (empty on a clean boot).
#[derive(Debug)]
pub struct Boot {
    /// The registry ready to serve.
    pub registry: Arc<ModelRegistry>,
    /// Loaded from snapshots or trained from scratch.
    pub source: BootSource,
    /// Corrupt snapshots moved aside as `<name>.corrupt` during the
    /// directory scan; the boot proceeded without them.
    pub quarantined: Vec<PathBuf>,
}

/// The standard serve boot path: load every snapshot from `dir` when it
/// holds any; otherwise train the default models and write their
/// snapshots back so the next boot skips training. With no directory,
/// always trains.
///
/// Corrupt snapshot files do **not** fail the boot: each is quarantined
/// as `<name>.corrupt` (reported in [`Boot::quarantined`] and counted in
/// [`boot_stats`]), and the boot retrains whatever that leaves missing —
/// every default model when nothing decoded, or just the quarantined
/// ones when the corruption was partial ([`BootSource::Repaired`]) — so
/// a torn write from a crashed previous process never leaves a
/// well-known model unservable. An unusable directory (uncreatable,
/// unreadable) is different: that is an operator error, reported as
/// [`ServeError::SnapshotDir`] before any training time is spent.
///
/// # Errors
///
/// [`ServeError::SnapshotDir`] when the directory is missing and cannot
/// be created, or cannot be read. Write-back failures are *not* errors —
/// they are reported in [`SnapshotWriteback::Failed`].
pub fn load_or_train(platforms: &Platforms, dir: Option<&Path>) -> Result<Boot, ServeError> {
    let Some(dir) = dir else {
        return Ok(Boot {
            registry: default_registry(platforms),
            source: BootSource::Trained(SnapshotWriteback::Skipped),
            quarantined: Vec::new(),
        });
    };
    // Probe the directory up front: creating it if missing proves the
    // path is usable *before* minutes of training are sunk into a
    // registry whose write-back would only fail. A typo'd --models path
    // dies here with a typed error instead of a mid-boot panic.
    if let Err(e) = std::fs::create_dir_all(dir) {
        boot_stats().snapshot_dir_errors.inc();
        return Err(ServeError::SnapshotDir(format!(
            "create {}: {e}",
            dir.display()
        )));
    }
    let registry = Arc::new(ModelRegistry::new());
    let report = match registry.load_dir_report(dir) {
        Ok(report) => report,
        Err(err) => {
            boot_stats().snapshot_dir_errors.inc();
            return Err(err);
        }
    };
    if report.loaded > 0 {
        // Partial corruption: a quarantined snapshot must not leave a
        // well-known model missing — `predict` on a 3-app bag with no
        // n-bag model would answer `err unknown model` forever. Retrain
        // just the holes and write their snapshots back.
        let missing: Vec<&str> = [PAIR_MODEL, NBAG_MODEL]
            .into_iter()
            .filter(|name| registry.get(name).is_none())
            .collect();
        if missing.is_empty() {
            return Ok(Boot {
                registry,
                source: BootSource::Loaded(report.loaded),
                quarantined: report.quarantined,
            });
        }
        for name in &missing {
            let model = match *name {
                PAIR_MODEL => ServableModel::Pair(train_pair(platforms)),
                _ => ServableModel::NBag(train_nbag(platforms)),
            };
            registry.insert(*name, model);
        }
        let saved: Result<usize, ServeError> = missing.iter().try_fold(0, |n, name| {
            let text = registry.snapshot(name)?;
            let path = dir.join(format!("{name}.bagsnap"));
            crate::snapshot::write_snapshot_file(&path, &text, &crate::fault::FaultPlan::none())?;
            Ok(n + 1)
        });
        let writeback = match saved {
            Ok(n) => SnapshotWriteback::Saved(n),
            Err(err) => SnapshotWriteback::Failed(err),
        };
        return Ok(Boot {
            registry,
            source: BootSource::Repaired {
                loaded: report.loaded,
                retrained: missing.len(),
                writeback,
            },
            quarantined: report.quarantined,
        });
    }
    let registry = default_registry(platforms);
    let writeback = match registry.save_dir(dir) {
        Ok(saved) => SnapshotWriteback::Saved(saved),
        Err(err) => SnapshotWriteback::Failed(err),
    };
    Ok(Boot {
        registry,
        source: BootSource::Trained(writeback),
        quarantined: report.quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn load_or_train_round_trips_through_a_snapshot_dir() {
        let dir = testutil::scratch_dir("bootstrap-boot");
        // Seed the dir from the shared trained registry (avoids a second
        // training run just for this test).
        let saved = testutil::registry().save_dir(&dir).expect("saves");
        let boot = load_or_train(&Platforms::paper(), Some(&dir)).expect("boots from snapshots");
        match boot.source {
            BootSource::Loaded(n) => assert_eq!(n, saved),
            other => panic!("expected a snapshot boot, got {other:?}"),
        }
        assert!(boot.quarantined.is_empty());
        assert_eq!(boot.registry.list(), testutil::registry().list());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_train_quarantines_corrupt_snapshots_and_boots_the_rest() {
        let dir = testutil::scratch_dir("bootstrap-corrupt");
        // Two valid snapshots plus one corrupt file: the boot must serve
        // the valid models and fence off the corrupt one, not abort.
        let saved = testutil::registry().save_dir(&dir).expect("saves");
        std::fs::write(dir.join("bad.bagsnap"), "not a snapshot\n").expect("writes");
        let before = crate::metrics::boot_stats().snapshots_quarantined.get();
        let boot = load_or_train(&Platforms::paper(), Some(&dir)).expect("boot survives");
        match boot.source {
            BootSource::Loaded(n) => assert_eq!(n, saved),
            other => panic!("expected a snapshot boot, got {other:?}"),
        }
        assert_eq!(boot.quarantined.len(), 1);
        let corrupt = dir.join("bad.bagsnap.corrupt");
        assert_eq!(boot.quarantined[0], corrupt);
        assert!(corrupt.exists(), "corrupt file moved aside");
        assert!(!dir.join("bad.bagsnap").exists(), "original gone");
        assert!(
            crate::metrics::boot_stats().snapshots_quarantined.get() > before,
            "quarantine surfaced in the boot counters"
        );
        assert_eq!(boot.registry.list(), testutil::registry().list());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_train_retrains_only_the_default_model_a_corrupt_snapshot_left_missing() {
        let dir = testutil::scratch_dir("bootstrap-repair");
        testutil::registry().save_dir(&dir).expect("saves");
        // Corrupt the n-bag snapshot: the boot must quarantine it, keep
        // the pair model it decoded, and retrain *only* the n-bag model.
        let nbag_path = dir.join(format!("{NBAG_MODEL}.bagsnap"));
        std::fs::write(&nbag_path, "garbage\n").expect("corrupts");
        let boot = load_or_train(&Platforms::paper(), Some(&dir)).expect("boot repairs");
        match boot.source {
            BootSource::Repaired {
                loaded,
                retrained,
                writeback,
            } => {
                assert_eq!(loaded, 1);
                assert_eq!(retrained, 1);
                assert!(
                    matches!(writeback, SnapshotWriteback::Saved(1)),
                    "{writeback:?}"
                );
            }
            other => panic!("expected a repaired boot, got {other:?}"),
        }
        assert_eq!(boot.quarantined.len(), 1);
        assert!(boot.registry.get(PAIR_MODEL).is_some());
        assert!(boot.registry.get(NBAG_MODEL).is_some());
        // The retrained model's snapshot was written back, so the *next*
        // boot decodes both and needs no repair.
        assert!(nbag_path.exists(), "snapshot written back");
        let next = load_or_train(&Platforms::paper(), Some(&dir)).expect("boots clean");
        assert!(matches!(next.source, BootSource::Loaded(2)), "clean reboot");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_train_returns_typed_error_when_the_dir_is_unusable() {
        // A *file* where the directory should be: create_dir_all cannot
        // succeed, even running as root (where permission bits lie).
        let scratch = testutil::scratch_dir("bootstrap-unusable");
        let blocker = scratch.join("blocker");
        std::fs::write(&blocker, "i am a file\n").expect("writes");
        let dir = blocker.join("models");
        let before = boot_stats().snapshot_dir_errors.get();
        let err = load_or_train(&Platforms::paper(), Some(&dir)).expect_err("must error typed");
        assert!(matches!(err, ServeError::SnapshotDir(_)), "{err}");
        assert!(
            boot_stats().snapshot_dir_errors.get() > before,
            "dir error surfaced in the boot counters"
        );
        std::fs::remove_dir_all(&scratch).ok();
    }
}
